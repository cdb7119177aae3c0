"""Outside-in tracer: times cf_lattice's public functions from the benchmark's side.

`Tracer.install()` replaces each target function with a wrapper that records
a span (name, start, end, parent, error). Modules are resolved through
`importlib.import_module`, never by attribute, because `cf_lattice.roots` is
the *function* that shadows the submodule. Every `cf_lattice.*` binding of the
same function object is patched, so call sites written as
`from .roots import roots` are traced too. A target that no longer exists is
reported in `missing` instead of raising.

Spans stay in memory; `totals()` reduces them to additive per-layer totals,
`derive()` turns totals into the reported metrics, and `spans` is written out
by the caller once the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

TARGETS = {
    "intlinalg": ("hnf", "kernel", "smith_normal_form", "det", "rational_inverse",
                  "solve_rational", "signature", "mat_mul"),
    "lattices": ("discriminant_data", "orthogonal_complement", "saturation",
                 "genus_invariants", "Lattice.det", "Lattice.signature"),
    "roots": ("short_vectors", "identify_root_system", "disc_action", "find_long_root"),
    "niemeier": ("construct_niemeier", "overlattice", "isotropic_subgroups", "embed_e6"),
    "period": ("build_period_model", "realizable_determinants", "classify_hyperplane",
               "classify_boundary_components", "glue_unimodular_26_2", "e8_dictionary",
               "monodromy_involution"),
    "plethysm": ("parse_rep_expression", "sym_power", "decompose"),
    "spectra": ("spectrum", "cusp_spectrum", "surface_catalog"),
    "checks": ("run_check",),
    "cli": ("main",),
}

PACKAGE = "cf_lattice"
OVER_BUDGET = "OverBudget"   # class name of the sweep worker's budget exception


def span_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Tracer:
    """Wraps the TARGETS of one process; `uninstall()` restores the originals."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []      # [name, start, end, parent index, error name]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct_sv: set = set()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> "Tracer":
        for mod_name, names in TARGETS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing += [f"{mod_name}.{n}" for n in names]
                continue
            for qualname in names:
                self._install_one(module, mod_name, qualname)
        return self

    def _install_one(self, module, mod_name: str, qualname: str) -> None:
        span = f"{mod_name}.{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None or not callable(original):
            self.missing.append(span)
            return
        wrapper = self._wrap(span, original)
        if owner_name:
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- spans --------------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                return self._resumptions(name, fn(*args, **kwargs))
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                self._close(span)
            self._count(name, args, result)
            return result
        return traced

    def _resumptions(self, name: str, gen):
        """Re-yield from `gen`, one span per resumption of the generator's own work."""
        try:
            while True:
                span = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    span[4] = type(exc).__name__
                    raise
                finally:
                    self._close(span)
                self.counts[name + ".yielded"] += 1
                yield item
        finally:
            gen.close()

    def _count(self, name: str, args, result) -> None:
        if name == "roots.short_vectors":
            self.counts[name + ".vectors"] += len(result)
            self.distinct_sv.add((args[0].gram, args[1]))
        elif name == "plethysm.sym_power":
            self.counts[name + ".terms"] += len(result.terms)
        elif name == "period.realizable_determinants":
            self.counts[name + ".realized"] += len(result.realized)

    # -- reduction ----------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Additive totals over the recorded spans; `derive` turns them into metrics."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: Counter = Counter()
        for idx, (name, start, end, parent, error) in enumerate(self.spans):
            out[name + ".self_s"] += (end - start) - child_time[idx]
            if error and name != "niemeier.isotropic_subgroups":
                out[name + ".errors"] += 1
            if name == "intlinalg.smith_normal_form" and error == OVER_BUDGET:
                out[name + ".over_budget"] += 1
            if name == "period.classify_hyperplane" and self._inside(
                    parent, "period.realizable_determinants"):
                out["period.realizable_determinants.classified"] += 1
        for name, n in self.calls.items():
            out[name + ".calls"] += n
        out.update(self.counts)
        out["roots.short_vectors.distinct"] = len(self.distinct_sv)
        return dict(out)

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def derive(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer metrics: counts and self times per traced pass, ratios over all passes."""
    def per_pass(key):
        return totals.get(key, 0) / passes

    def ratio(num, den):
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    out = {}
    for name in span_names():
        out[name + ".calls"] = per_pass(name + ".calls")
        out[name + ".self_s"] = per_pass(name + ".self_s")
    ov = "niemeier.overlattice"
    out.update({
        "roots.short_vectors.vectors": per_pass("roots.short_vectors.vectors"),
        "roots.short_vectors.distinct_ratio": ratio("roots.short_vectors.distinct",
                                                    "roots.short_vectors.calls"),
        "intlinalg.smith_normal_form.over_budget": per_pass("intlinalg.smith_normal_form.over_budget"),
        "niemeier.overlattice.accept_ratio":
            1 - ratio(ov + ".errors", ov + ".calls") if totals.get(ov + ".calls") else 0.0,
        "niemeier.isotropic_subgroups.yielded": per_pass("niemeier.isotropic_subgroups.yielded"),
        "period.realizable_determinants.witness_yield": ratio(
            "period.realizable_determinants.realized", "period.realizable_determinants.classified"),
        "plethysm.sym_power.terms": per_pass("plethysm.sym_power.terms"),
    })
    return out
