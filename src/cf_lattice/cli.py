"""Command-line front end.

Subcommands: lattice, roots, niemeier, plethysm, spectra, verify.
Exit codes: 0 success; for `verify`, the number of failed checks; 2 for
usage or parse errors; 3 for precondition violations (degenerate lattice,
indefinite or over-cap enumeration input, a Gram whose determinant may
pass MAX_DET_DIGITS, a result holding an integer of MAX_DET_DIGITS digits or
more, out-of-range parameters, virtual characters,
characters past the plethysm work cap or whose multiplicities may pass
plethysm.MAX_DIGITS); 141 when the reader of stdout closes it early.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, niemeier, plethysm, spectra
from .lattices import (
    DegenerateLatticeError,
    Lattice,
    discriminant_data,
    genus_invariants,
    hadamard_bits,
    lattice_from_json,
    orthogonal_complement,
    parse_int,
    saturation,
    span_sublattice,
)
from .report import jsonable
from .roots import RootSystemLabel, identify_root_system, short_vectors

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Python refuses str() of an int past 4,300 digits: a Gram whose Hadamard bound
# on |det G| reaches 10^MAX_DET_DIGITS exits 3 before `lattice info|disc` runs
# any elimination, and any result holding an int that long before it is printed
MAX_DET_DIGITS = 4_000
_MAX_BITS = (10 ** MAX_DET_DIGITS).bit_length()  # 2^b >= 10^D exactly when b reaches it


def _int_at_least(low: int):
    """argparse type: a decimal integer >= low (anything else exits 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _load_lattice(path: str) -> Lattice:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _fail(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        return lattice_from_json(text)
    except json.JSONDecodeError as exc:
        raise _fail(
            EXIT_PARSE, f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                        f"{exc.msg}")
    except ValueError as exc:
        raise _fail(EXIT_PARSE, f"{path}: {exc}")


def _fail(code: int, message: str) -> SystemExit:
    print(message, file=sys.stderr)
    return SystemExit(code)


def _parse_rows(text: str):
    try:
        rows = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise _fail(EXIT_PARSE, f"--rows: malformed JSON at column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an entry past the digit limit
        raise _fail(EXIT_PARSE, f"--rows: {exc}")
    if (not isinstance(rows, list) or not rows
            # type(), not isinstance(): JSON true and false load as bool, an int subclass
            or not all(isinstance(r, list) and all(type(x) is int for x in r) for r in rows)):
        raise _fail(EXIT_PARSE, "--rows must be a non-empty JSON array of integer arrays")
    return [tuple(r) for r in rows]


def _fqf_summary(form):
    if form.is_trivial():
        return {"order": 1, "invariant_factors": [], "group": "trivial"}
    group = " x ".join(f"Z/{d}" for d in form.invariant_factors)
    out = {"order": form.order, "invariant_factors": list(form.invariant_factors),
           "group": group}
    if form.q is not None:
        out["q"] = [str(v) for v in form.q]
    return out


def _widest_int_bits(doc) -> int:
    """The largest bit length of an int in a document of dicts, lists and scalars."""
    if isinstance(doc, int):
        return doc.bit_length()
    if isinstance(doc, dict):
        doc = doc.values()
    elif not isinstance(doc, (list, tuple)):
        return 0
    try:  # a flat list of ints, such as a vector or a Gram row, in one C-level pass
        return max(map(int.bit_length, doc), default=0)
    except TypeError:  # a string or a container among the items
        return max(map(_widest_int_bits, doc), default=0)


def _emit(doc, args) -> None:
    if _widest_int_bits(doc) >= _MAX_BITS:
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        raise _fail(EXIT_PRECONDITION,
                    f"{command}: the result holds an integer of {MAX_DET_DIGITS} digits "
                    "or more, past what this command prints")
    if args.output == "json":
        print(json.dumps(jsonable(doc), sort_keys=True))
    else:
        _emit_text(jsonable(doc))


# a container is printed on one line if its JSON is shorter than this
_TEXT_WIDTH = 70


def _emit_text(doc, indent: int = 0) -> None:
    """Print a JSON value as an indented outline.

    A scalar or a list of scalars is always one line, and so is any
    container whose JSON is shorter than _TEXT_WIDTH; a longer container
    gets a `key:` or `-` line and its items one level deeper. Each printed
    leaf is serialized once.
    """
    pad = "  " * indent
    if isinstance(doc, dict):
        items = ((f"{k}:", v) for k, v in doc.items())
    elif isinstance(doc, list):
        items = (("-", v) for v in doc)
    else:
        print(f"{pad}{json.dumps(doc)}")
        return
    for head, v in items:
        text = json.dumps(v) if _flat(v) else _inline(v, _TEXT_WIDTH)
        if text is None:
            print(f"{pad}{head}")
            _emit_text(v, indent + 1)
        else:
            print(f"{pad}{head} {text}")


def _flat(v) -> bool:
    """A scalar or a list of scalars."""
    if isinstance(v, list):
        return not any(isinstance(x, (list, dict)) for x in v)
    return not isinstance(v, dict)


def _inline(v, room: int) -> str | None:
    """The JSON of v if it is shorter than `room` characters, else None.

    The text is built leaf by leaf and abandoned at the first overflow, so a
    long container costs about `room` characters of serialization.
    """
    if not isinstance(v, (list, dict)):
        text = json.dumps(v)
        return text if len(text) < room else None
    if room <= 2:
        return None
    pairs = v.items() if isinstance(v, dict) else ((None, x) for x in v)
    parts, used = [], 2  # the brackets
    for k, x in pairs:
        head = "" if k is None else json.dumps(k) + ": "
        used += len(head) + (2 if parts else 0)  # ", " between items
        text = _inline(x, room - used) if used < room else None
        if text is None:
            return None
        parts.append(head + text)
        used += len(text)
    body = ", ".join(parts)
    return "{" + body + "}" if isinstance(v, dict) else "[" + body + "]"


def _cmd_lattice(args) -> int:
    lat = _load_lattice(args.file)
    if args.action in ("info", "disc") and hadamard_bits(lat.gram) >= _MAX_BITS:
        raise _fail(EXIT_PRECONDITION,
                    f"lattice {args.action}: Hadamard's bound on |det G| has more than "
                    f"{MAX_DET_DIGITS} digits, past what this command prints")
    if args.action == "info":
        try:
            inv = genus_invariants(lat)
        except DegenerateLatticeError as exc:
            raise _fail(EXIT_PRECONDITION, str(exc))
        _emit({"name": lat.name, "rank": inv.rank, "det": lat.det(),
               "signature": list(inv.signature),
               "parity": "even" if inv.even else "odd",
               "disc": _fqf_summary(inv.disc)}, args)
        return EXIT_OK
    if args.action == "disc":
        try:
            data = discriminant_data(lat)
        except DegenerateLatticeError as exc:
            raise _fail(EXIT_PRECONDITION, str(exc))
        _emit(_fqf_summary(data.form), args)
        return EXIT_OK
    if args.rows is None:
        raise _fail(EXIT_PARSE, f"lattice {args.action} requires --rows")
    rows = _parse_rows(args.rows)
    if any(len(r) != lat.rank for r in rows):
        raise _fail(EXIT_PARSE, f"--rows: every row must have length {lat.rank}, the rank")
    sub = span_sublattice(lat, rows)
    if args.action == "complement":
        try:
            out = orthogonal_complement(lat, sub)
        except DegenerateLatticeError as exc:
            raise _fail(EXIT_PRECONDITION, str(exc))
    else:
        out = saturation(lat, sub)
    out_lattice = out.lattice()
    _emit({"gram": [list(r) for r in out_lattice.gram],
           "basis": [list(r) for r in out.basis],
           "degenerate": out_lattice.is_degenerate()}, args)
    return EXIT_OK


def _cmd_roots(args) -> int:
    lat = _load_lattice(args.file)
    try:
        vectors = short_vectors(lat, args.norm)
    except ValueError as exc:
        raise _fail(EXIT_PRECONDITION, str(exc))
    doc = {"norm": args.norm, "count": len(vectors),
           "vectors": [list(v) for v in vectors]}
    if args.norm == 2 and vectors:
        doc["root_system"] = str(identify_root_system(lat, vectors))
    _emit(doc, args)
    return EXIT_OK


def _cmd_niemeier(args) -> int:
    if args.action == "list":
        table = [{"roots": str(e.root_system), "h": e.coxeter_number,
                  "count": e.root_count()} for e in niemeier.niemeier_table()]
        if args.output == "json":
            print(json.dumps(table))
        else:
            for row in table:
                print(f"{row['roots']:12s} h={row['h']:<3d} roots={row['count']}")
        return EXIT_OK
    # build
    if args.name is None or not args.name.strip():  # "" would parse as the rootless "-"
        raise _fail(EXIT_PARSE, "niemeier build requires a root-system label, e.g. E6^4")
    try:
        target = RootSystemLabel.parse(args.name)
    except ValueError as exc:
        raise _fail(EXIT_PARSE, f"malformed root-system label {args.name!r}: {exc}")
    entry = next((e for e in niemeier.niemeier_table()
                  if e.root_system == target), None)
    if entry is None:
        raise _fail(EXIT_PARSE, f"{args.name!r} is not a rank-24 root system entry")
    try:
        glued = niemeier.construct_niemeier(entry)
    except ValueError as exc:
        raise _fail(EXIT_PRECONDITION, str(exc))
    lat = glued.lattice
    _emit({"name": lat.name, "gram": [list(r) for r in lat.gram],
           "glue_order": glued.glue_order, "det": lat.det()}, args)
    return EXIT_OK


def _cmd_plethysm(args) -> int:
    group = plethysm.SL3 if args.sl3 else plethysm.SL2
    try:
        char = plethysm.parse_rep_expression(args.expression, group)
    except plethysm.ParseError as exc:
        raise _fail(EXIT_PARSE, f"parse error: {exc}")
    except plethysm.WorkCapError as exc:
        raise _fail(EXIT_PRECONDITION, f"work cap: {exc}")
    try:
        dec = plethysm.decompose(char)
    except plethysm.VirtualCharacterError as exc:
        raise _fail(EXIT_PRECONDITION, f"virtual character: {exc}")
    summands = [{"weight": list(w) if group == plethysm.SL3 else w, "mult": m}
                for w, m in dec.summands]
    doc = {"group": group, "summands": summands, "dim": dec.dimension()}
    if args.output == "json":
        print(json.dumps(doc))
    else:
        print(f"{dec}  (dim {dec.dimension()})")
    return EXIT_OK


def _cmd_spectra(args) -> int:
    if args.action == "list":
        entries = [{"name": e.name, "kind": e.kind,
                    "weights": [str(w) for w in e.singularity.weights]}
                   for e in spectra.surface_catalog()]
        _emit(entries, args)
        return EXIT_OK
    if args.action == "show":
        entry = next((e for e in spectra.surface_catalog() if e.name == args.name), None)
        if entry is None:
            raise _fail(EXIT_PARSE, f"unknown catalog entry {args.name!r}")
        sp = spectra.spectrum(entry.singularity)
        if args.suspend:
            sp = spectra.suspend(sp, args.suspend)
        _emit({"name": entry.name, "milnor_number": len(sp),
               "entries": [str(e) for e in sp.entries],
               "min": str(sp.minimum()), "max": str(sp.maximum())}, args)
        return EXIT_OK
    # cusp
    try:
        sp = spectra.cusp_spectrum(args.p, args.q, args.r)
    except ValueError as exc:  # parameters below 2, or a CuspRangeError
        raise _fail(EXIT_PRECONDITION, str(exc))
    if args.suspend:
        sp = spectra.suspend(sp, args.suspend)
    _emit({"cusp": [args.p, args.q, args.r], "milnor_number": len(sp),
           "entries": [str(e) for e in sp.entries]}, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        requested = checks.resolve_check_ids(tuple(args.checks) or ("all",))
    except KeyError as exc:
        raise _fail(EXIT_PARSE, str(exc.args[0]))
    reports = checks.run_suite(requested)
    failures = sum(1 for r in reports if r.status == "fail")
    if args.output == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
        return failures
    for r in reports:
        print(f"[{r.status.upper()}] {r.check}  ({r.elapsed_ms} ms)")
        print(f"    claim:    {r.paper_ref}")
        if r.status == "fail":
            print(f"    expected: {json.dumps(r.expected, sort_keys=True)}")
            print(f"    actual:   {json.dumps(r.actual, sort_keys=True)}")
    print(f"{len(reports)} checks, {failures} failures")
    return failures


def _common_flags(defaults: bool) -> argparse.ArgumentParser:
    """The shared `--output` flag, accepted both before and after the subcommand.

    The subparser copies suppress the default so it never overwrites a
    value already parsed at the top level.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--output", choices=("text", "json"),
                   default="text" if defaults else argparse.SUPPRESS)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags(defaults=False)
    parser = argparse.ArgumentParser(
        prog="cf-lattice",
        parents=[_common_flags(defaults=True)],
        description="Exact lattice, root-system, plethysm and spectrum computations "
                    "with a built-in verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p_lat = add_parser("lattice", help="inspect or derive lattices from JSON files")
    p_lat.add_argument("action", choices=("info", "complement", "disc", "saturate"))
    p_lat.add_argument("file", help="lattice JSON: {\"name\"?: str, \"gram\": [[int,...],...]}")
    p_lat.add_argument("--rows", help="JSON array of basis rows for complement/saturate")
    p_lat.set_defaults(func=_cmd_lattice)

    p_roots = add_parser("roots", help="enumerate short vectors of a definite lattice")
    p_roots.add_argument("file")
    p_roots.add_argument("--norm", type=_positive_int, default=2)
    p_roots.set_defaults(func=_cmd_roots)

    p_nie = add_parser("niemeier", help="the rank-24 even unimodular census")
    p_nie.add_argument("action", choices=("list", "build"))
    p_nie.add_argument("name", nargs="?", help="root system label, e.g. E6^4")
    p_nie.set_defaults(func=_cmd_niemeier)

    p_ple = add_parser("plethysm", help="decompose a character expression")
    group = p_ple.add_mutually_exclusive_group()
    group.add_argument("--sl2", action="store_true", default=True)
    group.add_argument("--sl3", action="store_true")
    p_ple.add_argument("expression", help="e.g. \"Sym^3(Sym^4(V)+C)\"")
    p_ple.set_defaults(func=_cmd_plethysm)

    p_spec = add_parser("spectra", help="singularity spectra")
    spec_sub = p_spec.add_subparsers(dest="action", required=True)
    sp_list = spec_sub.add_parser("list", parents=[common])
    sp_list.set_defaults(func=_cmd_spectra)
    sp_show = spec_sub.add_parser("show", parents=[common])
    sp_show.add_argument("name")
    sp_show.add_argument("--suspend", type=_non_negative_int, default=0)
    sp_show.set_defaults(func=_cmd_spectra)
    sp_cusp = spec_sub.add_parser("cusp", parents=[common])
    sp_cusp.add_argument("p", type=int)
    sp_cusp.add_argument("q", type=int)
    sp_cusp.add_argument("r", type=int)
    sp_cusp.add_argument("--suspend", type=_non_negative_int, default=0)
    sp_cusp.set_defaults(func=_cmd_spectra)

    p_ver = add_parser("verify", help="run the named verification checks")
    p_ver.add_argument("checks", nargs="*", default=["all"],
                       help="check ids (default: all); see --list")
    p_ver.add_argument("--list", action="store_true", dest="list_checks",
                       help="list available check ids and exit")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and getattr(args, "list_checks", False):
            for cid in checks.check_ids():
                print(cid)
            code = EXIT_OK
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; devnull keeps the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except DegenerateLatticeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
