import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from cf_lattice import intlinalg
from cf_lattice.intlinalg import (
    adjugate,
    det,
    hnf,
    kernel,
    pivot_signature,
    rational_inverse,
    smith_form,
    smith_normal_form,
    symmetric_bareiss,
)
from cf_lattice.lattices import cartan_gram, direct_sum, standard_lattice
from cf_lattice.niemeier import construct_niemeier, entries_with_e_summand
from cf_lattice.period import build_period_model, glue_unimodular_26_2


def random_matrix(rng, n, m, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(2)
    for _ in range(50):
        m = random_matrix(rng, 3, 5)
        h1 = hnf(m)
        mixed = [
            [a + 2 * b for a, b in zip(m[0], m[1])],
            m[2],
            [a - b for a, b in zip(m[1], m[2])],
            m[1],
        ]
        # mixed spans a sublattice of the original span only if we keep all rows
        full = m + mixed
        assert hnf(full) == h1


def test_hnf_pivots_positive_and_reduced():
    h = hnf([[4, 2, 0], [2, 8, 2]])
    for i, row in enumerate(h):
        piv_col = next(j for j, x in enumerate(row) if x)
        assert row[piv_col] > 0
        for above in h[:i]:
            assert 0 <= above[piv_col] < row[piv_col]


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(rng, 2, 5)
        ker = kernel(m)
        for k in ker:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m)
        assert len(ker) >= 3
        # saturated: the kernel equals the kernel of the kernel's annihilator
        assert kernel(kernel(ker)) == ker


_RECTANGULAR = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                           min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_RECTANGULAR)
def test_hnf_and_kernel_ranks_match_sympy(m):
    """Differential oracle: sympy's rank and nullity, on rectangular and rank-deficient input."""
    r = sympy.Matrix(m).rank()
    assert intlinalg.rank(m) == r
    assert len(hnf(m)) == r
    assert len(kernel(m)) == len(m[0]) - r


def _assert_smith(a, out):
    """P*A*Q = diag(d), P and Q unimodular, d_i | d_{i+1}, zeros last, d = sympy's factors."""
    d, p, q = out
    paq = intlinalg.mat_mul(intlinalg.mat_mul(p, a), q)
    assert paq == [[d[i] if i == j else 0 for j in range(len(a[0]))] for i in range(len(a))]
    assert abs(det(p)) == 1
    assert abs(det(q)) == 1
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0 if d[i] else d[i + 1] == 0
    assert d == [abs(x) for x in invariant_factors(sympy.Matrix(a))]


def test_smith_normal_form_transforms_and_divisibility():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        _assert_smith(a, smith_normal_form(a))


_ENTRY = st.integers(-9, 9)


def _matrices(nrows, ncols):
    return st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def _smith_inputs(draw):
    """Dense up to 8x8 (rectangular), rank-deficient B*C, or banded up to 16x16."""
    kind = draw(st.sampled_from(("dense", "rank-deficient", "banded")))
    if kind == "banded":
        n, width = draw(st.integers(2, 16)), draw(st.integers(1, 3))
        return [[draw(_ENTRY) if abs(i - j) <= width else 0 for j in range(n)]
                for i in range(n)]
    nrows, ncols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    if kind == "dense":
        return draw(_matrices(nrows, ncols))
    inner = draw(st.integers(1, min(nrows, ncols) - 1))
    return intlinalg.mat_mul(draw(_matrices(nrows, inner)), draw(_matrices(inner, ncols)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_smith_inputs())
def test_smith_normal_form_matches_sympy(a):
    _assert_smith(a, smith_normal_form(a))


def test_smith_normal_form_ends_on_dense_7x7(time_budget):
    a = [[-7, -5, 3, 2, -2, -6, 1], [-1, -9, 7, 1, -6, 2, -5], [-1, 3, -7, 9, 7, 6, 9],
         [4, 8, 3, 0, -2, 0, 8], [-5, -8, 7, -6, -4, -2, -3], [4, -1, 8, -9, -1, 8, -1],
         [7, -1, 6, -5, 3, -6, 2]]
    out = smith_normal_form(a)
    assert out[0] == [1] * 6 + [abs(det(a))]
    _assert_smith(a, out)


def test_smith_normal_form_degenerate_shapes():
    assert smith_normal_form([[0, 0], [0, 0]])[0] == [0, 0]
    assert smith_normal_form([[0, 3], [0, 0]])[0] == [3, 0]
    assert smith_normal_form([[]]) == ([], [[1]], [])
    assert smith_normal_form([]) == ([], [], [])


def kannan_bachem_reference(a):
    """The full-width loop: every divisibility fix-up adds column i+1 to column i
    and runs full row and column passes over [M | P] and [M^T | Q^T] again."""
    m = [list(r) for r in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    p, q = intlinalg.identity(nrows), intlinalg.identity(ncols)
    if not nrows or not ncols:
        return [], p, q
    while True:
        m, p = intlinalg._hermite_pass(m, p)
        mt, qt = intlinalg._hermite_pass(intlinalg.transpose(m), intlinalg.transpose(q))
        m, q = intlinalg.transpose(mt), intlinalg.transpose(qt)
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(m)):
            continue
        d = [m[i][i] for i in range(min(nrows, ncols))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            return d, p, q
        for row in m + q:
            row[i] += row[i + 1]


_ADE_SUMMANDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A11", "D4", "D5", "D6",
                 "D8", "D10", "E6", "E7", "E8")


def _seeded_ade_gram(rng):
    """The Gram of a seeded A-D-E sum of rank at most 24."""
    labels, rank_ = [], 0
    while not labels or rng.random() < 0.7:
        label = rng.choice(_ADE_SUMMANDS)
        if rank_ + int(label[1:]) > 24:
            break
        labels.append(label)
        rank_ += int(label[1:])
    return [list(r) for r in direct_sum(*(standard_lattice(x) for x in labels)).gram]


def _signed_permutation(rng, g):
    n = len(g)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _square_nonsingular_inputs():
    """The Smith inputs on which the 2x2 fix-up must equal the full-width loop."""
    grams = [[list(r) for r in direct_sum(*(standard_lattice(f"{f}{n}")
                                            for f, n in e.root_system.components)).gram]
             for e in entries_with_e_summand()]
    core = build_period_model().core_lattice
    grams.append([list(r) for r in direct_sum(core, standard_lattice("E6")).gram])
    rng = random.Random(1717)
    for _ in range(40):
        g = _seeded_ade_gram(rng)
        grams.append(_signed_permutation(rng, g))
        grams.append(_skewed(rng, g))
    grams += [[[x * (i == j) for j in range(len(diag))] for i, x in enumerate(diag)]
              for diag in ([4, 6, 9, 10], [6, 4], [-9, 6, 4], [2, 3, 5, 7, 11, 13],
                           [12, 18, 8, 27, 10, 15, 6])]
    for n in range(1, 7):
        for _ in range(10):
            a = random_matrix(rng, n, n)
            while not det(a):
                a = random_matrix(rng, n, n)
            grams.append(a)
    return grams


def test_smith_normal_form_equals_the_full_width_loop_on_square_nonsingular_input(
        monkeypatch, time_budget):
    """d, P and Q item by item: the six Niemeier root sums, the rank-28 sum glued to
    II_{26,2}, seeded A-D-E sums up to rank 24 in signed-permutation and skewed
    bases, diagonals whose entries do not divide each other, and dense 1x1 to 6x6."""
    inputs = _square_nonsingular_inputs()
    assert [len(a) for a in inputs[:7]] == [24] * 6 + [28]
    fix_up, calls = intlinalg._fix_up, []

    def counted(*args):
        calls.append(args[-1])
        return fix_up(*args)

    monkeypatch.setattr(intlinalg, "_fix_up", counted)
    fixed_up = []
    for a in inputs:
        calls.clear()
        out = smith_normal_form(a)
        fixed_up.append(bool(calls))
        assert out == kannan_bachem_reference(a)
    # six of the seven large sums, and over a third of all inputs, take a fix-up
    assert fixed_up[:7].count(True) == 6 and sum(fixed_up) > len(inputs) // 3
    assert smith_normal_form([[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 9, 0], [0, 0, 0, 10]])[0] \
        == [1, 2, 6, 180]


def _unimodular(rng, n):
    """3n seeded row steps row i += sign * row j on the n x n identity, n >= 2."""
    u = intlinalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        u[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(u[i], u[j])]
    return u


def _singular_and_rectangular_inputs(rng):
    """Non-dividing diagonals padded with zero rows or columns in mixed bases, and
    rank-deficient products."""
    cases = []
    for diag in ([4, 6, 9, 10], [6, 4], [2, 3, 5], [12, 18, 8]):
        for extra_rows, extra_cols in ((1, 0), (0, 2), (2, 1), (1, 1)):
            n, m = len(diag) + extra_rows, len(diag) + extra_cols
            # square and singular when extra_rows == extra_cols
            a = [[diag[i] if i == j and i < len(diag) else 0 for j in range(m)]
                 for i in range(n)]
            cases.append(intlinalg.mat_mul(intlinalg.mat_mul(_unimodular(rng, n), a),
                                           _unimodular(rng, m)))
    for _ in range(30):
        n, m = rng.randint(2, 7), rng.randint(2, 7)
        inner = rng.randint(1, min(n, m) - 1)
        cases.append(intlinalg.mat_mul(random_matrix(rng, n, inner),
                                       random_matrix(rng, inner, m)))
    return cases


def test_smith_normal_form_meets_the_contract_on_singular_and_rectangular_input():
    """Here P and Q may differ from the full-width loop's: only the contract and
    sympy's invariant factors are checked."""
    for a in _singular_and_rectangular_inputs(random.Random(1718)):
        _assert_smith(a, smith_normal_form(a))


def test_smith_form_without_p_gives_the_d_and_q_of_the_loop_with_p(time_budget):
    """The row pass without P is the left block of the pass with P, so d and Q are
    the same: on dense 2x2 to 12x12, seeded A-D-E sums of rank 8 to 24 in skewed
    bases, the six Niemeier root sums, the rank-22 core, and singular and
    non-square input, whose zero factors survive the bare row passes."""
    rng = random.Random(1719)
    inputs = [random_matrix(rng, n, n) for n in range(2, 13) for _ in range(3)]
    while len(inputs) < 63:
        g = _seeded_ade_gram(rng)
        if len(g) >= 8:
            inputs.append(_skewed(rng, g))
    inputs += [[list(r) for r in direct_sum(*(standard_lattice(f"{f}{n}")
                                              for f, n in e.root_system.components)).gram]
               for e in entries_with_e_summand()]
    inputs.append([list(r) for r in build_period_model().core_lattice.gram])
    singular = _singular_and_rectangular_inputs(rng)
    for a in inputs + singular:
        d, _, q = smith_normal_form(a)
        assert smith_form(a, carry_p=False) == (d, None, q)
    assert sum(0 in smith_form(a, carry_p=False)[0] for a in singular) > len(singular) // 2


_PASS_COUNT_PROBE = """
import json
from collections import Counter
from cf_lattice import checks, intlinalg
hermite_pass, fix_up, counts = intlinalg._hermite_pass, intlinalg._fix_up, Counter()
def counted_pass(m, t):
    # every row pass is followed by its column pass; t is None when P is not carried
    side = "column" if counts["passes"] % 2 else "row"
    counts["passes"] += 1
    counts[side + (" bare" if t is None else " carrying")] += 1
    return hermite_pass(m, t)
def counted_fix_up(d, p, q, i):
    counts["fix-up" + (" bare" if p is None else " carrying")] += 1
    return fix_up(d, p, q, i)
intlinalg._hermite_pass, intlinalg._fix_up = counted_pass, counted_fix_up
reports = checks.run_suite()
del counts["passes"]
print(json.dumps({"statuses": [r.status for r in reports], **counts}))
"""


def test_one_verify_makes_24_full_width_hermite_passes_and_130_fix_ups():
    """From a fresh import, `run_suite` takes 12 Smith forms (ranks 6 to 28): one
    round of full passes each, and 130 divisibility fix-ups. Column passes carry Q;
    row passes and fix-ups carry P only in the one Smith form whose P is read
    (`disc_action` on the core), and the 11 of `discriminant_data` run bare."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    result = subprocess.run([sys.executable, "-c", _PASS_COUNT_PROBE], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(result.stdout)
    assert got == {"statuses": ["pass"] * 12,
                   "row bare": 11, "row carrying": 1, "column carrying": 12,
                   "fix-up bare": 129, "fix-up carrying": 1}


def _block_passes(a, b, p, q):
    """The fix-up as row and column Hermite passes on the 2x2 block: add column 1 to
    column 0, then the row HNF of [[a, 0], [b, b]] carrying the rows of P, then the
    row HNF of its transpose carrying the columns of Q."""
    block, p_rows = intlinalg._hermite_pass([[a, 0], [b, b]], p)
    q_cols = [[row[0] + row[1] for row in q], [row[1] for row in q]]
    block, q_cols = intlinalg._hermite_pass(intlinalg.transpose(block), q_cols)
    assert block == [[block[0][0], 0], [0, block[1][1]]]
    return [block[0][0], block[1][1]], p_rows, intlinalg.transpose(q_cols)


def test_fix_up_equals_the_2x2_block_passes_exhaustively():
    """Every 1 <= a, b <= 60 with a not dividing b: d, the rows of P and the columns
    of Q, with P carried and bare, on rows and columns that mix all entries."""
    cases = 0
    for a in range(1, 61):
        for b in range(1, 61):
            if b % a == 0:
                continue
            p, q = [[2, -3, 5], [7, 1, -4]], [[1, 4], [-2, 3], [5, -6], [0, 1]]
            expected = _block_passes(a, b, p, q)
            d = [a, b]
            intlinalg._fix_up(d, p, q, 0)
            assert (d, p, q) == expected
            d, q = [a, b], [[1, 4], [-2, 3], [5, -6], [0, 1]]
            intlinalg._fix_up(d, None, q, 0)
            assert (d, q) == (expected[0], expected[2])
            cases += 1
    assert cases == 3600 - sum(60 // a for a in range(1, 61))


def _naive_mat_mul(a, b, m):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(m)]
            for i in range(len(a))]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_mat_mul_matches_the_triple_loop_on_mixed_rows(kind):
    """Seeded 0-8 x 0-8 times 0-8 x 0-8 factors whose left rows are each all zero,
    sparse, half or dense (so both the scaled-row and the dot-product path run);
    int input gives int output."""
    rng = random.Random(3101 if kind == "int" else 3102)
    dense_rows = sparse_rows = 0
    for _ in range(400):
        n, k, m = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8)
        if k == 0:
            m = 0  # a k x 0 factor is k empty rows: its column count is lost
        a = [_sparse(rng, 1, k, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)), kind)[0]
             for _ in range(n)]
        b = _sparse(rng, k, m, rng.choice((0.3, 1.0)), kind)
        product_ = intlinalg.mat_mul(a, b)
        assert product_ == _naive_mat_mul(a, b, m)
        assert len(product_) == n and all(len(row) == m for row in product_)
        if kind == "int":
            assert all(type(x) is int for row in product_ for x in row)
        for row in a:
            nonzero = sum(1 for x in row if x)
            dense_rows += 2 * nonzero > k
            sparse_rows += 0 < 2 * nonzero <= k
    assert dense_rows > 200 and sparse_rows > 200


def test_det_matches_fraction_elimination_up_to_12x12():
    """Seeded 1x1 to 12x12, dense, singular (one row a combination of two others,
    or a zero first column) and with zero leading entries that force row swaps."""
    rng = random.Random(3103)
    singular = swapped = 0
    for n in range(1, 13):
        for shape in range(12):
            a = random_matrix(rng, n, n, bound=9)
            if shape % 3 == 1 and n >= 3:
                i, j, k = rng.sample(range(n), 3)
                a[i] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
                        for x, y in zip(a[j], a[k])]
                singular += 1
            if shape % 3 == 2:  # zero pivots at steps 0 and 1 unless rows are swapped in
                for r in range(rng.randint(1, n)):
                    a[r][0] = 0
                a[min(1, n - 1)][min(1, n - 1)] = 0
                swapped += 1
            assert det(a) == _det_fraction(a)
    assert singular >= 30 and swapped >= 40
    assert det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
    assert det([[0, 1], [0, 2]]) == 0


def test_det_matches_fraction_elimination():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        expected = _det_fraction(a)
        assert det(a) == expected


def _det_fraction(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for i in range(col + 1, n):
            c = m[i][col] / m[col][col]
            m[i] = [x - c * y for x, y in zip(m[i], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    assert out.denominator == 1
    return int(out)


def signature(gram):
    """(positive, negative, zero) the way `Lattice.signature` reads it: `pivot_signature`
    over the pivots and nullity of `symmetric_bareiss`."""
    pivots, _, nullity = symmetric_bareiss(gram)
    return pivot_signature(pivots, nullity)


def test_signature_diagonal_cases():
    assert signature([[2, 0], [0, -3]]) == (1, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert signature([[2, 1], [1, 2]]) == (2, 0, 0)


def test_signature_pivot_order_independence():
    g = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, 0], [0, 0, 0, -4]]
    base = signature(g)
    for perm in permutations(range(4)):
        permuted = [[g[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        assert signature(permuted) == base


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices, some with a zero diagonal, some degenerate."""
    n = draw(st.integers(1, 6))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    if n > 1 and draw(st.booleans()):
        # C^T A C with C sending the last basis vector to the first: e_0 - e_(n-1)
        # spans part of the radical
        a[-1] = list(a[0])
        for i in range(n):
            a[i][-1] = a[i][0]
    return a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_symmetric_matrices())
def test_signature_matches_descartes_on_charpoly(a):
    """Oracle: the characteristic polynomial of a real symmetric matrix is real-rooted,
    so Descartes' rule of signs counts its positive roots (sign changes of p(x)) and its
    negative roots (sign changes of p(-x)) exactly; the zero roots are the trailing
    zero coefficients."""
    coeffs = sympy.Matrix(a).charpoly().all_coeffs()[::-1]  # constant term first
    zero = next(k for k, c in enumerate(coeffs) if c)
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c * (-1) ** k for k, c in enumerate(coeffs)])
    assert signature(a) == (pos, neg, zero)


def _skewed(rng, g):
    """U G U^T for a random unimodular U."""
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return intlinalg.mat_mul(intlinalg.mat_mul(u, g), intlinalg.transpose(u))


@pytest.mark.parametrize("family,n", [("A", 1), ("A", 5), ("D", 6), ("E", 6), ("E", 8)])
def test_symmetric_bareiss_pivots_are_leading_minors(family, n):
    """On a definite Gram, in the Cartan basis and in skewed bases, the pivots are
    sympy's leading principal minors in the natural order, and the rows give
    G = L^T diag(d) L with l_ij = rows[i][j] / D_i and d_i = D_i / D_(i-1)."""
    rng = random.Random(31 + n)
    cartan = [list(r) for r in cartan_gram(family, n)]
    for g in [cartan] + [_skewed(rng, cartan) for _ in range(3 if n > 1 else 0)]:
        pivots, rows, nullity = symmetric_bareiss(g)
        m = sympy.Matrix(g)
        assert pivots == [m[:k, :k].det() for k in range(1, n + 1)]
        assert nullity == 0
        assert all(rows[i][i] == pivots[i] and not any(rows[i][:i]) for i in range(n))
        d = [Fraction(b, a) for a, b in zip([1] + pivots, pivots)]
        lower = [[Fraction(rows[i][j], pivots[i]) for j in range(n)] for i in range(n)]
        ldl = [[sum(lower[k][i] * d[k] * lower[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        assert ldl == g


def test_symmetric_bareiss_last_pivot_is_det_on_zero_diagonals():
    """Zero diagonals force the x_i -> x_i + x_j repair; congruence by a unimodular
    matrix keeps the determinant, so on nondegenerate input the last leading minor
    is det G, which also shows every Bareiss division was exact."""
    rng = random.Random(41)
    tested = 0
    while tested < 60:
        n = rng.randint(2, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        d = sympy.Matrix(a).det()
        if d == 0:
            continue
        pivots, _, nullity = symmetric_bareiss(a)
        assert (len(pivots), nullity) == (n, 0)
        assert pivots[-1] == d == det(a)
        tested += 1


def reference_symmetric_bareiss(gram):
    """`symmetric_bareiss` with every step updating whole rows, no symmetry used."""
    m = [list(row) for row in gram]
    active = list(range(len(m)))
    pivots, rows = [], []
    prev = 1
    while active:
        piv = next((i for i in active if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if m[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for k in active:
                m[k][piv] += m[k][j]
        active.remove(piv)
        row = m[piv]
        p = row[piv]
        for i in active:
            c = m[i][piv]
            m[i] = [(p * x - c * y) // prev for x, y in zip(m[i], row)]
        pivots.append(p)
        rows.append(row)
        prev = p
    return pivots, rows, len(active)


def test_symmetric_bareiss_equals_the_whole_row_elimination():
    """Pivots, rows and nullity equal the whole-row reference on seeded sparse
    symmetric matrices of ranks 0-9, with zero diagonals and degenerate ones, and
    on the six Niemeier Grams in walk order."""
    rng = random.Random(47)
    for _ in range(3000):
        n = rng.randint(0, 9)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
        if rng.random() < 0.3:
            for i in range(n):
                a[i][i] = 0
        assert symmetric_bareiss(a) == reference_symmetric_bareiss(a)
    for entry in entries_with_e_summand():
        g = [row[::-1] for row in construct_niemeier(entry).lattice.gram[::-1]]
        assert symmetric_bareiss(g) == reference_symmetric_bareiss(g)


def every_entry_symmetric_bareiss(gram):
    """`symmetric_bareiss` updating every entry of the active upper triangle, zeros of
    a row that does not meet the pivot included."""
    m = [list(row) for row in gram]
    active = list(range(len(m)))
    pivots, rows = [], []
    prev = 1
    while active:
        piv = next((i for i in active if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if m[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for k in active:
                m[k][piv] += m[k][j]
        active.remove(piv)
        row = m[piv]
        p = row[piv]
        for a, i in enumerate(active):
            mi = m[i]
            c = row[i]
            for j in active[a:]:
                mi[j] = m[j][i] = (p * mi[j] - c * row[j]) // prev
            mi[piv] = 0
        pivots.append(p)
        rows.append(row)
        prev = p
    return pivots, rows, len(active)


def _bareiss_oracle_grams():
    """Diagonal, block-diagonal, zero-diagonal and glued Grams, then seeded skewed,
    indefinite and degenerate ones."""
    labels = ["I_{21,2}", "diag(1, -2, 3, 0, 5)", "A1+E8+E8+U+U", "U", "U+U", "E6+A2+U",
              "D4+D4+A3", "E7+U+A1"]
    grams = [direct_sum(*map(standard_lattice, label.split("+"))).gram for label in labels]
    grams += [construct_niemeier(entry).lattice.gram for entry in entries_with_e_summand()]
    model = build_period_model()
    grams += [glue_unimodular_26_2(model).lattice.gram, model.core_lattice.gram]
    rng = random.Random(53)
    for label in ("A2+U", "E6+U", "D5+A3", "A1+A1+U+U", "E8"):
        grams.append(_skewed(rng, direct_sum(*map(standard_lattice, label.split("+"))).gram))
    for _ in range(200):
        n = rng.randint(1, 12)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.3:
                    g[i][j] = g[j][i] = rng.randint(-5, 5)
        if rng.random() < 0.3:  # degenerate: the first basis vector repeated
            g.append(list(g[0]))
            for r, x in zip(g, g[0] + [g[0][0]]):
                r.append(x)
        grams.append(g)
    return grams


def test_symmetric_bareiss_equals_the_every_entry_elimination():
    """Skipping the zeros of a row that does not meet the pivot changes nothing: the
    same pivots, rows and nullity as the every-entry loop, on diagonal, block-diagonal
    and zero-diagonal Grams (U, U+U), the six glued Niemeier Grams, II_{26,2}, and
    seeded skewed, indefinite and degenerate ones."""
    grams = _bareiss_oracle_grams()
    outcomes = [every_entry_symmetric_bareiss(g) for g in grams]
    assert [symmetric_bareiss(g) for g in grams] == outcomes
    assert {nullity > 0 for _, _, nullity in outcomes} == {False, True}
    assert {pivot_signature(p, k)[1] > 0 for p, _, k in outcomes} == {False, True}


def test_rational_inverse_and_solve():
    # a row swap flips the sign of the last Bareiss pivot
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if det(a) == 0:
            continue
        inv = rational_inverse(a)
        prod = intlinalg.mat_mul(a, inv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)
        # A x = b solved in integers: det(A) x = adj(A) b
        b = [rng.randint(-5, 5) for _ in range(n)]
        d, adj = adjugate(a)
        assert d == det(a)
        assert intlinalg.mat_vec(a, intlinalg.mat_vec(adj, b)) == [d * v for v in b]


_ENTRIES = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        a[-1] = [x + y for x, y in zip(a[0], a[1 % (n - 1)])]  # a singular matrix
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_square_matrices())
def test_rational_inverse_matches_sympy(a):
    """Differential oracle: sympy's Matrix.inv, det and adjugate, or ValueError exactly
    when det A = 0. `adjugate` runs on A cleared to integers by its common denominator."""
    n = len(a)
    m = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])
    s = lcm(*(x.denominator for row in a for x in row))
    scaled = [[int(x * s) for x in row] for row in a]
    if m.det() == 0:
        with pytest.raises(ValueError):
            rational_inverse(a)
        with pytest.raises(ValueError):
            adjugate(scaled)
        return
    inv = rational_inverse(a)
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    expected = m.inv()
    assert [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in inv] == \
        expected.tolist()
    # sA has det s^n det A and adjugate det(sA) (sA)^-1 = s^(n-1) det(A) A^-1
    d, adj = adjugate(scaled)
    assert d == s ** n * m.det()
    assert adj == (s ** (n - 1) * m.det() * expected).tolist()
    assert all(type(x) is int for row in adj for x in row)


def _entries(rng, kind, n, m):
    if kind == "int":
        return random_matrix(rng, n, m, bound=9)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
            for _ in range(n)]


def _sympy_rows(a, ncols):
    return sympy.Matrix(len(a), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in a for x in row])


def _as_sympy_list(rows):
    return [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]


# (n, k, m): an n x k times a k x m matrix. A k x 0 matrix is k empty rows, and a
# 0 x m one is [], so its column count is lost: a product with a k x 0 factor on
# the left is compared only when m = 0 as well.
_SHAPES = [(0, 3, 2), (2, 3, 0), (3, 0, 0), (1, 1, 1), (3, 4, 2), (4, 1, 3), (5, 5, 5)]


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("n,k,m", _SHAPES)
def test_mat_mul_and_mat_vec_match_sympy(kind, n, k, m):
    rng = random.Random(97 * n + 13 * k + m)
    for _ in range(5):
        a, b = _entries(rng, kind, n, k), _entries(rng, kind, k, m)
        v = _entries(rng, kind, 1, k)[0]
        product_ = intlinalg.mat_mul(a, b)
        assert _as_sympy_list(product_) == (_sympy_rows(a, k) * _sympy_rows(b, m)).tolist()
        assert len(product_) == n and all(len(row) == m for row in product_)
        image = intlinalg.mat_vec(a, v)
        assert _as_sympy_list([image])[0] == list(_sympy_rows(a, k) * _sympy_rows([v], k).T)
        if kind == "int":
            assert all(type(x) is int for row in product_ for x in row)


def _zip_sum_mat_mul(a, b):
    """The product as one dot product per row-column pair: the reference body."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _sparse(rng, n, m, density, kind):
    def entry():
        if rng.random() >= density:
            return 0
        x = rng.choice([c for c in range(-9, 10) if c])
        return Fraction(x, rng.randint(1, 5)) if kind == "fraction" else x
    return [[entry() for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_mat_mul_matches_the_zip_sum_product(kind):
    """Seeded: sparse, dense, rectangular and zero-width factors, int or Fraction
    entries, including rows of a with no nonzero entry; the scaled-row product
    equals the one that takes a dot product for every row-column pair."""
    rng = random.Random(1811 if kind == "int" else 1812)
    shapes = [(24, 24, 24), (7, 3, 11), (1, 9, 2), (5, 1, 5), (4, 6, 0), (3, 0, 0), (0, 4, 3)]
    for n, k, m in shapes:
        for density in (0.0, 0.1, 0.35, 0.9, 1.0):
            a, b = _sparse(rng, n, k, density, kind), _sparse(rng, k, m, density, kind)
            product_ = intlinalg.mat_mul(a, b)
            assert product_ == _zip_sum_mat_mul(a, b)
            assert len(product_) == n and all(len(row) == m for row in product_)
            if kind == "int":
                assert all(type(x) is int for row in product_ for x in row)
    a = _sparse(rng, 6, 6, 0.5, kind)
    assert intlinalg.mat_mul(a, intlinalg.identity(6)) == a == intlinalg.mat_mul(
        intlinalg.identity(6), a)


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_lattice_inner_matches_sympy(kind, n):
    from cf_lattice import Lattice

    rng = random.Random(211 + n)
    for _ in range(5):
        a = random_matrix(rng, n, n, bound=5)
        lat = Lattice(tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n)))
        x, y = (tuple(_entries(rng, kind, 1, n)[0]) for _ in range(2))
        if n:  # zero coordinates are skipped: make sure some occur
            x = (0,) + x[1:]
        g = sympy.Matrix(n, n, [e for row in lat.gram for e in row])
        expected = (_sympy_rows([x], n) * g * _sympy_rows([y], n).T)[0, 0] if n else 0
        assert lat.inner(x, y) == expected
        assert lat.norm(x) == ((_sympy_rows([x], n) * g * _sympy_rows([x], n).T)[0, 0]
                               if n else 0)
