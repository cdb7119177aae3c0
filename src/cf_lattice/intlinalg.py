"""Exact integer and rational linear algebra.

Everything here works over Python ints and fractions.Fraction; no floating
point. Matrices are sequences of equal-length rows; functions return new
list-of-list matrices and never mutate their arguments.

One integer elimination loop, `_echelon` (Euclid down each column with the
smallest entry as pivot), serves `hnf`, `kernel` and the Smith form; the
Smith form (`smith_form`) is alternating row and column Hermite normal forms
(Kannan-Bachem), not a loop of its own, and each divisibility fix-up runs one
row and one column pass on the 2x2 block it touches. Column passes carry Q.
Row passes carry P only for the caller that reads it (`smith_normal_form`);
`discriminant_data` reads d and Q alone, and there a row pass is the Hermite
form of M padded with zero rows, so a zero invariant factor of singular or
non-square input survives. Inverses come from one fraction-free (Bareiss)
Gauss-Jordan loop, `adjugate`, which returns (det A, adj A) in integers;
`rational_inverse` is its Fraction view and the one place here that builds
Fractions. `det` is the forward half of the same elimination, without the
right block. Symmetric matrices have one fraction-free
elimination of their own, `symmetric_bareiss` (LDL^T with the leading minors
as pivots); `Lattice.det`, `Lattice.signature` (through `pivot_signature`)
and the Fincke-Pohst walk in `roots` read it.
`mat_mul` adds up scaled rows of its right factor over the nonzero entries
of each left row, because the Grams, bases and transforms multiplied here
are mostly zero.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product; works for int or Fraction entries.

    Row i of the product is the sum of the rows of b, row k scaled by a_ik,
    over the nonzero a_ik only: the Grams and bases multiplied here are
    mostly zero, so a sparse row costs a few row updates instead of one dot
    product per column. A row of a with no nonzero entry gives int zeros.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _echelon(rows) -> tuple[Matrix, list[tuple[int, int]]]:
    """Row echelon form over Z by gcd row operations; zero rows stay at the bottom.

    Returns a new matrix and its (row, column) pivots in increasing order;
    every pivot is positive and everything below it is zero.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row == len(m):
            break
        live = [i for i in range(row, len(m)) if m[i][col]]
        if not live:
            continue
        # Euclid on the whole column, the smallest entry as pivot each round,
        # keeps the multipliers small; pairwise Euclid of the pivot row against
        # one row at a time grows the other columns to tens of thousands of
        # digits on a skewed rank-40 Gram.
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(m[i][col]))
            p = m[piv]
            for i in live:
                if i != piv:
                    q = m[i][col] // p[col]
                    m[i] = [x - q * y for x, y in zip(m[i], p)]
            live = [i for i in live if i == piv or m[i][col]]
        m[row], m[live[0]] = m[live[0]], m[row]
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
        pivots.append((row, col))
        row += 1
    return m, pivots


def hnf(rows) -> Matrix:
    """Row-style Hermite normal form of the row space.

    Returns the nonzero rows: pivots positive, entries above each pivot
    reduced into [0, pivot). Canonical for the row span over Z.
    """
    m, pivots = _echelon(rows)
    # reduce entries above each pivot, in increasing pivot order: pivot rows
    # have zeros at all earlier pivot columns, so no step re-breaks a column
    for r, c in pivots:
        p = m[r][c]
        for i in range(r):
            q = m[i][c] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    return [m[r] for r, _ in pivots]


def kernel(rows) -> Matrix:
    """Basis of the integral right kernel {x : M x = 0}, saturated and in HNF."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    # Row-reduce [M^T | I]; rows whose M^T-part vanishes record kernel vectors.
    aug = [[m[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
           for j in range(ncols)]
    reduced, _ = _echelon(aug)
    ker = [r[nrows:] for r in reduced if not any(r[:nrows])]
    return hnf(ker)


def det(a) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a) -> int:
    """The pivot count of the echelon form: no reduction above the pivots is needed."""
    return len(_echelon(a)[1])


def _hermite_pass(m, t) -> tuple[Matrix, Matrix | None]:
    """Row HNF of m, carrying the transform t alongside it unless t is None.

    With t: the HNF of [m | t] split back at m's width; t is unimodular or m
    is square nonsingular, so no row is lost. Without: the HNF of m padded
    with zero rows back to m's height, which is the left block of the other
    (the rows of HNF([m | t]) pivoting in t are zero on m, and the others
    are the Hermite form of m's row lattice, which is unique).
    """
    if t is None:
        h = hnf(m)
        return h + [[0] * len(m[0]) for _ in range(len(m) - len(h))], None
    width = len(m[0])
    h = hnf([r + s for r, s in zip(m, t)])
    return [r[:width] for r in h], [r[width:] for r in h]


def smith_normal_form(a) -> tuple[list[int], Matrix, Matrix]:
    """Smith normal form with transforms: P*A*Q = diag(d), d_i >= 0, d_i | d_{i+1}.

    P and Q are unimodular and zeros come last. The loop is `smith_form`
    with P carried: column passes carry Q and row passes carry P, as the
    row HNF of [M | P]. `smith_form` without P gives the same d and Q.
    """
    return smith_form(a, carry_p=True)


def smith_form(a, carry_p: bool) -> tuple[list[int], Matrix | None, Matrix]:
    """(d, P, Q) as `smith_normal_form` returns them, P None unless `carry_p`.

    Alternating Hermite reduction (Kannan-Bachem, SIAM J. Comput. 8, 1979;
    Cohen, GTM 138, 2.4.4): the row HNF of M, then the row HNF of
    [M^T | Q^T], until M is diagonal. Column passes always carry Q; row
    passes carry P, as the row HNF of [M | P], only with `carry_p`. Without
    P a row pass is `hnf` of M padded with zero rows, the left block of the
    pass with P, so d and Q are the same either way; the zero rows keep a
    zero invariant factor on singular or non-square input, which `hnf`
    alone would drop. Each pass is `hnf`, which reduces the entries above
    its pivots, and the leading pivot of the unfinished block only ever
    shrinks to a proper divisor, so the loop ends.
    If d_i does not divide d_{i+1}, column i+1 is added to column i, which
    leaves the 2x2 block [[d_i, 0], [d_{i+1}, d_{i+1}]] on rows and columns
    i, i+1, and one row pass and one column pass run on that block alone, the
    row pass carrying rows i, i+1 of P (if carried) and the column pass
    columns i, i+1 of Q. The row pass gives [[g, x], [0, y]] with
    g = gcd(d_i, d_{i+1}), which divides x, so the column pass leaves
    diag(g, y). Then the divisibility is scanned again from d_0.
    On square nonsingular input this is exactly the full-width loop that runs
    both passes over all of [M | P] and [M^T | Q^T] again: with M diagonal but
    for (i+1, i), every other row and column of M holds one nonzero entry and
    every pivot of a full pass lies in M, so a full pass only touches rows (or
    columns) i and i+1, and does to them what the block pass does. On singular
    or non-square input a full pass would also pivot inside P or Q and reduce
    rows i, i+1 against those pivots, so P and Q can differ from the
    full-width loop's while meeting the same contract.
    """
    m = [list(r) for r in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    p, q = identity(nrows) if carry_p else None, identity(ncols)
    if not nrows or not ncols:
        return [], p, q
    while True:
        m, p = _hermite_pass(m, p)
        mt, qt = _hermite_pass(transpose(m), transpose(q))
        m, q = transpose(mt), transpose(qt)
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(m)):
            break
    d = [m[i][i] for i in range(min(nrows, ncols))]
    while True:
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            return d, p, q
        j = i + 1
        block, pij = _hermite_pass([[d[i], 0], [d[j], d[j]]],
                                   None if p is None else [p[i], p[j]])
        if p is not None:
            p[i], p[j] = pij
        qt = [[row[i] + row[j] for row in q], [row[j] for row in q]]
        block, qt = _hermite_pass(transpose(block), qt)
        for row, x, y in zip(q, *qt):
            row[i], row[j] = x, y
        d[i], d[j] = block[0][0], block[1][1]


def adjugate(a) -> tuple[int, Matrix]:
    """(det A, adj A) of a square nonsingular integer matrix; adj A = det A * A^-1.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [A | I], every
    division by the previous pivot exact. It ends with the last pivot p on
    every diagonal entry of the left block and p * A^-1 in the right block,
    and p is det A up to the sign of the row swaps.
    Raises ValueError if the matrix is singular.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot_row = m[col]
        p = pivot_row[col]
        for i in range(n):
            if i != col:
                row = m[i]
                c = row[col]
                m[i] = [(p * x - c * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def rational_inverse(a) -> list[list[Fraction]]:
    """Inverse of a square nonsingular matrix of ints or Fractions, exact Fractions.

    The entries are cleared to integers by one common denominator s, and
    A^-1 = s * adj(sA) / det(sA). Raises ValueError if the matrix is singular.
    """
    s = lcm(*(x.denominator for row in a for x in row))
    d, adj = adjugate([[int(x * s) for x in row] for row in a])
    return [[Fraction(x * s, d) for x in row] for row in adj]


def symmetric_bareiss(gram) -> tuple[list[int], Matrix, int]:
    """Fraction-free symmetric elimination (Bareiss LDL^T) of an integer symmetric matrix.

    Pivots on the first remaining index with a nonzero diagonal entry. When
    every remaining diagonal entry is zero but an off-diagonal one is not,
    the congruence x_i -> x_i + x_j makes the diagonal entry 2 a_ij and
    pivots on i. Returns (pivots, rows, nullity): the pivots are the leading
    minors D_1..D_r of the congruent matrix in pivot order, rows[k] is the
    integer row of pivot k when it is taken (zero at the earlier pivots,
    D_k at its own index), and nullity = n - r. Every division is by the
    previous pivot and exact (Bareiss, Math. Comp. 22, 1968). A step updates
    only the remaining rows and columns, and only one entry of each
    symmetric pair. A positive definite matrix pivots in its natural order:
    with l_ij = rows[i][j] / D_i and d_i = D_i / D_(i-1), it is
    L^T diag(d) L.
    """
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
        # the columns of earlier pivots are zero in the rows left and stay zero, and
        # the active block stays symmetric: each entry is computed once and mirrored
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


def pivot_signature(pivots, nullity: int) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) from the pivots of `symmetric_bareiss`.

    Pivot k of the LDL^T form is D_k / D_(k-1), so it is negative exactly
    where 1, D_1, ..., D_r change sign.
    """
    neg = sum((a < 0) != (b < 0) for a, b in zip([1] + pivots, pivots))
    return len(pivots) - neg, neg, nullity
