"""Exact linear algebra over Q and over Q[g].

Small dense matrices only.  Entries are Fractions (after specializing g)
or ParamPoly (symbolic in g).  Ranks and determinants share one
fraction-free Bareiss elimination, so every intermediate division is
exact; the callers differ only in which pivots they accept.  Generic ranks
and determinants take any nonzero pivot; certified symbolic ranks insist on
pivots that provably never vanish at integers g >= 0, and raise when no
such pivot can be found rather than report a rank that might drop.
"""

from __future__ import annotations

from .ring import ParamPoly


def _poly_rows(rows):
    return [[ParamPoly.coerce(x) for x in row] for row in rows]


def _eliminate(rows, usable):
    """Fraction-free Gaussian elimination (Bareiss); (rank, sign, pivot).

    Entries may be ParamPoly, Fraction or int.  Each step takes the first
    column, in order, with an entry accepted by usable in a row not yet
    used, swaps that row up and updates every non-pivot column by exact
    division by the previous pivot.  After k steps each entry is the
    (k+1)-minor on the pivot rows and columns plus its own row and column,
    so the divisions are exact and the last pivot is the leading minor.
    sign is the parity of the row swaps.  Raises ValueError when nonzero
    entries remain but none is usable.
    """
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    m = _poly_rows(rows)
    free_cols = list(range(len(m[0]) if m else 0))
    rank, sign, prev = 0, 1, ParamPoly.const(1)
    while rank < len(m):
        pick = next(((i, c) for c in free_cols
                     for i in range(rank, len(m)) if usable(m[i][c])), None)
        if pick is None:
            leftovers = [p for row in m[rank:] for p in row if p]
            if leftovers:
                raise ValueError(
                    "no certified pivot among remaining entries: "
                    + ", ".join(str(p) for p in leftovers[:4]))
            break
        i, col = pick
        if i != rank:
            m[rank], m[i] = m[i], m[rank]
            sign = -sign
        top = m[rank]
        piv = top[col]
        free_cols.remove(col)
        for row in m[rank + 1:]:
            f = row[col]
            for j in free_cols:  # zero products need no arithmetic
                if f and top[j]:
                    row[j] = (piv * row[j] - f * top[j]).exact_div(prev)
                elif row[j]:
                    row[j] = (piv * row[j]).exact_div(prev)
            row[col] = ParamPoly()
        prev = piv
        rank += 1
    return rank, sign, prev


def rank_fraction(rows):
    """Rank over the fraction field: of Q, or of Q(g) for ParamPoly entries.

    Any nonzero pivot is accepted, so for ParamPoly entries this is the
    generic rank, which may drop at particular values of g.
    """
    return _eliminate(rows, bool)[0]


def bareiss_det(rows):
    """Determinant of a square ParamPoly matrix, fraction-free."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last = _eliminate(rows, bool)
    if rank < len(rows):
        return ParamPoly()
    return last if sign > 0 else -last


def solve_cramer(rows, rhs):
    """Solve A x = b symbolically; returns (numerators, denominator).

    x_j = numerators[j] / denominator as rational functions of g.  The
    solution is re-verified exactly: A . numerators == denominator * b.
    Raises ValueError when det(A) is the zero polynomial.
    """
    a = _poly_rows(rows)
    b = [ParamPoly.coerce(x) for x in rhs]
    n = len(a)
    if len(b) != n or any(len(r) != n for r in a):
        raise ValueError("need square A and matching b")
    den = bareiss_det(a)
    if den.is_zero():
        raise ValueError("singular system: determinant is identically zero")
    nums = []
    for j in range(n):
        col_swapped = [[b[i] if jj == j else a[i][jj] for jj in range(n)]
                       for i in range(n)]
        nums.append(bareiss_det(col_swapped))
    for i in range(n):
        lhs = ParamPoly()
        for j in range(n):
            lhs = lhs + a[i][j] * nums[j]
        if lhs != den * b[i]:
            raise AssertionError("Cramer verification failed")
    return nums, den


def param_rank(rows):
    """Rank of a ParamPoly matrix, valid at every integer g >= 0.

    Fraction-free elimination choosing only pivots that provably never
    vanish at a nonnegative integer (no such root exists).  The k-th
    pivot is a k-minor, so at every such g the rank is at least k, and
    once the remaining entries vanish identically it is exactly the number
    of pivots.  When nonzero entries remain but none can serve as a
    certified pivot, raises ValueError rather than guess: a rank it cannot
    prove is a failed certificate, never a sampled one.
    """
    return _eliminate(rows, ParamPoly.nonvanishing_for_nonneg_g)[0]
