"""Exact rational feasibility for linear systems over nonnegative variables.

Verdicts are never taken from floating point.  The exact route is a phase-1
simplex on integer rows, run on the system's Farkas alternative: that system
has one row per column, so the tall, thin separation systems pivot a short
tableau, and either outcome yields a feasible point or a Farkas certificate
of the original system.  Systems whose tableau is below a size threshold
take the exact route directly.  Larger ones are probed with scipy's HiGHS
solver first, and only for a feasible point: HiGHS's point is rounded once
and kept only if it satisfies every row in exact arithmetic.  Every other
outcome, an infeasible probe included, goes to the exact route, whose
answers are checked the same way.

Results stay in integers: a point or a certificate is a list of integer
numerators over one positive denominator, and both checks read that form.
:class:`LPResult` builds its ``Fraction`` view (``x`` or ``farkas``) only
when someone reads it.

Rows are integer ``<=`` or ``>=`` rows; :meth:`LinearSystem.add` turns an
equality into that pair.  Internally a ``>=`` row is negated into ``<=``
form, so every ``A x <= b`` row is one original row.  A Farkas certificate
is then ``u >= 0``, one multiplier per row, with ``u^T A >= 0``
componentwise and ``u^T b < 0``: for any ``x >= 0`` it forces
``0 <= (u^T A) x = u^T(Ax) <= u^T b < 0``.

Systems that share their leading rows (one game asked many separation
questions) share them as a :class:`RowBlock`, normalised once; each solve
then normalises, and transposes for the alternative, only the rows after it.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import mul as _mul
from typing import Sequence

LEQ, EQ, GEQ = -1, 0, 1

_EXACT_SIZE_LIMIT = 6_000  # exact tableau cells below this: skip the float pass

_Row = tuple[Sequence[int], int, int]  # coefficients, sense (LEQ or GEQ), rhs
_IntRow = tuple[Sequence[int], int]  # a <= row: coefficients, rhs


def _normalise(rows: Sequence[_Row]) -> list[_IntRow]:
    """``rows`` in <= form: a GEQ row negated."""
    out: list[_IntRow] = []
    for a, sense, b in rows:
        if sense == LEQ:
            out.append((a, b))
        elif sense == GEQ:
            out.append(([-c for c in a], -b))
        else:
            raise ValueError(f"bad sense {sense}")
    return out


def _dense(np, leq: Sequence[_IntRow], width: int):
    """Float matrix and right-hand side of integer <= rows over ``width`` columns."""
    a_mat = np.array([a for a, _ in leq], dtype=float)
    return a_mat.reshape(len(leq), width), np.array([b for _, b in leq], dtype=float)


def _transpose(leq: Sequence[_IntRow], width: int) -> tuple[list[list[int]], list[int]]:
    """The alternative's view of integer <= rows: each of the ``width``
    columns negated, and the right-hand sides."""
    cols = [[-c for c in col] for col in zip(*(a for a, _ in leq))] or [[] for _ in range(width)]
    return cols, [b for _, b in leq]


def _over_one_den(vals: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = _math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


@dataclass(frozen=True, eq=False)
class LPResult:
    """Verdict with its witness as integer numerators ``nums`` over one
    positive denominator ``den``: the point when feasible, else one ``>= 0``
    multiplier per row.  ``x`` and ``farkas`` are the same witness in
    Fractions, built when first read; two results are equal when their
    verdict, their witness and their path are."""

    feasible: bool
    nums: Sequence[int]
    den: int = 1
    exact_path: bool = True

    def _fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @cached_property
    def x(self) -> tuple[Fraction, ...] | None:
        return self._fractions() if self.feasible else None

    @cached_property
    def farkas(self) -> tuple[Fraction, ...] | None:
        return None if self.feasible else self._fractions()

    def _key(self):
        return self.feasible, self._fractions(), self.exact_path

    def __eq__(self, other) -> bool:
        return isinstance(other, LPResult) and self._key() == other._key()


class RowBlock:
    """Leading integer rows shared by many systems, normalised to ``<=``
    form once; a row's sense is ``LEQ`` or ``GEQ``.

    ``width`` is the column count of the systems sharing the rows.  The
    dense float copy of the rows and their transposed view for the exact
    route's alternative are each made on the first solve that needs them,
    so a solve never pays for the other route's copy.
    """

    def __init__(self, rows: list[_Row], width: int):
        self.rows = rows
        self.width = width
        self.leq = _normalise(rows)
        self._dense = None
        self._alt = None

    def dense(self, np):
        if self._dense is None:
            self._dense = _dense(np, self.leq, self.width)
        return self._dense

    def alternative(self) -> tuple[list[list[int]], list[int]]:
        """:func:`_transpose` of the rows."""
        if self._alt is None:
            self._alt = _transpose(self.leq, self.width)
        return self._alt


@dataclass
class LinearSystem:
    """Rows ``coeffs . x  (<=, >=)  rhs`` over ``x >= 0``, in integers.

    ``rows`` holds every row; its senses are ``LEQ`` and ``GEQ``, and
    :meth:`add` stores an equality as its ``LEQ`` row then its ``GEQ`` row.
    ``rows`` starts with ``block.rows`` and only the rows after them are
    normalised per solve; a system built without a block gets an empty one.
    The exact checks read every row of ``rows``.
    """

    num_vars: int
    rows: list[_Row] = field(default_factory=list)
    block: RowBlock = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.block = self.block or RowBlock([], self.num_vars)

    def add(self, coeffs: Sequence[int], sense: int, rhs: int) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        if any(type(v) is not int for v in (*coeffs, rhs)):
            raise ValueError("rows take int coefficients and an int right-hand side")
        coeffs = tuple(coeffs)
        if sense == EQ:
            self.rows += [(coeffs, LEQ, rhs), (coeffs, GEQ, rhs)]
        elif sense in (LEQ, GEQ):
            self.rows.append((coeffs, sense, rhs))
        else:
            raise ValueError(f"bad sense {sense}")

    # -- normalisation ------------------------------------------------------

    def _leq_rows(self) -> list[_IntRow]:
        """Rows in <= form: the block's, normalised once, then the others."""
        return self.block.leq + _normalise(self.rows[len(self.block.rows):])

    def _alternative(self, leq: list[_IntRow]) -> tuple[list[list[int]], list[int]]:
        """:func:`_transpose` of ``leq``, the block's part taken from its cache."""
        head_cols, head_rhs = self.block.alternative()
        cols, rhs = _transpose(leq[len(self.block.leq):], self.num_vars)
        return [h + t for h, t in zip(head_cols, cols)], head_rhs + rhs

    def check_point(self, x: Sequence[Fraction | int], den: int | None = None) -> bool:
        """Exact check that the point satisfies every row: ``x`` holds integer
        numerators over ``den``, or rationals when ``den`` is omitted."""
        if den is None:
            x, den = _over_one_den(x)
        if len(x) != self.num_vars or den <= 0 or any(v < 0 for v in x):
            return False
        # rows against the numerators: integer rows stay in integers
        for a, sense, b in self.rows:
            lhs = sum(map(_mul, a, x))
            rhs = b * den
            if (lhs > rhs) if sense == LEQ else (lhs < rhs):
                return False
        return True

    def check_farkas(self, u: Sequence[Fraction | int], den: int | None = None) -> bool:
        """Exact check of a certificate of infeasibility, one ``>= 0``
        multiplier per row, given like the point of :meth:`check_point`."""
        if den is None:
            u, den = _over_one_den(u)
        if len(u) != len(self.rows) or den <= 0:
            return False
        # the certificate scaled by den: integer rows stay in integers
        combo = [0] * self.num_vars
        rhs = 0
        for (a, sense, b), k in zip(self.rows, u):
            if k < 0:
                return False
            if not k:
                continue
            if sense == GEQ:
                k = -k  # orient the row as <=
            combo = [s + k * c for s, c in zip(combo, a)]
            rhs += k * b
        # sum u_r (a_r x - b_r) over oriented rows is <= 0 for feasible x;
        # certificate forces it > 0
        return all(c >= 0 for c in combo) and rhs < 0

    # -- solving -------------------------------------------------------------

    def solve(self) -> LPResult:
        leq = self._leq_rows()
        if _tableau_size(self.num_vars, len(leq)) > _EXACT_SIZE_LIMIT:
            res = self._solve_float(leq)
            if res is not None:
                return res
        feasible, nums, den = _solve_alternative(self._alternative(leq))
        if feasible:
            if not self.check_point(nums, den):
                raise AssertionError("exact simplex returned a bad point")
        elif not self.check_farkas(nums, den):
            raise AssertionError("exact simplex returned a bad certificate")
        return LPResult(feasible, nums, den)

    def _solve_float(self, leq) -> LPResult | None:
        """A HiGHS point rounded to denominators of at most 10**4, if it
        passes :meth:`check_point`; None for any other outcome, which the
        exact route then decides."""
        try:
            import numpy as np
            from scipy.optimize import linprog
        except ImportError:  # pragma: no cover
            return None
        a_head, b_head = self.block.dense(np)
        a_tail, b_tail = _dense(np, leq[len(self.block.leq):], self.num_vars)
        a_mat, b_vec = np.vstack((a_head, a_tail)), np.concatenate((b_head, b_tail))
        probe = linprog(
            np.zeros(self.num_vars), A_ub=a_mat, b_ub=b_vec,
            bounds=(0, None), method="highs",
        )
        if probe.status != 0:
            return None
        nums, den = _over_one_den([Fraction(v).limit_denominator(10**4) for v in probe.x])
        return LPResult(True, nums, den, exact_path=False) if self.check_point(nums, den) else None


# -- exact phase-1 simplex ----------------------------------------------------
#
# The tableau is kept as integer rows with one positive denominator each
# (value = num/den): pivoting is then cross-multiplication on machine-sized
# ints with a gcd cleanup, an order of magnitude faster than Fraction cells.
# Ratio tests compare rhs/coef within a row, where the denominator cancels.


def _row_gcd_reduce(nums: list[int], den: int) -> int:
    g = den
    for v in nums:
        if v:
            g = _math.gcd(g, v)
            if g == 1:
                return den
    if g > 1:
        nums[:] = [v // g for v in nums]
        den //= g
    return den


def _simplex_phase1(num_vars: int, leq_rows: Sequence[_IntRow]) -> tuple[bool, list[int], int]:
    """Feasibility of ``A x <= b, x >= 0`` with exact arithmetic.

    Returns ``(True, x, den)`` for the point ``x / den``, or
    ``(False, u, den)`` where ``u / den`` are nonnegative multipliers
    with ``u^T A >= 0`` and ``u^T b < 0``; ``den`` is positive.
    """
    rows = len(leq_rows)
    if rows == 0:
        return True, [0] * num_vars, 1
    tableau, dens, basis = _phase1_tableau(num_vars, leq_rows)
    width = len(tableau[0]) - 1
    art_base = num_vars + rows
    infeasible = any(
        basis[r] >= art_base and tableau[r][width] != 0 for r in range(rows)
    )
    if not infeasible:
        basic = [r for r in range(rows) if basis[r] < num_vars]
        den = _math.lcm(*(dens[r] for r in basic))
        x = [0] * num_vars
        for r in basic:
            x[basis[r]] = tableau[r][width] * (den // dens[r])
        return True, x, den

    # infeasible: for both row kinds the <=-form multiplier is the reduced
    # cost of the row's slack/surplus column (kept: u = -y, rc = -y;
    # flipped: u = +y, rc = +y); phase-1 optimality makes them >= 0.
    return False, tableau[rows][num_vars:num_vars + rows], dens[rows]


def _phase1_tableau(
    num_vars: int, leq_rows: Sequence[_IntRow]
) -> tuple[list[list[int]], list[int], list[int]]:
    """Phase 1 pivoted to optimality on at least one row: the final tableau
    (one integer row per input row, then the reduced-cost row, each ending
    in its rhs), each row's denominator and the basic column of each row.
    Columns are the variables, one slack/surplus per row, then one
    artificial per row with a negative rhs."""
    rows = len(leq_rows)
    flipped = [b < 0 for _, b in leq_rows]
    n_art = sum(flipped)
    slack_base = num_vars
    art_base = num_vars + rows
    width = num_vars + rows + n_art

    tableau: list[list[int]] = []
    dens: list[int] = [1] * (rows + 1)
    basis: list[int] = []
    next_art = art_base
    for r, (a, b) in enumerate(leq_rows):
        if flipped[r]:
            row = [-c for c in a] + [0] * (rows + n_art) + [-b]
            row[slack_base + r] = -1  # surplus
            row[next_art] = 1
            basis.append(next_art)
            next_art += 1
        else:
            row = list(a) + [0] * (rows + n_art) + [b]
            row[slack_base + r] = 1  # slack
            basis.append(slack_base + r)
        tableau.append(row)

    # reduced-cost row for  min sum(artificials):  rc = -sum(artificial rows),
    # zero on the artificial columns; it is pivoted as tableau row `rows`
    rc = [-sum(col) for col in zip(*(row for row, f in zip(tableau, flipped) if f))] or [0] * (width + 1)
    rc[art_base:width] = [0] * n_art
    tableau.append(rc)

    # pivot algebra on per-row integer vectors: subtracting
    # (T_r[e]/den_r) / (piv/den_p) times the pivot row gives
    #   new_T_r[j] = T_r[j]*piv - T_r[e]*P[j],   new_den_r = den_r*piv
    # (den_p cancels), and the normalised pivot row is P[j]/piv.
    iteration = 0
    bland_after = 4 * (rows + width)
    while True:
        iteration += 1
        rc = tableau[rows]
        enter = -1
        if iteration <= bland_after:
            best = min(rc[:width])
            if best < 0:
                enter = rc.index(best)  # first most negative
        else:
            enter = next((j for j in range(width) if rc[j] < 0), -1)
        if enter < 0:
            break
        col = [row[enter] for row in tableau]
        leave = -1
        best_num = best_coef = 0  # ratio = rhs/coef; the row den cancels
        for r, coef in enumerate(col[:rows]):
            if coef > 0:
                rhs = tableau[r][width]
                if leave < 0:
                    better = True
                else:
                    lhs = rhs * best_coef
                    rhs_cmp = best_num * coef
                    better = lhs < rhs_cmp or (lhs == rhs_cmp and basis[r] < basis[leave])
                if better:
                    leave = r
                    best_num, best_coef = rhs, coef
        if leave < 0:
            raise AssertionError("unbounded phase-1 simplex")
        # The choices above are invariant under scaling a row by a positive
        # factor.  Dividing the pivot row by its gcd often leaves a unit
        # pivot, which only adds multiples of its nonzero entries; other
        # pivots rescale whole rows, which are then reduced.
        prow = tableau[leave]
        common = _math.gcd(*prow)
        if common > 1:
            prow = tableau[leave] = [p // common for p in prow]
        piv = prow[enter]
        support = [(j, p) for j, p in enumerate(prow) if p]
        for r, factor in enumerate(col):
            if factor and r != leave:
                trow = tableau[r]
                if piv == 1:
                    for j, p in support:
                        trow[j] -= factor * p
                else:
                    trow = tableau[r] = [t * piv - factor * p for t, p in zip(trow, prow)]
                    dens[r] = _row_gcd_reduce(trow, dens[r] * piv)
        dens[leave] = _row_gcd_reduce(prow, piv)
        basis[leave] = enter
    return tableau, dens, basis


# -- the Farkas alternative ---------------------------------------------------
#
# By Farkas' lemma  A x <= b, x >= 0  is infeasible exactly when
# -A^T u <= 0, b^T u <= -1, u >= 0  is feasible.  That system has one row
# per column of A, so on a tall system the simplex above pivots (columns + 2)
# short rows instead of (rows + 1) long ones.


def _tableau_size(num_vars: int, rows: int) -> int:
    """Cells of the tableau that :func:`_solve_alternative` pivots for
    ``rows`` <= rows over ``num_vars`` columns."""
    return (num_vars + 1) * (rows + num_vars + 2)


def _solve_alternative(alt: tuple[list[list[int]], list[int]]) -> tuple[bool, list[int], int]:
    """Same contract as :func:`_simplex_phase1`, solved on the alternative.

    ``alt`` is :func:`_transpose` of the integer ``<=`` rows: the
    alternative's rows are their negated columns and the rhs.  A feasible
    ``u`` is a certificate over the rows.  An infeasible alternative comes
    with multipliers ``(y, z)``, ``y >= 0``, where ``-A y + z b >= 0`` and
    ``-z < 0``: the point is ``y`` over ``z``.
    """
    cols, rhs = alt
    alt_rows = [(col, 0) for col in cols]
    alt_rows.append((rhs, -1))
    alt_feasible, nums, den = _simplex_phase1(len(rhs), alt_rows)
    if alt_feasible:
        return False, nums, den
    *y, z = nums
    return True, y, z
