"""Exact rational feasibility for linear systems over nonnegative variables.

Verdicts are never taken from floating point.  Systems below a size threshold
go straight to an exact simplex over ``fractions.Fraction``.  Larger systems
are probed with scipy's HiGHS solver first, but a float answer only counts
once its witness survives exact verification: a feasible point is rationalised
and substituted into every row, an infeasibility claim must come with dual
multipliers that pass an exact Farkas check.  Anything that fails verification
falls back to the exact simplex, which also produces Farkas certificates.

Internally every system is normalised to ``A x <= b`` rows (equalities are
split).  A Farkas certificate is then ``u >= 0`` with ``u^T A >= 0``
componentwise and ``u^T b < 0``: for any ``x >= 0`` it forces
``0 <= (u^T A) x = u^T(Ax) <= u^T b < 0``.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

LEQ, EQ, GEQ = -1, 0, 1

_EXACT_SIZE_LIMIT = 6_000  # rows * columns below this: skip the float pass
_FLOAT_TOL = 1e-9
_DENOM_LADDER = (10**4, 10**8, 10**12)

_IntRow = tuple[list[int], int, int]  # a <= row times its scale, and the scale


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    x: tuple[Fraction, ...] | None = None
    # multiplier per original row; orientation: >=0 for the row's own sense,
    # signed for equality rows
    farkas: tuple[Fraction, ...] | None = None
    exact_path: bool = True


@dataclass
class LinearSystem:
    """Rows ``coeffs . x  (<=, =, >=)  rhs`` over ``x >= 0``, in Fractions or ints."""

    num_vars: int
    rows: list[tuple[tuple[Fraction, ...], int, Fraction]] = field(default_factory=list)

    def add(self, coeffs: Sequence[Fraction | int], sense: int, rhs: Fraction | int) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        if sense not in (LEQ, EQ, GEQ):
            raise ValueError(f"bad sense {sense}")
        self.rows.append((tuple(Fraction(c) for c in coeffs), sense, Fraction(rhs)))

    # -- normalisation ------------------------------------------------------

    def _leq_rows(self) -> tuple[list[_IntRow], list[int]]:
        """Rows in <= form, each as integers ``(A, b, scale)`` equal to the
        rational row times ``scale``, plus the original row index of each."""
        out: list[_IntRow] = []
        origin: list[int] = []
        for idx, (a, sense, b) in enumerate(self.rows):
            scale = _math.lcm(b.denominator, *(c.denominator for c in a))
            ints = [c.numerator * (scale // c.denominator) for c in a]
            b_int = b.numerator * (scale // b.denominator)
            if sense in (LEQ, EQ):
                out.append((ints, b_int, scale))
                origin.append(idx)
            if sense in (GEQ, EQ):
                out.append(([-c for c in ints], -b_int, scale))
                origin.append(idx)
        return out, origin

    def check_point(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.num_vars or any(v < 0 for v in x):
            return False
        # x scaled by its common denominator: integer rows stay in integers
        den = _math.lcm(*(v.denominator for v in x))
        xs = [v.numerator * (den // v.denominator) for v in x]
        for a, sense, b in self.rows:
            lhs = sum(c * v for c, v in zip(a, xs))
            rhs = b * den
            if sense == LEQ and lhs > rhs:
                return False
            if sense == GEQ and lhs < rhs:
                return False
            if sense == EQ and lhs != rhs:
                return False
        return True

    def check_farkas(self, u_orig: Sequence[Fraction]) -> bool:
        """Exact check of a per-original-row certificate of infeasibility."""
        if len(u_orig) != len(self.rows):
            return False
        # u scaled by its common denominator: integer rows stay in integers
        den = _math.lcm(*(u.denominator for u in u_orig))
        combo = [0] * self.num_vars
        rhs = 0
        for (a, sense, b), u in zip(self.rows, u_orig):
            if sense != EQ and u < 0:
                return False  # only equality rows take a signed multiplier
            if not u:
                continue
            k = u.numerator * (den // u.denominator)
            if sense == GEQ:
                k = -k  # orient the row as <=, like LEQ and EQ rows
            combo = [s + k * c for s, c in zip(combo, a)]
            rhs += k * b
        # sum u_r (a_r x - b_r) over oriented rows is <= 0 for feasible x;
        # certificate forces it > 0
        return all(c >= 0 for c in combo) and rhs < 0

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        repair: Callable[[list[float]], tuple[Fraction, ...] | None] | None = None,
        force_exact: bool = False,
    ) -> LPResult:
        leq, origin = self._leq_rows()
        size = max(1, len(leq)) * (self.num_vars + len(leq))
        if not force_exact and size > _EXACT_SIZE_LIMIT:
            res = self._solve_float(leq, origin, repair)
            if res is not None:
                return res
        feasible, payload = _simplex_phase1(self.num_vars, leq)
        if feasible:
            x = tuple(payload)
            if not self.check_point(x):
                raise AssertionError("exact simplex returned a bad point")
            return LPResult(True, x=x)
        u = self._fold_farkas(payload, origin)
        if not self.check_farkas(u):
            raise AssertionError("exact simplex returned a bad certificate")
        return LPResult(False, farkas=u)

    def _fold_farkas(self, u_leq: Sequence[Fraction], origin: Sequence[int]) -> tuple[Fraction, ...]:
        """Fold <=-form multipliers back onto original rows.

        Equality rows expand to ``(a, b)`` then ``(-a, -b)``; their net signed
        multiplier is first minus second, oriented like a LEQ row.
        """
        folded = [Fraction(0)] * len(self.rows)
        seen_first: set[int] = set()
        for u, idx in zip(u_leq, origin):
            _, sense, _ = self.rows[idx]
            if sense == EQ and idx in seen_first:
                folded[idx] -= u
            else:
                folded[idx] += u
                seen_first.add(idx)
        return tuple(folded)

    def _solve_float(self, leq, origin, repair) -> LPResult | None:
        try:
            import numpy as np
            from scipy.optimize import linprog
        except ImportError:  # pragma: no cover
            return None
        a_mat = np.array([[c / scale for c in a] for a, _, scale in leq])
        b_vec = np.array([b / scale for _, b, scale in leq])
        probe = linprog(
            np.zeros(self.num_vars), A_ub=a_mat, b_ub=b_vec,
            bounds=(0, None), method="highs",
        )
        if probe.status == 0:
            cands = []
            if repair is not None:
                fixed = repair(list(probe.x))
                if fixed is not None:
                    cands.append(fixed)
            for denom in _DENOM_LADDER:
                cands.append(tuple(Fraction(v).limit_denominator(denom) for v in probe.x))
            for x in cands:
                if self.check_point(x):
                    return LPResult(True, x=x, exact_path=False)
            return None
        if probe.status != 2:
            return None
        # minimum-violation LP: min s subject to  A x - s <= b,  x,s >= 0
        a_big = np.hstack([a_mat, -np.ones((len(leq), 1))])
        cost = np.zeros(self.num_vars + 1)
        cost[-1] = 1.0
        relaxed = linprog(cost, A_ub=a_big, b_ub=b_vec, bounds=(0, None), method="highs")
        if relaxed.status != 0 or relaxed.fun <= _FLOAT_TOL:
            return None
        duals = [max(0.0, -m) for m in relaxed.ineqlin.marginals]
        for denom in _DENOM_LADDER:
            u_leq = [Fraction(d).limit_denominator(denom) for d in duals]
            u = self._fold_farkas(u_leq, origin)
            if self.check_farkas(u):
                return LPResult(False, farkas=u, exact_path=False)
        return None


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


def _simplex_phase1(num_vars: int, leq_rows: Sequence[_IntRow]) -> tuple[bool, list[Fraction]]:
    """Feasibility of ``A x <= b, x >= 0`` with exact arithmetic.

    Rows come as integers with the factor they were scaled by.  Returns
    ``(True, x)`` or ``(False, u)`` where ``u`` are nonnegative multipliers
    over the unscaled rows with ``u^T A >= 0`` and ``u^T b < 0``.
    """
    rows = len(leq_rows)
    if rows == 0:
        return True, [Fraction(0)] * num_vars

    flipped = [b < 0 for _, b, _ in leq_rows]
    n_art = sum(flipped)
    slack_base = num_vars
    art_base = num_vars + rows
    width = num_vars + rows + n_art

    tableau: list[list[int]] = []
    dens: list[int] = [1] * (rows + 1)
    basis: list[int] = []
    next_art = art_base
    for r, (a, b, _) in enumerate(leq_rows):
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

    infeasible = any(
        basis[r] >= art_base and tableau[r][width] != 0 for r in range(rows)
    )
    if not infeasible:
        x = [Fraction(0)] * num_vars
        for r in range(rows):
            if basis[r] < num_vars:
                x[basis[r]] = Fraction(tableau[r][width], dens[r])
        return True, x

    # infeasible: for both row kinds the <=-form multiplier is the reduced
    # cost of the row's slack/surplus column (kept: u = -y, rc = -y;
    # flipped: u = +y, rc = +y); phase-1 optimality makes them >= 0.  Undo
    # the input row scaling so the certificate fits the caller's rows.
    rc, rc_den = tableau[rows], dens[rows]
    u = [Fraction(rc[slack_base + r] * leq_rows[r][2], rc_den) for r in range(rows)]
    return False, u
