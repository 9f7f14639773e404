"""Weightedness, rough weightedness, and threshold separation.

The central question: do nonnegative rational weights and a quota exist that
put a required family of coalitions at or above the quota and a forbidden
family strictly below?  Over the rationals a strict gap can be normalised to
a margin of one after clearing denominators, so ``separable`` solves the
closed system ``w(M) >= q`` / ``w(Y) <= q - 1`` / ``q >= 1`` exactly and a
returned witness is a genuine strict separator.

This module holds the package's one builder for that system
(``_separate``).  It serves ``separable``, the Farkas route of certificate
search, the class-weight route of ``is_weighted`` (coefficients are member
counts per desirability class instead of 0/1 incidences) and the dimension
oracle, which normalises the game's own side of the system once.

All verdicts are exact: every system is solved in integer arithmetic and
its point or certificate checked against every row (see ``_exactlp``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import desirability
from ._exactlp import EQ, GEQ, LEQ, LinearSystem, LPResult, RowBlock, _Row, _over_one_den
from .core import (
    MAX_TABLE_PLAYERS,
    Coalition,
    InvalidGameError,
    SimpleGame,
    TableSizeError,
    antichain_reduce,
    maximal_losing_masks,
    _bits,
    _canonical_key,
    _check_player_count,
    _integer,
    _matches_antichains,
)

_MODEL_SPACE_LIMIT = 5_000


@dataclass(frozen=True)
class _Weights:
    """Weights and a quota, with the input checks and the integer view that
    both representation kinds share."""

    weights: tuple[Fraction, ...]
    quota: Fraction

    def __post_init__(self) -> None:
        weights = tuple([_rational(w, "weight") for w in self.weights])
        _check_player_count(len(weights))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quota", _rational(self.quota, "quota"))
        if any(w < 0 for w in self.weights):
            raise InvalidGameError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _view(self) -> tuple[list[int], int]:
        """The weights, then the quota, as integer numerators over one
        positive denominator, and that denominator."""
        return _over_one_den((*self.weights, self.quota))

    def _weight(self, members: Iterable[int]) -> int:
        """The weight of the players ``members`` over the view's denominator."""
        return sum(map(self._view[0].__getitem__, members))

    def weight_of_mask(self, mask: int) -> Fraction:
        return Fraction(self._weight(_bits(mask)), self._view[1])


def _rational(value, what: str) -> Fraction:
    """``value`` as a Fraction; a bool or a non-rational raises
    :class:`InvalidGameError`."""
    if type(value) is Fraction:  # the common cases, ahead of the slower checks
        return value
    if type(value) is int or (isinstance(value, numbers.Rational) and not isinstance(value, bool)):
        return Fraction(value)
    raise InvalidGameError(f"{what} must be a rational number, got {value!r}")


@dataclass(frozen=True)
class WeightedRep(_Weights):
    """Nonnegative weights and a quota with ``X wins iff w(X) >= quota``.

    The quota is positive except for the degenerate all-coalitions-win game,
    whose only consistent representation is all-zero weights with quota zero.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.quota < 0:
            raise InvalidGameError("quota must be nonnegative")
        if self.quota == 0 and any(self.weights):
            raise InvalidGameError("zero quota is reserved for the trivial all-win form")

    def weight_of(self, x: Coalition) -> Fraction:
        return self.weight_of_mask(x.mask)

    def wins_mask(self, mask: int) -> bool:
        return self._wins(_bits(mask))

    def _wins(self, members: Iterable[int]) -> bool:
        """True iff the players ``members`` reach the quota."""
        return self._weight(members) >= self._view[0][-1]


@dataclass(frozen=True)
class RoughRep(_Weights):
    """Weights/quota where strictly-below implies losing and strictly-above
    implies winning; coalitions exactly at the quota are unconstrained."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not any(self.weights) and self.quota == 0:
            raise InvalidGameError("weights and quota cannot all be zero")


def _primitive(nums: Sequence[int]) -> list[int]:
    """Integers scaled down by their gcd (all-zero stays all-zero)."""
    g = math.gcd(*nums) or 1
    return [v // g for v in nums]


def _canonical_rep(nums: Sequence[int]) -> WeightedRep:
    """A witness given as integer weights then quota, over any common
    positive denominator, as coprime integers for stable, readable output."""
    *weights, quota = _primitive(nums)
    return WeightedRep(tuple(weights), quota)


def separable(
    n: int,
    must_win: Iterable[Coalition | int],
    must_lose: Iterable[Coalition | int],
) -> WeightedRep | None:
    """Weighted game winning every superset of ``must_win`` members while
    losing every coalition in ``must_lose``, or None if none exists.

    Infeasibility is an answer, not an error; nonnegative weights make the
    win side close upward and the lose side close downward automatically.
    A player count outside ``1..MAX_PLAYERS``, coalitions over another
    player count and masks with members outside ``0..n-1`` raise
    :class:`InvalidGameError`.
    """
    n = _check_player_count(n)
    win = antichain_reduce(_checked_masks(n, must_win))
    lose = _checked_masks(n, must_lose)
    for y in lose:
        if any(m & ~y == 0 for m in win):
            return None  # a forbidden coalition is forced winning
    if win == [0]:  # the all-win game, which the LP's q >= 1 excludes
        return _trivial_all_win_rep(n)
    res = separable_result(n, win, _inclusion_maximal(lose, n))
    return _canonical_rep(res.nums[: n + 1]) if res.feasible else None


def _trivial_all_win_rep(n: int) -> WeightedRep:
    return WeightedRep((Fraction(0),) * n, Fraction(0))


def _checked_masks(n: int, coalitions: Iterable[Coalition | int]) -> list[int]:
    masks = []
    for c in coalitions:
        if isinstance(c, Coalition) and c.n != n:
            raise InvalidGameError(f"coalition over {c.n} players, separation over {n}")
        mask = c.mask if isinstance(c, Coalition) else _integer(c, "mask")
        if not 0 <= mask < 1 << n:
            raise InvalidGameError(f"mask {mask} has members outside 0..{n - 1}")
        masks.append(mask)
    return masks


def separable_result(n: int, win_masks: Iterable[int], lose_masks: Iterable[int]) -> LPResult:
    """Raw LP outcome of the separation system over ``n`` players.

    The rows are one win row per mask of ``win_masks``, then one lose row
    per mask of ``lose_masks``, in the order given, then the quota row.
    Nothing is reduced here: callers pass antichains, such as a game's own
    minimal winning and maximal losing coalitions.  Extra rows would only
    make the LP larger, never change its verdict.  Certificate search reads
    the Farkas multipliers of an infeasible system against the same two
    families to build a trading transform.
    """
    fixed = RowBlock(_incidence_rows(win_masks, n, True), n + 1)
    return _separate(fixed, _incidence_rows(lose_masks, n, False))


def _separation_rows(vectors: Iterable[Sequence[int]], win: bool) -> list[_Row]:
    sense, rhs = (GEQ, 0) if win else (LEQ, -1)
    return [(tuple(v) + (-1,), sense, rhs) for v in vectors]


def _incidence_rows(masks: Iterable[int], n: int, win: bool) -> list[_Row]:
    return _separation_rows((_incidence(m, n) for m in masks), win)


def _separation_system(fixed: RowBlock, variable: list[_Row]) -> LinearSystem:
    """The rows of ``fixed``, then ``variable``, then ``q >= 1``.

    A row is ``w.v - q >= 0`` (win side) or ``w.v - q <= -1`` (lose side)
    for an integer vector v: 0/1 player incidences or member counts per
    class (or per cell of a class).  ``fixed`` is the game's side,
    normalised once as a :class:`RowBlock`; callers asking many questions
    of one game build it once and pass only the queried rows as
    ``variable``.
    """
    q_row = ((0,) * (fixed.width - 1) + (1,), GEQ, 1)  # weights, then the quota
    return LinearSystem(fixed.width, fixed.rows + variable + [q_row], fixed)


def _separate(fixed: RowBlock, variable: list[_Row]) -> LPResult:
    """Solve :func:`_separation_system` of ``fixed`` and ``variable``."""
    return _separation_system(fixed, variable).solve()


def _incidence(mask: int, n: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(n)]


def _inclusion_maximal(masks: Iterable[int], n: int) -> list[int]:
    """Superset-maximal elements, in canonical order: complementing within
    the n players turns them into the subset-minimal ones."""
    full = (1 << n) - 1
    maximal = (full ^ m for m in antichain_reduce(full ^ m for m in masks))
    return sorted(maximal, key=_canonical_key)


def is_weighted(g: SimpleGame) -> WeightedRep | None:
    """A verified voting representation of the game, or None.

    A returned witness always satisfies :func:`verify_representation`.  The
    all-win game gets the trivial zero-weight representation by convention.
    Non-complete games are rejected without solving (a weighted game's
    desirability order is always total); complete games are solved in
    class-weight space, which is lossless because averaging any
    representation over within-class player swaps, all of them game
    automorphisms, preserves every defining inequality.
    """
    if g._weighted is not False:
        return g._weighted
    rep = _is_weighted_uncached(g)
    g._weighted = rep
    return rep


def _is_weighted_uncached(g: SimpleGame) -> WeightedRep | None:
    if g.wins_mask(0):  # empty coalition wins, hence everything does
        return _trivial_all_win_rep(g.n)
    if g.n <= MAX_TABLE_PLAYERS:
        if not desirability.is_complete(g):
            return None
        part = desirability.equivalence_classes(g)
        if math.prod(s + 1 for s in part.sizes) <= _MODEL_SPACE_LIMIT:
            return _symmetric_weighted(g, part)
    res = separable_result(g.n, g.minwin_masks, maximal_losing_masks(g))
    return _canonical_rep(res.nums[: g.n + 1]) if res.feasible else None


def _symmetric_weighted(g: SimpleGame, part) -> WeightedRep | None:
    """Weightedness of a complete game decided over class weights.

    One variable per desirability class plus the quota; the binding rows are
    the minimal winning and maximal losing models.
    """
    win, lose = desirability._class_antichains(g)
    m = len(part.sizes)
    fixed = RowBlock(_separation_rows(win, True), m + 1)
    res = _separate(fixed, _separation_rows(lose, False))
    if not res.feasible:
        return None
    return _canonical_rep([res.nums[part.class_of[p]] for p in range(g.n)] + [res.nums[m]])


def is_roughly_weighted(g: SimpleGame) -> RoughRep | None:
    """Rough representation per the two-case normalisation.

    Any valid system with a losing empty coalition scales either to quota 1,
    or to quota 0 with total weight 1 concentrated outside every maximal
    losing coalition.  The all-win game takes a negative quota.
    """
    if g.wins_mask(0):  # all-coalitions-win game needs a negative quota
        return RoughRep((Fraction(0),) * g.n, Fraction(-1))
    lose = maximal_losing_masks(g)
    system = LinearSystem(g.n)
    for m in g.minwin_masks:
        system.add(_incidence(m, g.n), GEQ, 1)
    for y in lose:
        system.add(_incidence(y, g.n), LEQ, 1)
    res = system.solve()
    if res.feasible:
        return RoughRep(res.x, Fraction(1))
    system = LinearSystem(g.n)
    system.add([1] * g.n, EQ, 1)
    for y in lose:
        system.add(_incidence(y, g.n), LEQ, 0)
    res = system.solve()
    if res.feasible:
        return RoughRep(res.x, Fraction(0))
    return None


def verify_representation(g: SimpleGame, rep: WeightedRep | RoughRep) -> bool:
    """Exact check of the defining conditions against the game's antichains.

    Nonnegative weights make the antichain test equivalent to the full scan
    over all coalitions: winning coalitions dominate a minimal winning one,
    losing coalitions fit under a maximal losing one.  A rough
    representation is checked on both sides of its quota instead: at least
    it on W_min, at most it on L_max.
    """
    if rep.n != g.n:
        raise InvalidGameError(f"representation over {rep.n} players, game over {g.n}")
    if isinstance(rep, WeightedRep):
        return _matches_antichains(rep._wins, g.minwin_masks, maximal_losing_masks(g))
    q = rep._view[0][-1]
    return all(rep._weight(_bits(m)) >= q for m in g.minwin_masks) and all(
        rep._weight(_bits(y)) <= q for y in maximal_losing_masks(g)
    )


def weighted_game(rep: WeightedRep, n: int | None = None) -> SimpleGame:
    """The simple game induced by a representation (table-gated)."""
    n = rep.n if n is None else n
    if n != rep.n:
        raise InvalidGameError("player count mismatch")
    table = threshold_table(rep.weights, rep.quota, n)
    return SimpleGame._from_table(n, table)


def threshold_table(weights: Sequence[Fraction], quota: Fraction, n: int) -> int:
    """Truth-table int for ``w(X) >= quota`` via exact integer subset sums
    (table-gated before any of the 2^n sums is formed)."""
    if n > MAX_TABLE_PLAYERS:
        raise TableSizeError(f"truth table gated at n <= {MAX_TABLE_PLAYERS} players")
    *w_int, q_int = _over_one_den([Fraction(v) for v in (*weights, quota)])[0]
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + w_int[low.bit_length() - 1]
    table = 0
    for mask, s in enumerate(sums):
        if s >= q_int:
            table |= 1 << mask
    return table
