"""Coalitions, simple games, and duality.

A simple game is a monotone family of winning coalitions over a fixed player
set: every superset of a winning coalition wins.  Such a family is stored by
its antichain of minimal winning coalitions, from which every other query
(winning test, maximal losing coalitions, the dual game) is derived.

Coalitions are bitsets over player indices ``0..n-1``.  Whole games with at
most ``MAX_TABLE_PLAYERS`` players additionally carry an exhaustive truth
table, kept as a single Python integer with bit ``X`` set iff coalition mask
``X`` wins; all table algebra below is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

MAX_PLAYERS = 63
MAX_TABLE_PLAYERS = 20


class InvalidGameError(ValueError):
    """Malformed coalition, player index out of range, or bad game input."""


class TableSizeError(ValueError):
    """Operation needs an exhaustive truth table but n exceeds the gate."""


def _canonical_key(mask: int) -> tuple[int, int]:
    """The canonical order of coalitions: cardinality first, then mask."""
    return (mask.bit_count(), mask)


def _integer(value, what: str) -> int:
    """``value`` as an int through ``operator.index``; a bool or a
    non-integer raises :class:`InvalidGameError`."""
    if type(value) is int:  # the common case, ahead of the slower checks
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidGameError(f"{what} must be an integer, got {value!r}")


def _check_player_count(n) -> int:
    n = _integer(n, "player count")
    if not 1 <= n <= MAX_PLAYERS:
        raise InvalidGameError(f"player count {n} outside 1..{MAX_PLAYERS}")
    return n


@dataclass(frozen=True)
class Coalition:
    """Subset of players ``0..n-1`` with bitset semantics.

    ``mask`` has bit ``i`` set iff player ``i`` is a member.  Equality is set
    equality on the same player universe; the canonical sort key orders by
    cardinality first, then by mask value.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        n = _check_player_count(self.n)
        if not 0 <= _integer(self.mask, "coalition mask") < (1 << n):
            raise InvalidGameError(
                f"coalition {bin(self.mask)} has members outside 0..{self.n - 1}"
            )

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "Coalition":
        n = _check_player_count(n)
        mask = 0
        for i in members:
            if not 0 <= (i := _integer(i, "player")) < n:
                raise InvalidGameError(f"player {i} outside 0..{n - 1}")
            mask |= 1 << i
        return _coalition(mask, n)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, player: int) -> bool:
        return 0 <= player < self.n and bool(self.mask >> player & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def issubset(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask, self.n)

    def intersection(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask, self.n)

    def difference(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & ~other.mask, self.n)

    def complement(self) -> "Coalition":
        return Coalition(~self.mask & ((1 << self.n) - 1), self.n)

    def sort_key(self) -> tuple[int, int]:
        return _canonical_key(self.mask)

    def __repr__(self) -> str:
        return f"Coalition({{{','.join(map(str, self.members))}}}, n={self.n})"


def _coalition(mask: int, n: int) -> Coalition:
    """A :class:`Coalition` built without its checks, for a mask over
    ``n`` players that is already known to lie in range."""
    c = object.__new__(Coalition)
    fields = c.__dict__
    fields["mask"] = mask
    fields["n"] = n
    return c


# --- truth-table algebra on int bitfields ---------------------------------
#
# A table for n players is an int with 2**n bit positions; bit X is the
# status of coalition mask X.  lane(n, i) marks the positions whose
# coalition contains player i, so shifting by 2**i moves between X and
# X | {i} without collisions.


@functools.lru_cache(maxsize=None)
def _lane(n: int, i: int) -> int:
    block = ((1 << (1 << i)) - 1) << (1 << i)  # bits [2^i, 2^(i+1))
    step = 1 << (i + 1)
    out = 0
    for off in range(0, 1 << n, step):
        out |= block << off
    return out


@functools.lru_cache(maxsize=None)
def _full_table(n: int) -> int:
    return (1 << (1 << n)) - 1


def table_from_minwin(masks: Iterable[int], n: int) -> int:
    """Upward closure: table with every superset of some mask set."""
    t = 0
    for m in masks:
        t |= 1 << m
    for i in range(n):
        t |= (t & ~_lane(n, i)) << (1 << i)
    return t


def minwin_from_table(t: int, n: int) -> list[int]:
    """Masks of winning coalitions all of whose single deletions lose."""
    not_minimal = 0
    for i in range(n):
        # winning X with i present whose deletion X\{i} also wins
        not_minimal |= (t & ~_lane(n, i)) << (1 << i) & t
    return _bits(t & ~not_minimal)


def maxlose_from_table(t: int, n: int) -> list[int]:
    """Masks of losing coalitions all of whose single additions win."""
    ml = ~t & _full_table(n)
    for i in range(n):
        lane = _lane(n, i)
        # for X without i, require X|{i} winning
        ml &= ((t & lane) >> (1 << i)) | lane
    return _bits(ml)


def complement_reversed_table(t: int, n: int) -> int:
    """Table u with u[X] = t[~X]: reverse the 2**n-bit string of t.

    The guard bit at position 2**n keeps t's leading zeros in its binary
    digits; the slice drops it (and the ``0b`` prefix) while reversing.
    """
    return int(bin(t | 1 << (1 << n))[:2:-1], 2)


# Above this many bits, clearing one bit of ``t`` at a time (a pass over the
# whole int per bit) loses to one pass over its binary digits.
_BITS_SCAN_ABOVE = 256
# Above one set bit in this many, a search per set bit loses to a C-level
# filter over every digit.
_BITS_DENSE_ABOVE = 6
_DIGIT_VALUE = bytes.maketrans(b"01", b"\0\1")


def _bits(t: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    if t.bit_length() > _BITS_SCAN_ABOVE:
        digits = format(t, "b")[::-1]  # least significant first
        if t.bit_count() * _BITS_DENSE_ABOVE > t.bit_length():
            return list(itertools.compress(itertools.count(), digits.encode().translate(_DIGIT_VALUE)))
        k = digits.find("1")
        while k >= 0:
            out.append(k)
            k = digits.find("1", k + 1)
        return out
    while t:
        low = t & -t
        out.append(low.bit_length() - 1)
        t ^= low
    return out


# --- the game object --------------------------------------------------------


class SimpleGame:
    """A simple game, determined by its minimal winning coalitions.

    Instances are immutable; all module functions treat them as values.  The
    truth table is materialised lazily and only for ``n <= MAX_TABLE_PLAYERS``.
    """

    __slots__ = ("n", "_minwin", "_table", "_incomparable", "_swap_witness", "_classes", "_weighted")

    def __init__(self, n: int, _minwin: tuple[int, ...] | None, _table: int | None = None):
        self.n = n
        self._minwin = _minwin
        self._table = _table
        # lazy caches; False = not computed yet where None is a value
        self._incomparable = False  # first incomparable player pair, or None
        self._swap_witness = None  # that pair's incomparability witness
        self._classes = None  # equivalence classes of a complete game
        self._weighted = False  # weighted representation, or None

    # Internal: the masks must form an antichain; this sorts them into
    # canonical (cardinality, mask) order and drops repeats.  Model-built
    # games get their order here.
    @classmethod
    def _from_minwin_masks(cls, n: int, masks: Iterable[int]) -> "SimpleGame":
        canon = tuple(sorted(set(masks), key=_canonical_key))
        return cls(n, canon)

    @classmethod
    def _from_table(cls, n: int, table: int) -> "SimpleGame":
        if n > MAX_TABLE_PLAYERS:
            raise TableSizeError(f"truth table constructor gated at n <= {MAX_TABLE_PLAYERS}")
        return cls(n, None, table)

    @property
    def minwin_masks(self) -> tuple[int, ...]:
        if self._minwin is None:
            masks = minwin_from_table(self._table, self.n)  # type: ignore[arg-type]
            self._minwin = tuple(sorted(masks, key=_canonical_key))
        return self._minwin

    @property
    def min_winning(self) -> tuple[Coalition, ...]:
        return tuple(Coalition(m, self.n) for m in self.minwin_masks)

    @property
    def table(self) -> int:
        if self._table is None:
            if self.n > MAX_TABLE_PLAYERS:
                raise TableSizeError(f"truth table gated at n <= {MAX_TABLE_PLAYERS} players")
            self._table = table_from_minwin(self._minwin or (), self.n)
        return self._table

    def wins_mask(self, mask: int) -> bool:
        if self._table is not None or self.n <= MAX_TABLE_PLAYERS:
            return bool(self.table >> mask & 1)
        return any(m & ~mask == 0 for m in self.minwin_masks)

    def wins(self, x: Coalition) -> bool:
        if x.n != self.n:
            raise InvalidGameError(f"coalition over {x.n} players vs game over {self.n}")
        return self.wins_mask(x.mask)

    def num_winning(self) -> int:
        """|W| over all 2**n coalitions (table-gated)."""
        return self.table.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGame):
            return NotImplemented
        return self.n == other.n and self.minwin_masks == other.minwin_masks

    def __hash__(self) -> int:
        return hash((self.n, self.minwin_masks))

    def __repr__(self) -> str:
        return f"SimpleGame(n={self.n}, min_winning={len(self.minwin_masks)})"


def antichain_reduce(masks: Iterable[int]) -> list[int]:
    """Subset-minimal elements, in canonical (cardinality, mask) order."""
    ordered = sorted(set(masks), key=_canonical_key)
    kept: list[int] = []
    for m in ordered:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def make_game(n: int, claimed_min_winning: Iterable[Coalition]) -> SimpleGame:
    """Build a game from claimed minimal winning coalitions.

    Redundant supersets in the input are silently dropped (antichain
    reduction), so generators may hand in any family whose upward closure is
    the intended winning set.
    """
    masks = []
    for c in claimed_min_winning:
        if c.n != n:
            raise InvalidGameError(f"coalition declared over {c.n} players, game has {n}")
        masks.append(c.mask)
    return make_game_from_masks(n, masks)


def make_game_from_masks(n: int, masks: Iterable[int]) -> SimpleGame:
    """Mask-level variant of :func:`make_game` (same reduction rules)."""
    n = _check_player_count(n)
    full = (1 << n) - 1
    ms = [_integer(m, "mask") for m in masks]
    for m in ms:
        if m & ~full:
            raise InvalidGameError(f"mask {bin(m)} has members outside 0..{n - 1}")
    return SimpleGame._from_minwin_masks(n, antichain_reduce(ms))


def is_winning(g: SimpleGame, x: Coalition) -> bool:
    """True iff ``x`` contains some minimal winning coalition."""
    return g.wins(x)


def maximal_losing(g: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of losing coalitions whose every proper superset wins."""
    return tuple(Coalition(m, g.n) for m in maximal_losing_masks(g))


def maximal_losing_masks(g: SimpleGame) -> list[int]:
    """Masks of :func:`maximal_losing`, in canonical (cardinality, mask) order."""
    if g.n <= MAX_TABLE_PLAYERS:
        masks = maxlose_from_table(g.table, g.n)
    else:
        masks = [(~t & ((1 << g.n) - 1)) for t in _minimal_transversals(g.minwin_masks, g.n)]
    masks.sort(key=_canonical_key)
    return masks


def _matches_antichains(
    wins: Callable[[list[int]], bool], minwin: Iterable[int], maxlose: Iterable[int]
) -> bool:
    """True iff the monotone predicate ``wins`` on member lists is the game
    with minimal winning coalitions ``minwin`` and maximal losing ones
    ``maxlose``: iff it wins each of the first and loses each of the second.
    Monotonicity decides the rest, since a winning coalition contains a
    minimal winning one and a losing coalition lies in a maximal losing one.
    Each coalition's member list is formed once."""
    return all(wins(_bits(m)) for m in minwin) and not any(wins(_bits(y)) for y in maxlose)


def dual(g: SimpleGame) -> SimpleGame:
    """The dual game: X wins iff the complement of X loses in ``g``."""
    if g.n <= MAX_TABLE_PLAYERS:
        t = complement_reversed_table(g.table, g.n) ^ _full_table(g.n)
        return SimpleGame._from_table(g.n, t)
    return SimpleGame._from_minwin_masks(g.n, _minimal_transversals(g.minwin_masks, g.n))


def _minimal_transversals(edges: Iterable[int], n: int) -> list[int]:
    """Minimal hitting sets of a family of bitmask hyperedges.

    The minimal winning coalitions of the dual game are exactly the minimal
    transversals of the primal minimal winning family.
    """
    edge_list = list(edges)
    if any(e == 0 for e in edge_list):
        return []  # an empty edge cannot be hit: dual has no winning coalitions
    trans = [0]
    for e in edge_list:
        hit = [t for t in trans if t & e]
        miss = [t for t in trans if not t & e]
        grown = [t | (1 << v) for t in miss for v in _bits(e)]
        trans = antichain_reduce(hit + grown)
    return trans


def veto_players(g: SimpleGame) -> tuple[int, ...]:
    """Players present in every winning coalition.

    For a game with no winning coalitions this is vacuously all players.
    """
    if not g.minwin_masks:
        return tuple(range(g.n))
    acc = (1 << g.n) - 1
    for m in g.minwin_masks:
        acc &= m
    return tuple(_bits(acc))


def dummy_players(g: SimpleGame) -> tuple[int, ...]:
    """Players whose presence never changes any coalition's status."""
    used = 0
    for m in g.minwin_masks:
        used |= m
    return tuple(i for i in range(g.n) if not used >> i & 1)
