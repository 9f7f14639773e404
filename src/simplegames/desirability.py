"""Player desirability, completeness, equivalence classes, and models.

Player ``i`` is at least as desirable as ``j`` when swapping ``j`` for ``i``
never turns a winning coalition into a losing one.  A game is complete when
every pair of players is comparable; its players then split into strictly
ordered equivalence classes, and the status of a coalition depends only on
its *model*: the vector counting members per class.

Shift comparisons between models use prefix-sum domination.  Moving a member
of a coalition to a more desirable class (or adding a member) raises some
prefix sums and lowers none, so a model ``u`` is reachable from ``v`` by
deletions and down-shifts exactly when every prefix sum of ``u`` is at most
the corresponding prefix sum of ``v``.  Adding a member is such a move, so the
shift-maximal losing (shift-minimal winning) models are found among the
inclusion-maximal losing (minimal winning) models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .core import (
    MAX_TABLE_PLAYERS,
    InvalidGameError,
    SimpleGame,
    TableSizeError,
    _bits,
    _integer,
    _lane,
)

Model = tuple[int, ...]


class Outcome(Enum):
    STRICTLY_MORE = "strictly_more"
    EQUIVALENT = "equivalent"
    STRICTLY_LESS = "strictly_less"
    INCOMPARABLE = "incomparable"


class CompletenessError(ValueError):
    """Raised when an operation requires a complete game but found an
    incomparable pair; carries the witness pair."""

    def __init__(self, i: int, j: int):
        super().__init__(f"players {i} and {j} are incomparable")
        self.pair = (i, j)


def _violations(t: int, n: int, i: int, j: int) -> tuple[int, int]:
    """Table positions of losing X|{i} with X|{j} winning, and of losing
    X|{j} with X|{i} winning (X avoiding both).  Player i is at least as
    desirable as j exactly when the first is empty."""
    li, lj = _lane(n, i), _lane(n, j)
    return (
        (t & lj & ~li) >> (1 << j) << (1 << i) & ~t,
        (t & li & ~lj) >> (1 << i) << (1 << j) & ~t,
    )


def compare_players(g: SimpleGame, i: int, j: int) -> Outcome:
    """Isbell desirability verdict for an ordered pair of distinct players."""
    i, j = _integer(i, "player"), _integer(j, "player")
    if i == j:
        raise InvalidGameError("compare_players needs two distinct players")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise InvalidGameError(f"players {i},{j} outside 0..{g.n - 1}")
    if g.n > MAX_TABLE_PLAYERS:
        raise TableSizeError("desirability comparison is table-gated")
    bad_ij, bad_ji = _violations(g.table, g.n, i, j)
    if not bad_ij and not bad_ji:
        return Outcome.EQUIVALENT
    if not bad_ij:
        return Outcome.STRICTLY_MORE
    if not bad_ji:
        return Outcome.STRICTLY_LESS
    return Outcome.INCOMPARABLE


def is_complete(g: SimpleGame) -> bool:
    """True iff no pair of players is incomparable."""
    return _incomparable_pair(g) is None


def incomparable_pair(g: SimpleGame) -> tuple[int, int] | None:
    """First incomparable player pair in index order, or None if complete."""
    return _incomparable_pair(g)


def _incomparable_pair(g: SimpleGame) -> tuple[int, int] | None:
    """One pass over the player pairs: the first incomparable pair, or None,
    in which case the class partition built from the same pass is cached."""
    if g._incomparable is False:  # not scanned yet
        t, n = g.table, g.n
        # strict-domination counts separate the classes of a total preorder
        dominates = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            bad_ij, bad_ji = _violations(t, n, i, j)
            if bad_ij and bad_ji:
                g._incomparable = (i, j)
                g._swap_witness = _swap_witness(bad_ij, bad_ji, i, j)
                break
            if bad_ij or bad_ji:  # strict: the side free of violations dominates
                dominates[j if bad_ij else i] += 1
        else:
            g._incomparable = None
            g._classes = _class_partition(n, dominates)
    return g._incomparable


def incomparability_witness(g: SimpleGame, i: int, j: int) -> tuple[int, int] | None:
    """Masks (X|{i}, Y|{j}) witnessing failure in both directions, if any.

    Returns a pair where X+{i} wins while X+{j} loses, combined with
    Y+{j} winning while Y+{i} loses (encoded as the two winning masks).
    The pair found by the completeness scan keeps the witness of that scan.
    """
    if g._incomparable == (i, j):
        return g._swap_witness
    bad_ij, bad_ji = _violations(g.table, g.n, i, j)
    if not bad_ij or not bad_ji:
        return None
    return _swap_witness(bad_ij, bad_ji, i, j)


def _swap_witness(bad_ij: int, bad_ji: int, i: int, j: int) -> tuple[int, int]:
    """The two winning masks of the lowest violation in each direction."""
    x_i = (bad_ij & -bad_ij).bit_length() - 1  # X|{i} loses -> X|{j} wins
    y_j = (bad_ji & -bad_ji).bit_length() - 1
    return x_i - (1 << i) + (1 << j), y_j - (1 << j) + (1 << i)


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of players in strictly decreasing desirability."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def _class_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << p for p in cls) for cls in self.classes)


def equivalence_classes(g: SimpleGame) -> ClassPartition:
    """Class partition of a complete game, most desirable class first."""
    pair = _incomparable_pair(g)  # the scan caches the partition on the game
    if pair is not None:
        raise CompletenessError(*pair)
    return g._classes


def _class_partition(n: int, dominates: list[int]) -> ClassPartition:
    order = sorted(range(n), key=lambda i: (-dominates[i], i))
    classes: list[list[int]] = []
    for i in order:
        if classes and dominates[classes[-1][0]] == dominates[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    class_of = [0] * n
    for idx, cls in enumerate(classes):
        for p in cls:
            class_of[p] = idx
    return ClassPartition(n, tuple(map(tuple, classes)), tuple(class_of))  # ascending: ties sort by index


def _prefix_leq(u: Model, v: Model) -> bool:
    """Shift order: u reachable from v by deletions and down-shifts."""
    acc_u = acc_v = 0
    for a, b in zip(u, v):
        acc_u += a
        acc_v += b
        if acc_u > acc_v:
            return False
    return True


def _model_antichains(
    sizes: Sequence[int], wins: Callable[[Model], bool]
) -> tuple[list[Model], list[Model]]:
    """Minimal winning and maximal losing models of a monotone model predicate.

    Models range over ``0..sizes[c]`` members per class and are returned in
    lexicographic order.  A model is minimal winning when removing any one
    member loses, maximal losing when adding any one member wins.

    ``wins`` returns a bool or 0/1.  The statuses form one bitset over the
    lexicographic model indices, in which a model's neighbour with one more
    member of class ``c`` sits ``stride_c`` bits higher; each class has a
    lane of the models with a member of it to remove.
    """
    models = list(itertools.product(*(range(s + 1) for s in sizes)))
    # binary digits of the status bitset, the last model's first
    status = int(bytes(map(wins, reversed(models))).translate(_DIGITS), 2)
    has_lower = upper_loses = 0  # a one-member-smaller model wins; a larger one loses
    for stride, lane in _model_lanes(tuple(sizes)):
        has_lower |= status << stride & lane
        upper_loses |= (lane & ~status) >> stride
    everything = (1 << len(models)) - 1
    return (
        [models[k] for k in _bits(status & ~has_lower)],
        [models[k] for k in _bits(everything & ~status & ~upper_loses)],
    )


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=256)  # lanes of big model spaces are big ints
def _model_lanes(sizes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Per class, its stride in the lexicographic model order and the bitset
    of model indices with at least one member of that class."""
    total = math.prod(s + 1 for s in sizes)
    out = []
    stride = total
    for s in sizes:
        period, stride = stride, stride // (s + 1)
        lane = ((1 << (period - stride)) - 1) << stride  # one period's members
        while period < total:  # repeat the pattern to cover every index
            lane |= lane << period
            period *= 2
        out.append((stride, lane & ((1 << total) - 1)))
    return tuple(out)


def _class_antichains(g: SimpleGame) -> tuple[list[Model], list[Model]]:
    part, t = equivalence_classes(g), g.table
    # masks of the first k players of each class, for every k
    prefixes = [list(itertools.accumulate((1 << p for p in cls), initial=0)) for cls in part.classes]
    return _model_antichains(part.sizes, lambda u: t >> sum(map(list.__getitem__, prefixes, u)) & 1)


def minimal_winning_models(g: SimpleGame) -> tuple[Model, ...]:
    """Models of the inclusion-minimal winning coalitions."""
    return tuple(_class_antichains(g)[0])


def maximal_losing_models(g: SimpleGame) -> tuple[Model, ...]:
    """Models of the inclusion-maximal losing coalitions."""
    return tuple(_class_antichains(g)[1])


def shift_maximal_losing(g: SimpleGame) -> tuple[Model, ...]:
    """Models of losing coalitions maximal under the shift order.

    Every replacement of a member by a strictly more desirable player (and
    every addition) turns them winning.  Such a model is inclusion-maximal,
    and a losing model shift-dominated by another is dominated by a maximal
    one, so the filter runs over the maximal losing models only.
    """
    maximal = _class_antichains(g)[1]
    return tuple(u for u in maximal if not any(v != u and _prefix_leq(u, v) for v in maximal))


def shift_minimal_winning(g: SimpleGame) -> tuple[Model, ...]:
    """Models of winning coalitions minimal under the shift order (the
    dual filter, over the minimal winning models)."""
    minimal = _class_antichains(g)[0]
    return tuple(u for u in minimal if not any(v != u and _prefix_leq(v, u) for v in minimal))
