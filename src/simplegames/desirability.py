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
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    MAX_TABLE_PLAYERS,
    Coalition,
    InvalidGameError,
    SimpleGame,
    TableSizeError,
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
    if g._incomparable is False:  # not scanned yet
        t, n = g.table, g.n
        g._incomparable = None
        for i, j in itertools.combinations(range(n), 2):
            bad_ij, bad_ji = _violations(t, n, i, j)
            if bad_ij and bad_ji:
                g._incomparable = (i, j)
                break
    return g._incomparable


def incomparability_witness(g: SimpleGame, i: int, j: int) -> tuple[int, int] | None:
    """Masks (X|{i}, Y|{j}) witnessing failure in both directions, if any.

    Returns a pair where X+{i} wins while X+{j} loses, combined with
    Y+{j} winning while Y+{i} loses (encoded as the two winning masks).
    """
    bad_ij, bad_ji = _violations(g.table, g.n, i, j)
    if not bad_ij or not bad_ji:
        return None
    x_i = (bad_ij & -bad_ij).bit_length() - 1  # X|{i} loses -> X|{j} wins
    y_j = (bad_ji & -bad_ji).bit_length() - 1
    win1 = x_i - (1 << i) + (1 << j)
    win2 = y_j - (1 << j) + (1 << i)
    return (win1, win2)


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

    def model_of_mask(self, mask: int) -> Model:
        return tuple((mask & cm).bit_count() for cm in self._class_masks)

    def model_of(self, x: Coalition) -> Model:
        return self.model_of_mask(x.mask)

    def representative_mask(self, model: Model) -> int:
        """Canonical coalition realising a model: lowest players per class."""
        mask = 0
        for cls, count in zip(self.classes, model):
            if not 0 <= count <= len(cls):
                raise InvalidGameError(f"model {model} exceeds class sizes {self.sizes}")
            for p in cls[:count]:
                mask |= 1 << p
        return mask

    def models(self):
        return itertools.product(*(range(s + 1) for s in self.sizes))


def equivalence_classes(g: SimpleGame) -> ClassPartition:
    """Class partition of a complete game, most desirable class first."""
    if g._classes is None:  # cached on the game once found
        g._classes = _class_partition(g)
        g._incomparable = None
    return g._classes


def _class_partition(g: SimpleGame) -> ClassPartition:
    # strict-domination counts separate the classes of a total preorder
    t, n = g.table, g.n
    dominated = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        bad_ij, bad_ji = _violations(t, n, i, j)
        if bad_ij and bad_ji:
            raise CompletenessError(i, j)
        if bad_ij or bad_ji:  # strict: the side free of violations dominates
            dominated[j if bad_ij else i] += 1
    order = sorted(range(g.n), key=lambda i: (-dominated[i], i))
    classes: list[list[int]] = []
    for i in order:
        if classes and dominated[classes[-1][0]] == dominated[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    class_of = [0] * g.n
    for idx, cls in enumerate(classes):
        for p in cls:
            class_of[p] = idx
    return ClassPartition(g.n, tuple(tuple(sorted(c)) for c in classes), tuple(class_of))


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
    """
    models = list(itertools.product(*(range(s + 1) for s in sizes)))
    status = [wins(u) for u in models]
    strides = [math.prod(s + 1 for s in sizes[c + 1 :]) for c in range(len(sizes))]
    minimal: list[Model] = []
    maximal: list[Model] = []
    for idx, u in enumerate(models):
        steps = zip(u, sizes, strides)
        if status[idx]:
            if not any(status[idx - st] for k, _, st in steps if k > 0):
                minimal.append(u)
        elif all(status[idx + st] for k, s, st in steps if k < s):
            maximal.append(u)
    return minimal, maximal


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
