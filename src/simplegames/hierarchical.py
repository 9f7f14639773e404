"""Hierarchical (class-cumulative threshold) games.

Players are split into ordered classes ``P_1, ..., P_m`` (most desirable
first, assigned contiguously ascending player indices) with thresholds
``k_1 < k_2 < ...``.  A coalition X meets level i when it has at least
``k_i`` members among the first i classes combined.  A disjunctive game wins
when *some* level is met; a conjunctive game wins when *every* level is met.

``validate_partiteness`` checks the arithmetic conditions under which the
declared classes are exactly the desirability classes of the built game
(conjunctive form): ``k_1 <= n_1`` and ``k_i < k_{i-1} + n_i`` for i >= 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import MAX_PLAYERS, Coalition, InvalidGameError, SimpleGame, _integer
from .desirability import Model, _model_antichains

_MODEL_SPACE_LIMIT = 4_000_000


class Kind(Enum):
    DISJUNCTIVE = "disjunctive"
    CONJUNCTIVE = "conjunctive"


@dataclass(frozen=True)
class HierarchicalSpec:
    kind: Kind
    n_vec: tuple[int, ...]
    k_vec: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", Kind(self.kind))
        except ValueError:
            raise InvalidGameError(
                f"kind must be a Kind or one of {[k.value for k in Kind]}, got {self.kind!r}"
            ) from None
        n_vec = _integers(self.n_vec, "class sizes")
        k_vec = _integers(self.k_vec, "thresholds")
        object.__setattr__(self, "n_vec", n_vec)
        object.__setattr__(self, "k_vec", k_vec)
        if len(n_vec) != len(k_vec) or not n_vec:
            raise InvalidGameError("n_vec and k_vec must be equal-length and nonempty")
        if any(s < 1 for s in n_vec) or any(k < 1 for k in k_vec):
            raise InvalidGameError("class sizes and thresholds must be >= 1")
        if sum(n_vec) > MAX_PLAYERS:
            raise InvalidGameError(f"total players {sum(n_vec)} exceeds cap {MAX_PLAYERS}")
        for i in range(1, len(k_vec)):
            # strictly increasing; conjunctive games may repeat the last
            # threshold (a dummy bottom class)
            allow_equal = self.kind is Kind.CONJUNCTIVE and i == len(k_vec) - 1
            if k_vec[i - 1] > k_vec[i] or (k_vec[i - 1] == k_vec[i] and not allow_equal):
                raise InvalidGameError(
                    f"thresholds {k_vec} not valid for a {self.kind.value} game"
                )

    @property
    def m(self) -> int:
        return len(self.n_vec)

    @property
    def num_players(self) -> int:
        return sum(self.n_vec)

    @property
    def class_ranges(self) -> tuple[tuple[int, int], ...]:
        return _class_ranges(self.n_vec)

    def class_players(self, c: int) -> tuple[int, ...]:
        lo, hi = self.class_ranges[c]
        return tuple(range(lo, hi))


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a bool, a non-integer or a
    non-iterable raises :class:`InvalidGameError`."""
    try:
        values = tuple(values)
        return tuple(_integer(v, name) for v in values)
    except (TypeError, InvalidGameError):
        pass
    raise InvalidGameError(f"{name} must be a sequence of integers, got {values!r}")


def _class_ranges(n_vec: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Contiguous ``[lo, hi)`` player ranges of classes of the given sizes."""
    return tuple((end - s, end) for s, end in zip(n_vec, itertools.accumulate(n_vec)))


def model_winning(spec: HierarchicalSpec, model: Model) -> bool:
    """Threshold predicate on a class-count vector."""
    prefix = 0
    hits = []
    for count, k in zip(model, spec.k_vec):
        prefix += count
        hits.append(prefix >= k)
    return any(hits) if spec.kind is Kind.DISJUNCTIVE else all(hits)


def _game_of_models(n_vec: tuple[int, ...], wins: Callable[[Model], bool]) -> SimpleGame:
    """Game over ``sum(n_vec)`` players in contiguous classes whose winning
    coalitions are those with a winning model under the monotone ``wins``.

    The coalitions of the minimal winning models are already the game's
    minimal winning coalitions, so they need no antichain reduction: removing
    a member gives a model one below a minimal one, which loses.
    """
    if math.prod(s + 1 for s in n_vec) > _MODEL_SPACE_LIMIT:
        raise InvalidGameError("model space too large to enumerate")
    classes = [range(lo, hi) for lo, hi in _class_ranges(n_vec)]
    minimal, _ = _model_antichains(n_vec, wins)
    masks = []
    for model in minimal:
        per_class = [
            [sum(1 << p for p in combo) for combo in itertools.combinations(players, count)]
            for players, count in zip(classes, model)
        ]
        masks.extend(sum(parts) for parts in itertools.product(*per_class))
    return SimpleGame._from_minwin_masks(sum(n_vec), masks)


def build(spec: HierarchicalSpec) -> SimpleGame:
    """Game over ``sum(n_vec)`` players with the spec's winning predicate."""
    return _game_of_models(spec.n_vec, lambda model: model_winning(spec, model))


@dataclass(frozen=True)
class PartitenessReport:
    true_m_partite: bool
    violations: tuple[str, ...]


def validate_partiteness(spec: HierarchicalSpec) -> PartitenessReport:
    """Check whether a conjunctive spec's declared classes are its true ones."""
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("partiteness conditions are stated for conjunctive specs")
    violations = []
    if spec.k_vec[0] > spec.n_vec[0]:
        violations.append(f"k1={spec.k_vec[0]} > n1={spec.n_vec[0]}")
    for i in range(1, spec.m):
        if spec.k_vec[i] >= spec.k_vec[i - 1] + spec.n_vec[i]:
            violations.append(
                f"k{i + 1}={spec.k_vec[i]} >= k{i}={spec.k_vec[i - 1]} + n{i + 1}={spec.n_vec[i]}"
            )
    return PartitenessReport(not violations, tuple(violations))


def has_veto_class(spec: HierarchicalSpec) -> bool:
    return spec.k_vec[0] == spec.n_vec[0]


def has_dummy_class(spec: HierarchicalSpec) -> bool:
    return spec.m >= 2 and spec.k_vec[-2] == spec.k_vec[-1]


def veto_players(spec: HierarchicalSpec) -> tuple[int, ...]:
    """Closed form: the top class iff ``k_1 = n_1``, else nobody.

    Matches the game-theoretic veto set whenever the spec is truly
    m-partite (see :func:`validate_partiteness`).
    """
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("veto closed form applies to conjunctive specs")
    return spec.class_players(0) if has_veto_class(spec) else ()


def dummy_players(spec: HierarchicalSpec) -> tuple[int, ...]:
    """Closed form: the bottom class iff ``k_{m-1} = k_m``, else nobody."""
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("dummy closed form applies to conjunctive specs")
    return spec.class_players(spec.m - 1) if has_dummy_class(spec) else ()


def reduce(spec: HierarchicalSpec) -> HierarchicalSpec:
    """Strip a veto top class and a dummy bottom class.

    The result lives on the middle classes with thresholds shifted down by
    ``k_1``; it equals the subgame of the original where all veto players are
    fixed present and the dummies are deleted, and has no veto or dummy class.
    """
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("reduce applies to conjunctive specs")
    if not has_veto_class(spec):
        raise InvalidGameError("spec has no veto class (k1 != n1)")
    if not has_dummy_class(spec):
        raise InvalidGameError("spec has no dummy class (k_{m-1} != k_m)")
    if spec.m < 3:
        raise InvalidGameError("reduction needs at least one middle class")
    k1 = spec.k_vec[0]
    return HierarchicalSpec(
        Kind.CONJUNCTIVE,
        spec.n_vec[1:-1],
        tuple(k - k1 for k in spec.k_vec[1:-1]),
    )


def shift_maximal_losing_models(spec: HierarchicalSpec) -> tuple[Model, ...]:
    """Closed-form shift-maximal losing models of a conjunctive game.

    For each level i there is at most one model: classes past i are full,
    classes up to i are filled greedily from the top to a total of
    ``k_i - 1``.  When the bottom class consists of dummies the last level
    cannot be the only one to fail, so its model is omitted.
    """
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("closed form applies to conjunctive specs")
    report = validate_partiteness(spec)
    if not report.true_m_partite:
        raise InvalidGameError(f"spec is not truly m-partite: {report.violations}")
    levels = spec.m - 1 if has_dummy_class(spec) else spec.m
    out = []
    for i in range(levels):
        target = spec.k_vec[i] - 1
        fill = [0] * spec.m
        rem = target
        for t in range(i + 1):
            take = min(rem, spec.n_vec[t])
            fill[t] = take
            rem -= take
        if rem > 0 or fill[i] >= spec.n_vec[i]:
            continue
        for t in range(i + 1, spec.m):
            fill[t] = spec.n_vec[t]
        out.append(tuple(fill))
    return tuple(sorted(set(out)))


def losing_witness_family(k: int, m: int) -> tuple[SimpleGame, tuple[Coalition, ...]]:
    """Layered disjunctive game plus a large family of losing coalitions.

    The game has a top class of ``k`` players and ``m - 1`` classes of ``2k``
    players with thresholds ``2, 4, ..., 2m``.  Each witness takes one top
    player and one aligned pair from every other class, with the last pair
    index fixed by the sum of the earlier choices mod k; this yields
    ``k**(m-1)`` losing coalitions that are pairwise incompatible, so the
    game's dimension is at least ``k**(m-1)``.
    """
    k, m = _integer(k, "k"), _integer(m, "m")
    if k < 2 or m < 2:
        raise InvalidGameError("family needs k >= 2 and m >= 2")
    n_vec = (k,) + (2 * k,) * (m - 1)
    k_vec = tuple(2 * (i + 1) for i in range(m))
    spec = HierarchicalSpec(Kind.DISJUNCTIVE, n_vec, k_vec)
    game = build(spec)
    n = spec.num_players
    witnesses = []
    for choice in itertools.product(range(k), repeat=m - 1):
        i0, rest = choice[0], choice[1:]
        mask = 1 << i0
        closing = i0
        for t, j in enumerate(rest, start=1):
            lo, _ = spec.class_ranges[t]
            mask |= 0b11 << (lo + 2 * j)
            closing += j
        lo, _ = spec.class_ranges[m - 1]
        mask |= 0b11 << (lo + 2 * (closing % k))
        witnesses.append(Coalition(mask, n))
    witnesses.sort(key=Coalition.sort_key)
    return game, tuple(witnesses)


def build_tripartite(n: tuple[int, int, int], k: tuple[int, int, int]) -> SimpleGame:
    """Three-class game winning on ``|C1|>=k1`` or (``|C1|+|C2|>=k2`` and
    ``|C1|+|C2|+|C3|>=k3``)."""
    n, k = _integers(n, "class sizes"), _integers(k, "thresholds")
    if len(n) != 3 or len(k) != 3:
        raise InvalidGameError(f"tripartite games have three classes, got n={n}, k={k}")
    n1, n2, n3 = n
    k1, k2, k3 = k
    if min(n) < 1:
        raise InvalidGameError(f"class sizes must be >= 1, got n={n}")
    if not (k1 < k3 and k2 < k3 and n1 >= k1 and n2 > k2 - k1 and n3 > k3 - k2):
        raise InvalidGameError(f"tripartite constraints violated for n={n}, k={k}")
    if n1 + n2 + n3 > MAX_PLAYERS:
        raise InvalidGameError(f"total players {n1 + n2 + n3} exceeds cap {MAX_PLAYERS}")
    return _game_of_models(
        n, lambda u: u[0] >= k1 or (u[0] + u[1] >= k2 and u[0] + u[1] + u[2] >= k3)
    )
