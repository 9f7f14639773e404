"""Trading transforms and certificates of non-weightedness.

A trading transform rearranges the players of one coalition sequence into
another: every player appears in the pre-sequence exactly as often as in the
post-sequence.  When every pre-coalition wins and every post-coalition loses
it certifies that no weighted representation exists, because any weights
would force ``j*quota <= total weight = total weight <= j*(quota - margin)``.

Certificates found here are always returned verified.  ``find_certificate``
is a bounded search: a None answer is relative to ``max_len`` unless the
underlying exact separation LP was feasible, in which case no certificate of
any length exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import desirability, lpsep
from .core import (
    MAX_TABLE_PLAYERS,
    Coalition,
    InvalidGameError,
    SimpleGame,
    maximal_losing_masks,
    _canonical_key,
    _coalition,
    _integer,
)
from .lpsep import _primitive, separable_result


@dataclass(frozen=True)
class TradingTransform:
    pre: tuple[Coalition, ...]
    post: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        pre, post = self.pre, self.post
        if type(pre) is not tuple:
            object.__setattr__(self, "pre", pre := tuple(pre))
        if type(post) is not tuple:
            object.__setattr__(self, "post", post := tuple(post))
        if len(pre) != len(post):
            raise InvalidGameError("pre and post sequences must have equal length")
        if not pre:
            raise InvalidGameError("empty trading transform")
        if len({c.n for c in pre + post}) != 1:
            raise InvalidGameError("all coalitions must share one player universe")

    @property
    def length(self) -> int:
        return len(self.pre)

    @property
    def n(self) -> int:
        return self.pre[0].n


def verify_trading_transform(tt: TradingTransform) -> bool:
    """Balance check: identical per-player multiplicities on both sides."""
    return _bit_planes(c.mask for c in tt.pre) == _bit_planes(c.mask for c in tt.post)


def _bit_planes(masks: Iterable[int]) -> list[int]:
    """Per-player membership counts of ``masks`` in binary, bit-sliced: bit
    ``p`` of plane ``k`` is bit ``k`` of player ``p``'s count.  Counts only
    grow, so the planes run exactly up to the largest count's top bit, and
    two sequences are balanced iff their planes are equal."""
    planes: list[int] = []
    for carry in masks:
        for k, plane in enumerate(planes):  # ripple-carry add of one mask
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def verify_certificate(g: SimpleGame, tt: TradingTransform) -> bool:
    """True iff every pre-coalition wins and every post-coalition loses.
    An unbalanced transform raises :class:`InvalidGameError`."""
    if tt.n != g.n:
        raise InvalidGameError("transform and game player counts differ")
    pre = [c.mask for c in tt.pre]
    post = [c.mask for c in tt.post]
    if _bit_planes(pre) != _bit_planes(post):
        raise InvalidGameError("unbalanced trading transform")
    if g.n > MAX_TABLE_PLAYERS:
        wins = g.wins_mask
        return all(map(wins, pre)) and not any(map(wins, post))
    t = g.table
    for m in pre:
        if not t >> m & 1:
            return False
    for m in post:
        if t >> m & 1:
            return False
    return True


def _checked_certificate(
    g: SimpleGame, pre: Iterable[int], post: Iterable[int], route: str
) -> TradingTransform:
    """The transform from masks ``pre`` to masks ``post``, each side in
    canonical (cardinality, mask) order, once ``verify_certificate`` has
    accepted it; a rejected one raises ``AssertionError`` naming ``route``.
    The masks come from ``g``'s own coalitions, so they skip the range check."""
    n = g.n
    tt = TradingTransform(
        tuple([_coalition(m, n) for m in sorted(pre, key=_canonical_key)]),
        tuple([_coalition(m, n) for m in sorted(post, key=_canonical_key)]),
    )
    if not verify_certificate(g, tt):
        raise AssertionError(f"{route} certificate failed verification")
    return tt


def pair_incompatibility_certificate(
    g: SimpleGame, y1: Coalition, y2: Coalition
) -> TradingTransform | None:
    """Length-2 certificate with posts exactly ``(y1, y2)``, if one exists.

    Balance forces the pre-coalitions to split the multiset union of the
    posts: shared players sit in both pres, the symmetric difference is
    partitioned.  The scan over partitions is complete, so None here rules
    out every length-2 certificate with these posts; the pair may still be
    inseparable, which only the exact LP decides.  The scan is capped at
    ``MAX_TABLE_PLAYERS`` (20) players in ``y1 xor y2``, which never binds
    on table-backed games; a larger difference raises
    :class:`InvalidGameError`.
    """
    if y1.n != g.n or y2.n != g.n:
        raise InvalidGameError("coalitions and game player counts differ")
    if g.wins_mask(y1.mask) or g.wins_mask(y2.mask):
        raise InvalidGameError("both post coalitions must be losing")
    if (y1.mask ^ y2.mask).bit_count() > MAX_TABLE_PLAYERS:
        raise InvalidGameError("symmetric difference too large for the pattern scan")
    split = _swap_split(g, y1.mask, y2.mask, True)
    return None if split is None else _checked_certificate(g, split, (y1.mask, y2.mask), "pair")


def _swap_split(g: SimpleGame, a: int, b: int, win: bool) -> tuple[int, int] | None:
    """Two coalitions splitting the multiset union of ``a`` and ``b`` that
    both win (``win``) or both lose, or None.  Such a split proves that no
    weighted part loses both (wins both, when ``win`` is false).

    Past ``MAX_TABLE_PLAYERS`` players in ``a xor b`` the scan is skipped:
    without a table each of its 2**20+ tests scans the minimal winning list.
    """
    delta = a ^ b
    if delta == 0 or delta.bit_count() > MAX_TABLE_PLAYERS:
        return None
    both = a & b
    low = delta & -delta
    rest = delta ^ low
    wins = g.wins_mask
    # iterate submasks of rest; the fixed low bit breaks X1/X2 symmetry
    sub = rest
    while True:
        x1 = both | low | sub
        x2 = both | (rest ^ sub)
        if wins(x1) == win and wins(x2) == win:
            return x1, x2
        if sub == 0:
            return None
        sub = (sub - 1) & rest


def find_certificate(g: SimpleGame, max_len: int = 4) -> TradingTransform | None:
    """Search for a certificate of length at most ``max_len``.

    Strategy: an incomparable player pair yields an immediate swap
    certificate; otherwise all length-2 certificates over maximal losing
    pairs are scanned (pairs more than ``MAX_TABLE_PLAYERS`` players apart
    are skipped); finally, if the exact separation LP is infeasible its
    integer multipliers are assembled into a certificate.  A feasible LP
    proves no certificate of any length exists.  None with an infeasible LP
    whose assembled certificate exceeds ``max_len`` is bound-relative.
    """
    if _integer(max_len, "max_len") < 2:
        raise InvalidGameError("certificates have length at least 2")
    full = (1 << g.n) - 1
    if g.wins_mask(0) or not g.wins_mask(full):
        return None  # all-win and all-lose games are weighted by convention
    if g.n <= MAX_TABLE_PLAYERS:
        pair = desirability.incomparable_pair(g)
        if pair is not None:
            return _incomparability_certificate(g, *pair)
    if lpsep.is_weighted(g) is not None:
        return None  # weighted: no certificate of any length exists
    maxlose = maximal_losing_masks(g)
    for a, ya in enumerate(maxlose):
        for yb in maxlose[a + 1 :]:
            split = _swap_split(g, ya, yb, True)
            if split is not None:
                return _checked_certificate(g, split, (ya, yb), "pair")
    res = separable_result(g.n, g.minwin_masks, maxlose)
    if res.feasible:
        raise AssertionError("weightedness check and separation LP disagree")
    cert = _certificate_from_farkas(g, res.nums, g.minwin_masks, maxlose)
    return cert if cert.length <= max_len else None


def _incomparability_certificate(g: SimpleGame, i: int, j: int) -> TradingTransform:
    # win1 = X|{j} wins, X|{i} loses; win2 symmetric
    win1, win2 = desirability.incomparability_witness(g, i, j)
    bi, bj = 1 << i, 1 << j
    post1, post2 = (win1 ^ bj) | bi, (win2 ^ bi) | bj
    return _checked_certificate(g, (win1, win2), (post1, post2), "incomparability")


def _certificate_from_farkas(
    g: SimpleGame,
    farkas: Sequence[int],
    win_rows: Sequence[int],
    lose_rows: Sequence[int],
) -> TradingTransform:
    """Assemble a certificate from the exact multipliers of the infeasible
    LP over the rows [win_rows; lose_rows; q >= 1], given as integer
    numerators over a common positive denominator.

    Scaled to integers, the multipliers put each player in at least as many
    post (losing) as pre (winning) coalitions, and give at least as many
    pres as posts (the quota column).  Padding with empty losing coalitions
    equalises the lengths, so each player's deficit is at most the number
    of pres without it, and it joins the first of those (supersets stay
    winning).  Posts exist unless every pre is empty: the all-win game.
    """
    ints = _primitive(farkas[: len(win_rows) + len(lose_rows)])
    pre = [m for m, k in zip(win_rows, ints) for _ in range(k)]
    post = [m for m, k in zip(lose_rows, ints[len(win_rows) :]) for _ in range(k)]
    post += [0] * (len(pre) - len(post))
    for p in range(g.n):
        bit = 1 << p
        deficit = sum(m >> p & 1 for m in post) - sum(m >> p & 1 for m in pre)
        for i in [i for i, m in enumerate(pre) if not m & bit][:deficit]:
            pre[i] |= bit
    return _checked_certificate(g, pre, post, "Farkas")
