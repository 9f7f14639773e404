"""Dimension and codimension as minimum covers of an antichain by separable sets.

README "How dimension is computed" gives the reduction to a set cover, the
bounds, the exact search and the oracle's query order.  ``codimension``
runs the cover on the dual game; ``codimension_direct`` runs the swapped
cover (subsets of W_min that one part can win) on the game itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import and_
from typing import Collection, Literal, Sequence

from . import _exactlp, desirability
from ._exactlp import _EXACT_SIZE_LIMIT, RowBlock, _tableau_size
from .certificates import _swap_split
from .core import (
    MAX_TABLE_PLAYERS,
    Coalition,
    InvalidGameError,
    SimpleGame,
    dual as dual_game,
    maximal_losing_masks,
    _bits,
    _integer,
    _matches_antichains,
)
from .desirability import Model
from .hierarchical import HierarchicalSpec, Kind
from .lpsep import (
    WeightedRep,
    _incidence_rows,
    _primitive,
    _separate,
    _separation_rows,
    _separation_system,
    _trivial_all_win_rep,
    threshold_table,
)


class BudgetExceeded(RuntimeError):
    """Exact search gave up under the configured budget."""


@dataclass(frozen=True)
class Budget:
    """Resource limits for exact dimension computation."""

    max_lmax: int = 30
    clique_exact: int = 200
    max_nodes: int = 300_000

    def __post_init__(self) -> None:
        for name in ("max_lmax", "clique_exact", "max_nodes"):
            value = _integer(getattr(self, name), f"budget {name}")
            if value < 0:
                raise InvalidGameError(f"budget {name} must be nonnegative, got {value}")


def _budget(budget: Budget | None) -> Budget:
    """``budget``, or the default one for None; anything else raises
    :class:`InvalidGameError`."""
    if budget is None:
        return Budget()
    if not isinstance(budget, Budget):
        raise InvalidGameError(f"budget must be a Budget or None, got {budget!r}")
    return budget


@dataclass(frozen=True)
class IntersectionRep:
    n: int
    parts: tuple[WeightedRep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise InvalidGameError("an intersection needs at least one part")
        if any(p.n != self.n for p in self.parts):
            raise InvalidGameError("parts must share the player count")


@dataclass(frozen=True)
class DimensionReport:
    n: int
    num_maximal_losing: int
    lower: int
    upper: int
    exact: int | None
    witness_lower: tuple[Coalition, ...]
    witness_upper: IntersectionRep | None
    notes: tuple[str, ...] = ()


def intersect_games(parts: list[WeightedRep] | tuple[WeightedRep, ...], n: int) -> SimpleGame:
    """Game winning exactly where every part wins (table-gated)."""
    rep = IntersectionRep(n, tuple(parts))
    table = reduce(and_, (threshold_table(p.weights, p.quota, n) for p in rep.parts))
    return SimpleGame._from_table(n, table)


def _one_part_report(part: WeightedRep, note: str) -> DimensionReport:
    """Report on a degenerate game: no cover to search, one part suffices."""
    return DimensionReport(part.n, 0, 1, 1, 1, (), IntersectionRep(part.n, (part,)), (note,))


def _summed_part(
    masks: Collection[int], n: int, lose: bool, fixed: Collection[int] = ()
) -> tuple[list[int], int] | None:
    """Sum of the one-coalition parts of ``masks``, as integer weights and
    quota, if it wins (``lose``) or loses (win) every coalition of ``fixed``.

    The part of one coalition s gives unit weight to the players off s
    (``lose``) or on s (win).  Summed, player i weighs the number of
    coalitions of ``masks`` it is off (on), so a coalition X weighs the sum
    over s of ``popcount(X & ~s)`` (``popcount(X & s)``).  The quota is one
    above the heaviest coalition of ``masks`` (``lose``) or the weight of
    the lightest (win, where it must be at least one), so the sum loses
    (wins) every coalition of ``masks``.  For one coalition in ``lose`` mode
    this is the unit weights off it with quota one, which wins every
    coalition that is not inside it.  An empty ``masks`` has no sum: None,
    so the LP decides.

    The k columns (``~s`` or ``s``) are packed into one int of n-bit
    fields, and ``rep`` has a one at the bottom of each field, so
    ``X * rep`` copies X into every field: X weighs
    ``popcount(X * rep & packed)`` and player i weighs
    ``popcount(rep << i & packed)``, each a constant number of int
    operations whatever k is.
    """
    if not masks:
        return None
    rep = packed = 0
    for s in masks:
        rep = rep << n | 1
        packed = packed << n | s
    if lose:
        packed ^= rep * ((1 << n) - 1)
    sums = [(s * rep & packed).bit_count() for s in masks]
    quota = max(sums) + 1 if lose else min(sums)
    if quota < 1:
        return None
    for m in fixed:
        if ((m * rep & packed).bit_count() < quota) == lose:
            return None
    return [(rep << i & packed).bit_count() for i in range(n)], quota


def upper_bound_lmax(g: SimpleGame) -> tuple[int, IntersectionRep]:
    """The maximal-losing-count bound with its verifying representation.

    The all-winning game has no losing coalitions; it gets bound 1 with the
    trivial part by convention.
    """
    maxlose = maximal_losing_masks(g)
    if not maxlose:
        return 1, IntersectionRep(g.n, (_trivial_all_win_rep(g.n),))
    parts = tuple(WeightedRep(*_summed_part((y,), g.n, True)) for y in maxlose)
    return len(maxlose), IntersectionRep(g.n, parts)


def _lowest(bits: int) -> int:
    """Index of the lowest set bit of a nonzero bitset."""
    return (bits & -bits).bit_length() - 1


class PartOracle:
    """Memoised exact feasibility of a single weighted part.

    Mode ``lose``: can one part win every minimal winning coalition of the
    game while losing all coalitions of a given subset of L_max?  Mode
    ``win``: can one part win a given subset of W_min while losing every
    maximal losing coalition of the game?

    Queries run in the order README "How dimension is computed" gives: the
    orbit cache (pairs in complete games), the stored witnesses, the swap
    scan (pairs), the closed form, then the exact LP.  Witnesses are coprime
    integer weights and quota, made a :class:`WeightedRep` only when handed
    out.  Each owns a bit field in a few shared ints (see ``_store``) and is
    named by the field's top bit, so one sum over a coalition's players
    gives the bitset of the witnesses handling it (losing it in ``lose``
    mode, winning it in ``win`` mode).  A set is handled by the AND of its
    members' bitsets, whose lowest bit is the first witness stored for it.
    ``lp_calls`` counts the LPs.

    In a complete game every permutation within a desirability class is an
    automorphism, so a coalition's orbit is its model, the tuple of its
    member counts per class (``_code``).  The orbit cache keys a pair by the
    models of its two coalitions and of their intersection.  For each orbit
    pair (the two models) the oracle counts the intersection models not yet
    decided compatible; at zero every pair of the two orbits is compatible,
    and ``_settled`` lists each orbit's partners in such pairs.  A large LP
    of a complete game runs over player cells instead (``_cell_lp``) when
    that makes it small, checked on the full system.  Other games have no
    orbit cache, and every coalition has the empty model.
    """

    def __init__(self, g: SimpleGame, mode: Literal["lose", "win"] = "lose"):
        if mode not in ("lose", "win"):
            raise InvalidGameError(f"oracle mode must be 'lose' or 'win', got {mode!r}")
        self.g = g
        self.n = g.n
        self.mode = mode
        # what every part must handle the other way: win W_min when losing
        # subsets of L_max, lose L_max when winning subsets of W_min
        self._fixed_masks = list(g.minwin_masks) if mode == "lose" else maximal_losing_masks(g)
        self._fixed = RowBlock(_incidence_rows(self._fixed_masks, g.n, mode == "lose"), g.n + 1)
        self._pair_orbit: dict[tuple[Model, Model, Model], bool] | None = None
        self._codes: dict[int, Model] = {}
        self._undecided: dict[tuple[Model, Model], int] = {}  # orbit pair -> models undecided
        self._settled: dict[Model, list[Model]] = {}  # model -> all-compatible partner models
        # stored witnesses as coprime integer weights and quota, by top bit
        self._witnesses: dict[int, tuple[list[int], int]] = {}
        self._columns = [0] * g.n  # per player: its weight in every field
        self._bias = self._tops = 0  # per field: 2**(F-1) - quota; a one at its top
        self.lp_calls = 0
        self._class_masks = self._sizes = ()  # per desirability class: its player mask; its size
        self._cell_blocks: dict[tuple[tuple[int, ...], ...], tuple[RowBlock, dict]] = {}
        if g.n <= MAX_TABLE_PLAYERS and desirability.is_complete(g):
            partition = desirability.equivalence_classes(g)
            self._class_masks, self._sizes = partition._class_masks, partition.sizes
            self._pair_orbit = {}

    # -- helpers -------------------------------------------------------------

    def _code(self, mask: int) -> Model:
        """Model of ``mask``: its member counts per desirability class."""
        code = self._codes.get(mask)
        if code is None:
            code = self._codes[mask] = tuple((mask & cm).bit_count() for cm in self._class_masks)
        return code

    def _possible_codes(self, ca: Model, cb: Model) -> int:
        """Number of intersection models of non-nested pairs from the orbits
        ``ca`` and ``cb`` of an antichain: per class of size s, a and b with
        pa and pb members share from ``max(0, pa + pb - s)`` to
        ``min(pa, pb)`` of them.  Two orbits of an antichain have models
        that neither bounds the other unless they are one orbit, whose
        model itself is then the nested one.  (Outside an antichain the
        count may be one too high, which only keeps the pair unsettled.)"""
        count = 1
        for pa, pb, s in zip(ca, cb, self._sizes):
            count *= min(pa, pb) - max(0, pa + pb - s) + 1
        return count - (ca == cb)

    def _decided_compatible(self, ca: Model, cb: Model) -> None:
        """Count one more intersection model of the orbit pair ``(ca, cb)``
        decided compatible; record the pair in ``_settled`` once none is left."""
        left = self._undecided.get((ca, cb))
        if left is None:
            left = self._possible_codes(ca, cb)
        self._undecided[ca, cb] = left = left - 1
        if not left:
            self._settled.setdefault(ca, []).append(cb)
            if cb != ca:
                self._settled.setdefault(cb, []).append(ca)

    def _handled(self, mask: int) -> int:
        """Bitset of the stored witnesses that handle ``mask``: the top bits
        of the fields where ``mask``'s weight plus the bias reaches the top
        (wins, for ``win`` mode) or does not (loses, for ``lose`` mode)."""
        total = sum(map(self._columns.__getitem__, _bits(mask)), self._bias)
        return total & self._tops if self.mode == "win" else ~total & self._tops

    def _common(self, masks) -> int:
        """Bitset of the stored witnesses handling every coalition of ``masks``."""
        common = self._tops
        for m in masks:
            if not common:
                break
            common &= self._handled(m)
        return common

    def _rep(self, k: int) -> WeightedRep:
        """The stored witness keyed ``k`` as a :class:`WeightedRep`."""
        weights, quota = self._witnesses[k]
        return WeightedRep(tuple(weights), quota)

    def _store(self, weights: list[int], quota: int) -> int:
        """Store a witness given in coprime integers; return its key, the
        top bit of the field it gets above all earlier fields.

        The field is F = ``max(sum(weights), quota).bit_length() + 1`` bits
        wide and holds each player's weight in ``_columns`` and
        ``2**(F-1) - quota`` in ``_bias``.  A coalition X sums there to
        ``2**(F-1) + w(X) - quota``, which is below ``2**F``, so no field
        carries into the next, and has the top bit exactly when
        ``w(X) >= quota``.
        """
        low = self._tops.bit_length()
        width = max(sum(weights), quota).bit_length()  # F - 1
        for i, w in enumerate(weights):
            self._columns[i] |= w << low
        self._bias |= (1 << width) - quota << low
        top = low + width
        self._tops |= 1 << top
        self._witnesses[top] = weights, quota
        return top

    def _closed_form(self, masks: Collection[int]) -> tuple[list[int], int] | None:
        """The sum of the one-coalition parts of ``masks`` in coprime form,
        if it handles no coalition of the fixed side, else None."""
        found = _summed_part(masks, self.n, self.mode == "lose", self._fixed_masks)
        if found is None:
            return None
        *weights, quota = _primitive(found[0] + [found[1]])
        return weights, quota

    def _lp(self, masks: frozenset[int]) -> int | None:
        """Key of the witness the LP stores for ``masks``, or None.

        In a complete game an LP whose tableau over the players is above
        ``_EXACT_SIZE_LIMIT`` is tried over cells (:meth:`_cell_lp`); every
        other LP is solved over the players."""
        self.lp_calls += 1
        ordered = sorted(masks)
        variable = _incidence_rows(ordered, self.n, self.mode == "win")
        rows = len(self._fixed.rows) + len(variable) + 1
        if self._pair_orbit is not None and _tableau_size(self.n + 1, rows) > _EXACT_SIZE_LIMIT:
            found = self._cell_lp(ordered, variable)
        else:
            found = self._player_lp(variable)
        if found is None:
            return None
        *weights, quota = _primitive(found)
        return self._store(weights, quota)

    def _player_lp(self, variable: list) -> list[int] | None:
        """Weights then quota of a point of the separation system over the
        players with the queried rows ``variable``; None if it has none."""
        res = _separate(self._fixed, variable)
        return res.nums[: self.n + 1] if res.feasible else None

    def _cells(self, masks: list[int]) -> list[list[int]]:
        """Per desirability class, the masks of its cells: the class split
        by membership in each pinned coalition of ``masks``, one whose orbit
        does not lie wholly in ``masks``."""
        in_set = Counter(map(self._code, masks))  # model -> members in masks
        pinned = {
            code for code, k in in_set.items() if k < math.prod(map(math.comb, self._sizes, code))
        }
        cells = [[cm] for cm in self._class_masks]
        for m in masks:
            if self._code(m) in pinned:
                cells = [[part for c in cls for part in (c & m, c & ~m) if part] for cls in cells]
        return cells

    def _cell_block(self, shape: tuple[tuple[int, ...], ...]) -> tuple[RowBlock, dict]:
        """The fixed side over cells of the sizes ``shape`` (per class, its
        cells' sizes) and the index of each row's cell counts: every model
        of the fixed side split over its classes' cells in every way the
        cell sizes allow, one row per split."""
        found = self._cell_blocks.get(shape)
        if found is None:
            index: dict[tuple[int, ...], int] = {}
            # the models in lexicographic order, as desirability lists them
            for model in sorted(set(map(self._code, self._fixed_masks))):
                for split in product(*map(_splits, model, shape)):
                    index[sum(split, ())] = len(index)
            width = sum(map(len, shape)) + 1
            block = RowBlock(_separation_rows(index, self.mode == "lose"), width)
            found = self._cell_blocks[shape] = block, index
        return found

    def _cell_lp(self, masks: list[int], variable: list) -> list[int] | None:
        """What :meth:`_player_lp` gives for the coalitions ``masks`` (their
        rows are ``variable``), found over cells when the cell system's
        tableau is at most ``_EXACT_SIZE_LIMIT``.

        The variables are one weight per cell (:meth:`_cells`) and the
        quota; a row is a coalition's member count per cell, one per
        distinct count vector of each side.  Every within-class permutation
        that fixes each cell is a game automorphism and maps ``masks`` onto
        itself, so averaging a point over them gives a point constant on
        cells: both systems are feasible together.  The cell point, each
        player given its cell's weight, must pass ``check_point`` on the
        full system.  A cell certificate is spread evenly over the full
        rows with each row's counts, scaled to integers by the lcm of their
        numbers, and must pass ``check_farkas``.  A failed check raises
        AssertionError.  A larger cell system is not solved: its cells are
        then nearly single players, and the exact simplex pivots its member
        count rows slower than the full system's 0/1 rows, so the full
        system is solved instead."""
        cells = self._cells(masks)
        flat = [c for cls in cells for c in cls]
        shape = tuple(tuple(c.bit_count() for c in cls) for cls in cells)
        block, fixed_index = self._cell_block(shape)

        def counts(m: int) -> tuple[int, ...]:
            return tuple((m & c).bit_count() for c in flat)

        groups = Counter(map(counts, masks))  # each count vector of masks, in order: members
        rows = len(block.rows) + len(groups) + 1
        if _tableau_size(block.width, rows) > _exactlp._EXACT_SIZE_LIMIT:
            return self._player_lp(variable)
        res = _separate(block, _separation_rows(groups, self.mode == "win"))
        full = _separation_system(self._fixed, variable)
        u = res.nums
        if res.feasible:
            point = [0] * self.n + [u[len(flat)]]
            for c, w in zip(flat, u):
                for p in _bits(c):
                    point[p] = w
            if not full.check_point(point, res.den):
                raise AssertionError("lifted cell point failed the full separation system")
            return point
        sizes = [c.bit_count() for c in flat]
        members = [math.prod(map(math.comb, sizes, v)) for v in fixed_index] + list(groups.values())
        scale = math.lcm(*members)
        per_row = [k * (scale // size) for k, size in zip(u, members)]
        set_index = {v: len(fixed_index) + j for j, v in enumerate(groups)}
        lifted = [per_row[fixed_index[counts(m)]] for m in self._fixed_masks]
        lifted += [per_row[set_index[counts(m)]] for m in masks]
        lifted.append(u[-1] * scale)
        if not full.check_farkas(lifted, res.den * scale):
            raise AssertionError("lifted cell certificate failed the full separation system")
        return None

    def _index(self, masks: frozenset[int]) -> int | None:
        """Key of the first stored witness handling every coalition of
        ``masks``, else ``_new_index(masks)``."""
        common = self._common(masks)
        return _lowest(common) if common else self._new_index(masks)

    def _new_index(self, masks: frozenset[int]) -> int | None:
        """For ``masks`` that no stored witness handles: key of the
        closed-form or LP witness stored for them, or None if inseparable."""
        found = self._closed_form(masks)
        return self._lp(masks) if found is None else self._store(*found)

    # -- queries -------------------------------------------------------------

    def separable_set(self, masks: frozenset[int]) -> WeightedRep | None:
        k = self._index(masks)
        return None if k is None else self._rep(k)

    def pair_compatible(self, a: int, b: int) -> bool:
        """True iff one part can handle both coalitions together."""
        orbit = self._pair_orbit
        if orbit is None:
            return self._pair_verdict(a, b)
        ca, cb, ci = self._code(a), self._code(b), self._code(a & b)
        if cb < ca:
            ca, cb = cb, ca
        verdict = orbit.get((ca, cb, ci))
        if verdict is None:
            verdict = orbit[ca, cb, ci] = self._pair_verdict(a, b)
            if verdict and ci != ca and ci != cb:  # a nested pair lies outside every antichain
                self._decided_compatible(ca, cb)
        return verdict

    def _pair_verdict(self, a: int, b: int) -> bool:
        pair = frozenset((a, b))
        if self._common(pair):
            return True
        if _swap_split(self.g, a, b, self.mode == "lose") is not None:
            return False
        return self._new_index(pair) is not None

    def _open(self, mask: int) -> int:
        """Bitset of the stored witnesses handling ``mask``, the first
        coalition of a cover block; if none does, ``_new_index`` stores its
        closed-form part first."""
        if not self._handled(mask) and self._new_index(frozenset((mask,))) is None:
            raise AssertionError("singleton blocks are always feasible")
        return self._handled(mask)

    def _join(self, masks: list[int], common: int, mask: int) -> int:
        """Bitset of stored witnesses to keep for ``masks`` plus ``mask``;
        0 if no part handles them together.

        ``common`` is the bitset of the nonempty block ``masks``.  It may
        miss witnesses stored since it was taken; their fields sit above all
        of its bits, so a nonzero AND with ``mask``'s bitset still starts at
        the first stored witness handling the whole set.  Only when that AND
        is 0 does the full ``_index`` query run; a witness it finds handles
        every member, so its bit is in the recomputed AND.
        """
        common &= self._handled(mask)
        if common:
            return common
        if self._index(frozenset(masks).union((mask,))) is None:
            return 0
        return self._common(masks) & self._handled(mask)


@lru_cache(maxsize=4096)
def _splits(count: int, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every way to place ``count`` members in cells of the sizes ``sizes``,
    at most a cell's size in each, in lexicographic order."""
    if len(sizes) == 1:
        return ((count,),) if count <= sizes[0] else ()
    head, tail = sizes[0], sizes[1:]
    return tuple((k,) + rest for k in range(min(count, head) + 1) for rest in _splits(count - k, tail))


def _graph_on(verts: list[int], oracle: PartOracle) -> list[int]:
    """Adjacency bitsets; an edge joins coalitions no single part can handle together.

    Row i asks ``pair_compatible`` about each j > i but the members of the
    orbits that ``_settled`` pairs with i's orbit (complete games only),
    dropped with one AND each.  Those pairs are orbit hits that answer
    compatible, so verdicts, witnesses and LPs come as from every pair in order.
    """
    nv = len(verts)
    adj = [0] * nv
    codes = [oracle._code(v) for v in verts]
    members: dict[Model, int] = {}  # model -> bitset of the vertex indices in its orbit
    for j, c in enumerate(codes):
        members[c] = members.get(c, 0) | 1 << j
    everyone = (1 << nv) - 1
    for i, a in enumerate(verts):
        todo = everyone ^ ((2 << i) - 1)  # the indices above i
        for cb in oracle._settled.get(codes[i], ()):
            todo &= ~members.get(cb, 0)
        for j in _bits(todo):
            if not oracle.pair_compatible(a, verts[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _greedy_clique(adj: list[int]) -> list[int]:
    best: list[int] = []
    nv = len(adj)
    for start in range(nv):
        clique = [start]
        cand = adj[start]
        while cand:
            pick, pick_deg = -1, -1
            for v in _bits(cand):
                deg = (cand & adj[v]).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = v, deg
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _max_clique(adj: list[int]) -> list[int]:
    """Exact maximum clique, branch and bound with greedy colouring bound."""
    nv = len(adj)
    best: list[int] = []

    def expand(clique: list[int], cand_mask: int) -> None:
        nonlocal best
        if cand_mask == 0:
            if len(clique) > len(best):
                best = clique[:]
            return
        cand = _bits(cand_mask)
        color_classes: list[int] = []
        color_of: dict[int, int] = {}
        for v in cand:
            for ci, cls in enumerate(color_classes):
                if not adj[v] & cls:
                    color_classes[ci] |= 1 << v
                    color_of[v] = ci + 1
                    break
            else:
                color_classes.append(1 << v)
                color_of[v] = len(color_classes)
        order = sorted(cand, key=lambda v: (color_of[v], v))
        remaining = cand_mask
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if len(clique) + color_of[v] <= len(best):
                return
            clique.append(v)
            expand(clique, remaining & adj[v])
            clique.pop()
            remaining &= ~(1 << v)

    expand([], (1 << nv) - 1)
    return sorted(best)


def _clique(adj: list[int], clique_exact: int) -> list[int]:
    """Maximum clique up to ``clique_exact`` vertices, greedy (still nonempty) beyond."""
    return _max_clique(adj) if len(adj) <= clique_exact else _greedy_clique(adj)


def _is_bipartite(adj: list[int]) -> bool:
    nv = len(adj)
    color = [-1] * nv
    for s in range(nv):
        if color[s] >= 0 or not adj[s]:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in _bits(adj[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def kurz_napel_lower(
    g: SimpleGame, clique_exact: int = Budget.clique_exact
) -> tuple[int, tuple[Coalition, ...]]:
    """Clique lower bound from pairwise-inseparable maximal losing coalitions.

    The clique is exact up to ``clique_exact`` vertices and greedy beyond,
    which still yields a valid lower bound (then possibly not maximum).
    """
    clique_exact = Budget(clique_exact=clique_exact).clique_exact
    verts = maximal_losing_masks(g)
    if not verts:
        return 1, ()
    clique = _clique(_graph_on(verts, PartOracle(g, "lose")), clique_exact)
    return len(clique), tuple(Coalition(verts[v], g.n) for v in clique)


def _exists_cover(
    oracle: PartOracle,
    verts: list[int],
    adj: list[int],
    d: int,
    seed_clique: list[int],
    max_nodes: int,
) -> list[tuple[list[int], WeightedRep]] | None:
    """Branch and bound: partition all vertices into at most d feasible
    blocks, or prove impossibility (see :func:`_first_cover`).  The first d
    clique members each open a block; the other vertices follow by falling
    degree."""
    pre = seed_clique[:d]
    order = pre + sorted(
        (v for v in range(len(verts)) if v not in pre),
        key=lambda v: (-adj[v].bit_count(), v),
    )
    return _first_cover(oracle, verts, adj, order, len(pre), d, max_nodes)


def _first_cover(
    oracle: PartOracle,
    verts: list[int],
    adj: list[int],
    order: Sequence[int],
    opened: int,
    d: int,
    max_nodes: float,
) -> list[tuple[list[int], WeightedRep]] | None:
    """First partition of the vertex indices ``order`` into at most d
    feasible blocks, each returned as its coalition masks with the first
    stored witness handling it; None if there is none.

    The first ``opened`` vertices each open a block.  Each later vertex
    tries the open blocks in order, then a new block while fewer than d are
    open.  Placements are kept on ``trail`` and undone by popping it, so no
    recursion limit caps the vertex count.  The start and each placement
    kept count one node; past ``max_nodes`` it raises BudgetExceeded.

    Forward checking: once all d blocks are open, a placement after which
    some vertex still to be placed is adjacent to every block is undone
    without counting a node.  That vertex could join no block, so no cover
    extends the placement; the cut changes neither the order of the search
    nor the first cover it finds.
    """
    nv = len(order)
    rest = [0] * (nv + 1)  # rest[i]: bitset of the vertices at positions >= i
    for i in range(nv - 1, -1, -1):
        rest[i] = rest[i + 1] | 1 << order[i]
    blocks: list[list[int]] = [[verts[v]] for v in order[:opened]]
    block_adj: list[int] = [adj[v] for v in order[:opened]]
    common: list[int] = [oracle._open(verts[v]) for v in order[:opened]]
    # per placement: its block, and that block's adj and common before it (0, 0 if it opened it)
    trail: list[tuple[int, int, int]] = []
    nodes, b = 1, 0  # b: the next block to try for the vertex at position idx
    while True:
        if nodes > max_nodes:
            raise BudgetExceeded(f"cover search exceeded {max_nodes} nodes")
        idx = opened + len(trail)
        if idx == nv:
            return [(blk, oracle._rep(_lowest(c))) for blk, c in zip(blocks, common)]
        v = order[idx]
        while b < len(blocks) and (
            block_adj[b] >> v & 1 or not (joined := oracle._join(blocks[b], common[b], verts[v]))
        ):
            b += 1
        if b < len(blocks):
            trail.append((b, block_adj[b], common[b]))
            blocks[b].append(verts[v])
            block_adj[b] |= adj[v]
            common[b] = joined
        elif b == len(blocks) < d:
            trail.append((b, 0, 0))
            blocks.append([verts[v]])
            block_adj.append(adj[v])
            common.append(oracle._open(verts[v]))
        if b < len(blocks) and (len(blocks) < d or not rest[idx + 1] & reduce(and_, block_adj)):
            nodes += 1
            b = 0
            continue
        if not trail:
            return None
        # undo the placement just made, or the last one if v found no block
        b, saved_adj, saved_common = trail.pop()
        blocks[b].pop()
        if blocks[b]:
            block_adj[b], common[b] = saved_adj, saved_common
        else:
            blocks.pop()
            block_adj.pop()
            common.pop()
        b += 1


def _check_cover(
    parts: tuple[WeightedRep, ...], verts: list[int], fixed: list[int], mode: Literal["lose", "win"]
) -> None:
    """Exact check that the parts combine to the game, at any player count.

    Mode ``lose`` (intersection): the AND of the parts must win every
    minimal winning coalition (``fixed``) and lose every maximal losing one
    (``verts``).  Mode ``win`` (union): their OR must win every minimal
    winning coalition (``verts``) and lose every maximal losing one
    (``fixed``).  The parts are monotone, so this antichain test equals
    comparing truth tables.
    """
    combine, minwin, maxlose = (all, fixed, verts) if mode == "lose" else (any, verts, fixed)
    if not _matches_antichains(lambda xs: combine(p._wins(xs) for p in parts), minwin, maxlose):
        raise AssertionError(f"{mode} cover witness failed verification")


def _cover_report(
    g: SimpleGame, verts: list[int], mode: Literal["lose", "win"], budget: Budget
) -> DimensionReport:
    """Bounds-plus-exact pipeline for both cover directions.

    Mode ``lose`` covers L_max and its parts must intersect to the game;
    mode ``win`` covers W_min and its parts must unite to it.  The witness
    is checked exactly against both antichains of the game.
    """
    if len(verts) > budget.max_lmax:
        name = "L_max" if mode == "lose" else "W_min"
        note = f"|{name}|={len(verts)} exceeds budget {budget.max_lmax}: bounds only"
        return DimensionReport(g.n, len(verts), 1, len(verts), None, (), None, (note,))
    oracle = PartOracle(g, mode)
    notes: list[str] = []
    adj = _graph_on(verts, oracle)
    clique = _clique(adj, budget.clique_exact)
    if len(verts) > budget.clique_exact:
        notes.append("clique bound is greedy (vertex count above exact budget)")
    lower = len(clique)
    if lower == 2 and not _is_bipartite(adj):
        lower = 3
        notes.append("odd cycle in incompatibility graph raises lower bound to 3")
    # the upper bound: with a block per vertex allowed nothing is undone, so first fit in index order
    blocks = _first_cover(oracle, verts, adj, range(len(verts)), 0, len(verts), math.inf)
    upper = len(blocks)
    if lower > upper:
        raise AssertionError("bound inversion: oracle inconsistency")
    exact: int | None = None
    try:
        for d in range(lower, upper):
            found = _exists_cover(oracle, verts, adj, d, clique, budget.max_nodes)
            if found is not None:
                exact = upper = d
                blocks = found
                break
        else:
            exact = upper
    except BudgetExceeded as exc:
        notes.append(str(exc))
    witness = IntersectionRep(g.n, tuple(rep for _, rep in blocks))
    _check_cover(witness.parts, verts, oracle._fixed_masks, mode)
    witness_lower = tuple(Coalition(verts[v], g.n) for v in clique)
    return DimensionReport(
        g.n, len(verts), lower, upper, exact, witness_lower, witness, tuple(notes)
    )


def exact_dimension(g: SimpleGame, budget: Budget | None = None) -> DimensionReport:
    """Exact dimension via minimum separable cover of the maximal losing set.

    Degenerate games with no losing or no winning coalitions have dimension 1
    by convention.  When the budget is exhausted the report carries bounds
    with ``exact=None``.
    """
    budget = _budget(budget)
    maxlose = maximal_losing_masks(g)
    if not maxlose:
        note = "all-winning game: dimension 1 by convention"
        return _one_part_report(_trivial_all_win_rep(g.n), note)
    return _cover_report(g, maxlose, "lose", budget)


def conjunctive_intersection_rep(spec: HierarchicalSpec) -> IntersectionRep:
    """One 0/1-weighted part per level: weight on the first s classes,
    quota ``k_s``; the parts intersect to the built game."""
    if spec.kind is not Kind.CONJUNCTIVE:
        raise InvalidGameError("intersection construction applies to conjunctive specs")
    n = spec.num_players
    parts = []
    for s in range(spec.m):
        cutoff = spec.class_ranges[s][1]
        weights = tuple(Fraction(1 if p < cutoff else 0) for p in range(n))
        parts.append(WeightedRep(weights, Fraction(spec.k_vec[s])))
    return IntersectionRep(n, tuple(parts))


def codimension(g: SimpleGame, budget: Budget | None = None) -> DimensionReport:
    """Minimum union size, computed as the dimension of the dual game."""
    report = exact_dimension(dual_game(g), _budget(budget))
    return replace(report, notes=report.notes + ("computed on the dual game",))


def codimension_direct(g: SimpleGame, budget: Budget | None = None) -> DimensionReport:
    """Minimum union size by covering W_min with jointly-winnable subsets.

    No dual game is constructed: each part must win its subset of minimal
    winning coalitions while losing every maximal losing coalition.  Agrees
    with :func:`codimension` (they are the same cover problem under
    complementation); kept as a distinct route for cross-checking.
    """
    budget = _budget(budget)
    minwin = list(g.minwin_masks)
    if not minwin:
        # all-lose game is the union of one weighted game losing everything
        all_lose = WeightedRep((Fraction(0),) * g.n, Fraction(1))
        return _one_part_report(all_lose, "all-losing game: codimension 1")
    if minwin[0] == 0:
        note = "all-winning game: codimension 1 by convention"
        return _one_part_report(_trivial_all_win_rep(g.n), note)
    return _cover_report(g, minwin, "win", budget)
