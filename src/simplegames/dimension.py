"""Dimension machinery: intersection representations, bounds, exact search.

A game equals an intersection of ``d`` weighted games exactly when its
maximal losing coalitions can be covered by ``d`` *separable* subsets: sets
S for which one weighted game wins every winning coalition while losing all
of S.  (Each part of an intersection must win all of W; every maximal losing
coalition must lose in some part; with nonnegative weights a part that loses
S also loses everything below S; conversely the witnesses of a cover
intersect back to the game.)  Dimension is therefore a minimum set cover
with an exact LP feasibility oracle:

* lower bounds: a clique of pairwise-inseparable maximal losing coalitions
  (no part can lose two inseparable ones), plus an odd-cycle test on the
  same graph, since any cover induces a proper colouring;
* upper bounds: one part per maximal losing coalition, improved by a greedy
  feasibility-preserving cover;
* exact value: iterative-deepening branch and bound over block assignments,
  memoised and pruned by the incompatibility graph.

The union-side quantity (codimension: minimum number of weighted games whose
union is the game) is the same cover problem with roles swapped: subsets of
minimal winning coalitions that one part can win while staying inside the
game.  ``codimension`` computes it on the dual game; ``codimension_direct``
runs the swapped cover on the game itself.

Pair verdicts in symmetric games are cached per orbit: swapping equally
desirable players is a game automorphism, so a pair's verdict depends only
on the class-count profiles of the two coalitions and of their intersection.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Literal

from . import desirability
from .certificates import _swap_split
from .core import (
    MAX_TABLE_PLAYERS,
    Coalition,
    InvalidGameError,
    SimpleGame,
    dual as dual_game,
    maximal_losing_masks,
    _bits,
    _popcount,
)
from .hierarchical import HierarchicalSpec, Kind
from .lpsep import WeightedRep, _canonical_rep, _incidence_rows, _separate, threshold_table

_ORBIT_MEMO_MAX_N = MAX_TABLE_PLAYERS


class BudgetExceeded(RuntimeError):
    """Exact search gave up under the configured budget."""


@dataclass(frozen=True)
class Budget:
    """Resource limits for exact dimension computation."""

    max_lmax: int = 30
    clique_exact: int = 200
    max_nodes: int = 300_000


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
    table = (1 << (1 << n)) - 1
    for part in rep.parts:
        table &= threshold_table(part.weights, part.quota, n)
    game = SimpleGame._from_table(n, table)
    game.minwin_masks
    return game


def _trivial_all_win_rep(n: int) -> WeightedRep:
    return WeightedRep((Fraction(0),) * n, Fraction(0))


def _one_part_report(part: WeightedRep, note: str) -> DimensionReport:
    """Report on a degenerate game: no cover to search, one part suffices."""
    return DimensionReport(part.n, 0, 1, 1, 1, (), IntersectionRep(part.n, (part,)), (note,))


def _single_loss_part(g: SimpleGame, lose_mask: int) -> WeightedRep:
    """Closed-form part winning all of W and losing one coalition: unit
    weights off the coalition, quota one."""
    weights = tuple(Fraction(0 if lose_mask >> i & 1 else 1) for i in range(g.n))
    return WeightedRep(weights, Fraction(1))


def upper_bound_lmax(g: SimpleGame) -> tuple[int, IntersectionRep]:
    """The maximal-losing-count bound with its verifying representation.

    The all-winning game has no losing coalitions; it gets bound 1 with the
    trivial part by convention.
    """
    maxlose = maximal_losing_masks(g)
    if not maxlose:
        return 1, IntersectionRep(g.n, (_trivial_all_win_rep(g.n),))
    parts = tuple(_single_loss_part(g, y) for y in maxlose)
    return len(maxlose), IntersectionRep(g.n, parts)


class PartOracle:
    """Memoised exact feasibility of a single weighted part.

    Mode ``lose``: can one part win every minimal winning coalition of the
    game while losing all coalitions of a given subset of L_max?  Mode
    ``win``: can one part win a given subset of W_min while losing every
    maximal losing coalition of the game?

    Queries run through (in order): the orbit cache keyed by class-count
    profiles (pairs only), the capped length-2 swap scan of ``certificates``
    (pairs only), previously found witnesses, and finally the exact
    separation LP of ``lpsep``, whose game side is built once, here.  Every
    feasible verdict stores its witness.
    """

    def __init__(self, g: SimpleGame, mode: Literal["lose", "win"] = "lose"):
        self.g = g
        self.n = g.n
        self.mode = mode
        if mode == "lose":
            self._fixed_rows = _incidence_rows(g.minwin_masks, g.n, True)
        else:
            self._fixed_rows = _incidence_rows(maximal_losing_masks(g), g.n, False)
        self._set_memo: dict[frozenset[int], WeightedRep | None] = {}
        self._pair_orbit: dict[tuple, bool] | None = None
        self._partition = None
        # stored witnesses with their (integer) weights and quota
        self._witnesses: list[tuple[WeightedRep, list[int], int]] = []
        self.lp_calls = 0
        if g.n <= _ORBIT_MEMO_MAX_N and desirability.is_complete(g):
            self._partition = desirability.equivalence_classes(g)
            self._pair_orbit = {}

    # -- helpers -------------------------------------------------------------

    def _orbit_key(self, a: int, b: int):
        part = self._partition
        ma, mb = part.model_of_mask(a), part.model_of_mask(b)
        mi = part.model_of_mask(a & b)
        if (mb, ma) < (ma, mb):
            ma, mb = mb, ma
        return (ma, mb, mi)

    def _witness_handles(self, masks) -> WeightedRep | None:
        lose = self.mode == "lose"
        for rep, weights, quota in self._witnesses:
            if all((sum(weights[i] for i in _bits(m)) < quota) == lose for m in masks):
                return rep
        return None

    def _lp(self, masks: frozenset[int]) -> WeightedRep | None:
        self.lp_calls += 1
        variable = _incidence_rows(sorted(masks), self.n, self.mode == "win")
        res = _separate(self.n, self._fixed_rows, variable)
        if not res.feasible:
            return None
        rep = _canonical_rep(res.x[: self.n], res.x[self.n])
        self._witnesses.append((rep, [int(w) for w in rep.weights], int(rep.quota)))
        return rep

    # -- queries -------------------------------------------------------------

    def separable_set(self, masks: frozenset[int]) -> WeightedRep | None:
        if masks not in self._set_memo:
            self._set_memo[masks] = self._witness_handles(masks) or self._lp(masks)
        return self._set_memo[masks]

    def pair_compatible(self, a: int, b: int) -> bool:
        """True iff one part can handle both coalitions together."""
        key = None
        if self._pair_orbit is not None:
            key = self._orbit_key(a, b)
            hit = self._pair_orbit.get(key)
            if hit is not None:
                return hit
        verdict = self._pair_verdict(a, b)
        if key is not None:
            self._pair_orbit[key] = verdict
        return verdict

    def _pair_verdict(self, a: int, b: int) -> bool:
        pair = frozenset((a, b))
        if pair in self._set_memo:
            return self._set_memo[pair] is not None
        if _swap_split(self.g, a, b, self.mode == "lose") is not None:
            self._set_memo[pair] = None
            return False
        rep = self._witness_handles((a, b)) or self._lp(pair)
        self._set_memo[pair] = rep
        return rep is not None


def _graph_on(verts: list[int], oracle: PartOracle) -> list[int]:
    """Adjacency bitsets; an edge joins coalitions no single part can handle together."""
    adj = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if not oracle.pair_compatible(verts[i], verts[j]):
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
                deg = _popcount(cand & adj[v])
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
    verts = maximal_losing_masks(g)
    if not verts:
        return 1, ()
    clique = _clique(_graph_on(verts, PartOracle(g, "lose")), clique_exact)
    return len(clique), tuple(Coalition(verts[v], g.n) for v in clique)


def _greedy_cover(
    oracle: PartOracle, verts: list[int], adj: list[int]
) -> list[tuple[list[int], WeightedRep]]:
    """Cover vertex indices with feasible blocks, growing each block by
    feasibility-preserving augmentation in canonical order."""
    uncovered = list(range(len(verts)))
    blocks: list[tuple[list[int], WeightedRep]] = []
    while uncovered:
        seed = uncovered[0]
        block = [seed]
        block_adj = adj[seed]
        rep = oracle.separable_set(frozenset((verts[seed],)))
        if rep is None:
            raise AssertionError("singleton blocks are always feasible")
        for e in uncovered[1:]:
            if block_adj >> e & 1:
                continue
            cand = oracle.separable_set(frozenset(verts[v] for v in block + [e]))
            if cand is not None:
                block.append(e)
                block_adj |= adj[e]
                rep = cand
        covered = set(block)
        uncovered = [e for e in uncovered if e not in covered]
        blocks.append((block, rep))
    return blocks


def _exists_cover(
    oracle: PartOracle,
    verts: list[int],
    adj: list[int],
    d: int,
    seed_clique: list[int],
    max_nodes: int,
) -> list[list[int]] | None:
    """Branch and bound: partition all vertices into at most d feasible
    blocks, or prove impossibility.  Raises BudgetExceeded past max_nodes."""
    nv = len(verts)
    pre = seed_clique[:d]
    order = pre + sorted(
        (v for v in range(nv) if v not in pre),
        key=lambda v: (-_popcount(adj[v]), v),
    )
    blocks: list[list[int]] = [[v] for v in pre]
    block_adj: list[int] = [adj[v] for v in pre]
    nodes = 0

    def assign(idx: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"cover search exceeded {max_nodes} nodes")
        if idx == len(order):
            return True
        v = order[idx]
        for b in range(len(blocks)):
            if block_adj[b] >> v & 1:
                continue
            if oracle.separable_set(frozenset(verts[u] for u in blocks[b] + [v])) is None:
                continue
            blocks[b].append(v)
            saved = block_adj[b]
            block_adj[b] |= adj[v]
            if assign(idx + 1):
                return True
            blocks[b].pop()
            block_adj[b] = saved
        if len(blocks) < d:
            blocks.append([v])
            block_adj.append(adj[v])
            if assign(idx + 1):
                return True
            blocks.pop()
            block_adj.pop()
        return False

    if assign(len(pre)):
        return [b[:] for b in blocks]
    return None


def _cover_report(
    g: SimpleGame, verts: list[int], mode: Literal["lose", "win"], budget: Budget
) -> DimensionReport:
    """Bounds-plus-exact pipeline for both cover directions.

    Mode ``lose`` covers L_max and its parts must intersect to the game;
    mode ``win`` covers W_min and its parts must unite to it.  The witness
    is checked against the game's table whenever there is one.
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
    blocks = _greedy_cover(oracle, verts, adj)
    upper = len(blocks)
    if lower > upper:
        raise AssertionError("bound inversion: oracle inconsistency")
    exact: int | None = None
    if lower == upper:
        exact = upper
    else:
        try:
            for d in range(lower, upper):
                found = _exists_cover(oracle, verts, adj, d, clique, budget.max_nodes)
                if found is not None:
                    exact = upper = d
                    blocks = [
                        (blk, oracle.separable_set(frozenset(verts[v] for v in blk)))
                        for blk in found
                    ]
                    break
            else:
                exact = upper
        except BudgetExceeded as exc:
            notes.append(str(exc))
    witness = IntersectionRep(g.n, tuple(rep for _, rep in blocks))
    if g.n <= MAX_TABLE_PLAYERS:
        tables = (threshold_table(p.weights, p.quota, g.n) for p in witness.parts)
        if reduce(operator.and_ if mode == "lose" else operator.or_, tables) != g.table:
            raise AssertionError(f"{mode} cover witness failed verification")
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
    maxlose = maximal_losing_masks(g)
    if not maxlose:
        note = "all-winning game: dimension 1 by convention"
        return _one_part_report(_trivial_all_win_rep(g.n), note)
    return _cover_report(g, maxlose, "lose", budget or Budget())


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
    report = exact_dimension(dual_game(g), budget)
    return replace(report, notes=report.notes + ("computed on the dual game",))


def codimension_direct(g: SimpleGame, budget: Budget | None = None) -> DimensionReport:
    """Minimum union size by covering W_min with jointly-winnable subsets.

    No dual game is constructed: each part must win its subset of minimal
    winning coalitions while losing every maximal losing coalition.  Agrees
    with :func:`codimension` (they are the same cover problem under
    complementation); kept as a distinct route for cross-checking.
    """
    minwin = list(g.minwin_masks)
    if not minwin:
        # all-lose game is the union of one weighted game losing everything
        all_lose = WeightedRep((Fraction(0),) * g.n, Fraction(1))
        return _one_part_report(all_lose, "all-losing game: codimension 1")
    if minwin[0] == 0:
        note = "all-winning game: codimension 1 by convention"
        return _one_part_report(_trivial_all_win_rep(g.n), note)
    return _cover_report(g, minwin, "win", budget or Budget())
