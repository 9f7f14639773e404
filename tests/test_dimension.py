import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from simplegames import (
    Budget,
    Coalition,
    HierarchicalSpec,
    InvalidGameError,
    Kind,
    WeightedRep,
    build,
    codimension,
    codimension_direct,
    conjunctive_intersection_rep,
    dual,
    exact_dimension,
    intersect_games,
    is_weighted,
    kurz_napel_lower,
    losing_witness_family,
    make_game,
    make_game_from_masks,
    upper_bound_lmax,
    weighted_game,
)
from simplegames import _exactlp, desirability, dimension
from simplegames._exactlp import LinearSystem, LPResult
from simplegames.certificates import _swap_split
from simplegames.core import SimpleGame, maximal_losing_masks, _bits
from simplegames.dimension import PartOracle, _check_cover, _graph_on
from simplegames.lpsep import _canonical_rep, separable, threshold_table

WIDE = Budget(max_lmax=200, clique_exact=250)


class TestIntersectGames:
    def test_single_part_is_the_threshold_game(self, majority5):
        rep = WeightedRep((1, 1, 1, 1, 1), 3)
        assert intersect_games([rep], 5) == majority5

    def test_two_game_representation(self, h_disj_25):
        g1 = WeightedRep((4, Fraction(11, 10), 1, 1, 1, 1, 1), 5)
        g2 = WeightedRep((Fraction(11, 10), 4, 1, 1, 1, 1, 1), 5)
        assert intersect_games([g1, g2], 7) == h_disj_25

    def test_ten_game_representation(self, h_disj_25):
        parts = []
        for chosen in combinations(range(5), 3):
            weights = (3, 3) + tuple(2 if i in chosen else 0 for i in range(5))
            parts.append(WeightedRep(weights, 6))
        assert len(parts) == 10
        assert intersect_games(parts, 7) == h_disj_25

    def test_empty_parts_rejected(self):
        with pytest.raises(InvalidGameError):
            intersect_games([], 3)


class TestUpperBoundLmax:
    def test_majority_bound(self, majority5):
        count, rep = upper_bound_lmax(majority5)
        assert count == 10
        assert intersect_games(rep.parts, 5) == majority5

    def test_h25_bound_matches_maximal_losing(self, h_disj_25):
        count, rep = upper_bound_lmax(h_disj_25)
        assert count == len(maximal_losing_masks(h_disj_25)) == 25
        assert intersect_games(rep.parts, 7) == h_disj_25

    def test_all_win_game_convention(self):
        g = make_game(3, [Coalition.of([], 3)])
        count, rep = upper_bound_lmax(g)
        assert count == 1
        assert intersect_games(rep.parts, 3) == g

    def test_random_games_verify(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(2, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            count, rep = upper_bound_lmax(g)
            assert intersect_games(rep.parts, n) == g


class TestKurzNapelLower:
    def test_weighted_games_have_lower_one(self, majority5, un_council):
        lower, witness = kurz_napel_lower(majority5)
        assert lower == 1 and len(witness) == 1

    def test_witness_family_lower_bounds(self):
        for d in (2, 3):
            game, _ = losing_witness_family(d, 2)
            lower, witness = kurz_napel_lower(game)
            assert lower >= d
            oracle = PartOracle(game, "lose")
            for a, b in combinations(witness, 2):
                assert not oracle.pair_compatible(a.mask, b.mask)

    def test_all_win_game(self):
        g = make_game(3, [Coalition.of([], 3)])
        assert kurz_napel_lower(g) == (1, ())

    def test_odd_cycle_raises_the_lower_bound(self):
        """The 5 maximal losing coalitions of this game form a 5-cycle in the
        incompatibility graph: the clique bound is 2, the odd cycle makes 3."""
        g = make_game_from_masks(5, [13, 14, 19, 22, 25])
        verts = maximal_losing_masks(g)
        adj = _graph_on(verts, PartOracle(g))
        assert len(verts) == 5 and all(a.bit_count() == 2 for a in adj)
        assert kurz_napel_lower(g)[0] == 2
        assert not dimension._is_bipartite(adj)
        report = exact_dimension(g)
        assert report.lower == report.upper == report.exact == 3
        assert "odd cycle in incompatibility graph raises lower bound to 3" in report.notes
        assert intersect_games(report.witness_upper.parts, g.n) == g


class TestGreedyClique:
    """Above ``clique_exact`` vertices the clique bound is greedy."""

    @pytest.fixture(scope="class")
    def fam32(self):
        game, _ = losing_witness_family(3, 2)
        return game, exact_dimension(game, Budget(max_lmax=65)).exact

    def test_greedy_witness_is_pairwise_incompatible(self, fam32):
        game, exact = fam32
        lower, witness = kurz_napel_lower(game, clique_exact=0)
        assert 1 <= lower == len(witness) <= exact
        oracle = PartOracle(game, "lose")
        for a, b in combinations(witness, 2):
            assert not oracle.pair_compatible(a.mask, b.mask)

    def test_exact_dimension_with_greedy_clique(self, fam32):
        game, exact = fam32
        report = exact_dimension(game, Budget(max_lmax=65, clique_exact=1))
        assert report.exact == exact == 3
        assert "clique bound is greedy (vertex count above exact budget)" in report.notes


class TestExactDimension:
    def test_weighted_game_dimension_one(self, majority5, un_council):
        assert exact_dimension(majority5).exact == 1

    def test_witness_family_dimension_two(self):
        game, _ = losing_witness_family(2, 2)
        report = exact_dimension(game)
        assert report.exact == 2
        assert report.lower == 2 and report.upper == 2
        assert intersect_games(report.witness_upper.parts, game.n) == game

    def test_matches_enumeration_oracle_small(self):
        tables = oracles.threshold_tables(4, 16)
        for t in oracles.monotone_tables(4):
            g = make_game_from_masks(
                4, [m for m in range(16) if t >> m & 1 and all(
                    not t >> (m ^ (1 << i)) & 1 for i in range(4) if m >> i & 1)]
            ) if t else make_game_from_masks(4, [])
            want = oracles.oracle_dimension(4, t, tables)
            got = exact_dimension(g, WIDE).exact
            assert got == want, (bin(t), got, want)

    def test_witness_family_oracle_cross_check(self):
        # independent cover oracle on the 6-player family instance
        game, _ = losing_witness_family(2, 2)
        tables = oracles.threshold_tables(6, 8)
        want = oracles.oracle_dimension(6, game.table, tables)
        assert exact_dimension(game).exact == want == 2

    def test_bounds_ordering_random(self):
        rng = random.Random(62)
        for _ in range(30):
            n = rng.randint(2, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            report = exact_dimension(g, WIDE)
            assert report.lower <= report.exact <= report.upper
            assert intersect_games(report.witness_upper.parts, n) == g

    def test_budget_exceeded_reports_bounds_only(self, h_disj_25):
        report = exact_dimension(h_disj_25, Budget(max_lmax=5))
        assert report.exact is None
        assert report.upper == report.num_maximal_losing
        assert any("budget" in note for note in report.notes)

    def test_layered_family_4_2_is_settled(self):
        """fam(4,2) has dimension 4: its clique bound is 4 and its greedy
        cover has 6 parts, so the cover search decides."""
        game, _ = losing_witness_family(4, 2)
        report = exact_dimension(game, WIDE)
        assert report.lower == report.upper == report.exact == 4
        assert intersect_games(report.witness_upper.parts, game.n) == game

    def test_node_budget_still_binds(self):
        """Out of nodes, the report keeps the bounds and the greedy witness."""
        game, _ = losing_witness_family(3, 2)
        report = exact_dimension(game, Budget(1500, 700, 50))
        assert report.exact is None
        assert "cover search exceeded 50 nodes" in report.notes
        assert intersect_games(report.witness_upper.parts, game.n) == game

    def test_degenerate_games(self):
        all_win = make_game(3, [Coalition.of([], 3)])
        all_lose = make_game(3, [])
        assert exact_dimension(all_win).exact == 1
        assert exact_dimension(all_lose).exact == 1


class TestBudget:
    @pytest.mark.parametrize("field", ["max_lmax", "clique_exact", "max_nodes"])
    def test_rejects_negative_fields(self, field):
        with pytest.raises(InvalidGameError, match=field):
            Budget(**{field: -1})

    def test_accepts_zero(self):
        assert Budget(max_lmax=0, clique_exact=0, max_nodes=0).max_nodes == 0

    @pytest.mark.parametrize("value", [-1, 2.5, True, "5"])
    def test_kurz_napel_lower_checks_clique_exact_like_budget(self, majority5, value):
        # -1 and 2.5 used to run silently, "5" to raise a bare TypeError
        with pytest.raises(InvalidGameError, match="budget clique_exact"):
            kurz_napel_lower(majority5, value)

    @pytest.mark.parametrize("value", [2.5, True, "5", None])
    def test_rejects_non_integer_fields(self, value):
        # 2.5 and True used to be accepted, "5" and None to raise a bare TypeError
        for field in ("max_lmax", "clique_exact", "max_nodes"):
            with pytest.raises(InvalidGameError, match=f"budget {field} must be an integer"):
                Budget(**{field: value})


class TestTrivialGames:
    """All-winning and all-losing games have dimension and codimension 1 on
    every route, with witnesses that combine back to the game."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["all-win", "all-lose"])
    def test_every_route_reports_one(self, n, kind):
        g = make_game(n, [Coalition.of([], n)] if kind == "all-win" else [])
        full = (1 << (1 << n)) - 1
        for route, target, unite in (
            (exact_dimension, g, False),
            (codimension, dual(g), False),
            (codimension_direct, g, True),
        ):
            report = route(g)
            assert (report.lower, report.upper, report.exact) == (1, 1, 1), route
            tables = [threshold_table(p.weights, p.quota, n) for p in report.witness_upper.parts]
            combined = 0 if unite else full
            for table in tables:
                combined = combined | table if unite else combined & table
            assert SimpleGame._from_table(n, combined) == target, route

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_with_empty_fixed_block(self, n):
        # lose mode on the all-losing game: no minimal winning coalition, so
        # the game's side of every LP has no rows and nothing to transpose
        g = make_game(n, [])
        oracle = PartOracle(g, "lose")
        rep = oracle.separable_set(frozenset(maximal_losing_masks(g)))
        assert rep == WeightedRep((0,) * n, 1)
        assert list(oracle._witnesses.values()) == [([0] * n, 1)]
        # n weights and the quota: one empty column each
        assert oracle._fixed.rows == [] and oracle._fixed.alternative() == ([[]] * (n + 1), [])

    @pytest.mark.parametrize("mode", ["lose", "win"])
    def test_empty_query_on_a_fresh_oracle(self, mode, majority5):
        # no coalition to sum a closed form over: the LP answers with a part
        # that handles the fixed side alone
        all_lose = make_game(3, [])
        for g in (majority5, _dim_hier_games()["disj25"], all_lose):
            oracle = PartOracle(g, mode)
            rep = oracle.separable_set(frozenset())
            assert rep is not None and oracle.lp_calls == 1
            assert all(rep.wins_mask(m) == (mode == "lose") for m in oracle._fixed_masks)
        # on the all-winning game, lose mode must win the empty coalition,
        # which the LP's q >= 1 excludes; win mode has nothing to lose
        all_win = make_game(3, [Coalition.of([], 3)])
        assert (PartOracle(all_win, mode).separable_set(frozenset()) is None) == (mode == "lose")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_win_mode_on_the_all_winning_game(self, n, monkeypatch):
        # the closed form of the empty coalition has quota 0, which the LP's
        # normalisation q >= 1 excludes: both routes give the LP's verdict
        g = make_game(n, [Coalition.of([], n)])
        empty = frozenset((0,))
        assert PartOracle(g, "win").separable_set(empty) is None
        monkeypatch.setattr(PartOracle, "_closed_form", lambda self, masks: None)
        assert PartOracle(g, "win").separable_set(empty) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_block_read_before_the_first_lp(self, n):
        # the block carries its own width, so reading its transposed view
        # first cannot give the oracle's LPs a wrong column count
        g = make_game(n, [])
        oracle = PartOracle(g, "lose")
        assert oracle._fixed.alternative() == ([[]] * (n + 1), [])
        part = frozenset(maximal_losing_masks(g))
        rep = oracle.separable_set(part)
        assert rep == WeightedRep((0,) * n, 1) == PartOracle(g, "lose").separable_set(part)
        table = threshold_table(rep.weights, rep.quota, n)
        assert all(not table >> m & 1 for m in part)


class TestConjunctiveRep:
    def test_example_parts(self):
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))
        rep = conjunctive_intersection_rep(spec)
        assert len(rep.parts) == 3
        part2 = rep.parts[1]
        assert part2.quota == 4
        assert part2.weights == (Fraction(1),) * 8 + (Fraction(0),) * 4

    def test_single_level_is_weighted(self):
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, (4,), (2,))
        rep = conjunctive_intersection_rep(spec)
        assert len(rep.parts) == 1
        assert weighted_game(rep.parts[0]) == build(spec)

    def test_intersects_to_build_on_random_specs(self):
        rng = random.Random(63)
        for _ in range(15):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=10, allow_dummies=True)
            spec = HierarchicalSpec(Kind.CONJUNCTIVE, sizes, k)
            rep = conjunctive_intersection_rep(spec)
            assert intersect_games(rep.parts, spec.num_players) == build(spec)

    def test_rejects_disjunctive(self):
        with pytest.raises(InvalidGameError):
            conjunctive_intersection_rep(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 2), (1, 2)))


class TestCodimension:
    def test_routes_agree_random(self):
        rng = random.Random(64)
        for _ in range(30):
            n = rng.randint(2, 5)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            assert codimension(g, WIDE).exact == codimension_direct(g, WIDE).exact

    def test_against_enumeration_oracle(self):
        tables = oracles.threshold_tables(4, 16)
        rng = random.Random(65)
        for _ in range(40):
            g = make_game_from_masks(4, oracles.random_game_masks(rng, 4))
            want = oracles.oracle_codimension(4, g.table, tables)
            assert codimension(g, WIDE).exact == want

    def test_identity_with_dual_dimension(self):
        rng = random.Random(66)
        for _ in range(25):
            n = rng.randint(2, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            assert codimension(dual(g), WIDE).exact == exact_dimension(g, WIDE).exact

    def test_self_dual_majority(self, majority5):
        assert codimension(majority5).exact == 1

    def test_dual_of_layered_family_has_codimension_four(self):
        # codim(dual g) = dim(g); the 10-player layered game pins it at 4
        game, _ = losing_witness_family(2, 3)
        report = codimension(dual(game), Budget(max_lmax=200, clique_exact=250))
        assert report.exact == 4
        assert report.lower >= 4

    def test_union_witness_verifies(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(2, 5)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            report = codimension_direct(g, WIDE)
            union = 0
            for part in report.witness_upper.parts:
                union |= threshold_table(part.weights, part.quota, n)
            assert union == g.table


class TestOracleState:
    def test_orbit_memo_counts_lp_calls(self, h_conj_444):
        oracle = PartOracle(h_conj_444, "lose")
        maxlose = maximal_losing_masks(h_conj_444)
        rng = random.Random(68)
        pairs = [tuple(rng.sample(range(len(maxlose)), 2)) for _ in range(300)]
        for i, j in pairs:
            oracle.pair_compatible(maxlose[i], maxlose[j])
        # orbit classes are far fewer than queried pairs
        assert oracle.lp_calls < 60

    def test_separable_set_memoised(self, majority5):
        oracle = PartOracle(majority5, "lose")
        maxlose = maximal_losing_masks(majority5)
        s = frozenset(maxlose[:3])
        first = oracle.separable_set(s)
        calls = oracle.lp_calls
        again = oracle.separable_set(s)
        assert first == again and oracle.lp_calls == calls
        # witnesses stored later come after the one that answered s
        stored = len(oracle._witnesses)
        for q in combinations(maxlose, 2):
            oracle.separable_set(frozenset(q))
        assert len(oracle._witnesses) > stored
        assert oracle.separable_set(s) == first
        # an inseparable set stays inseparable when asked again
        game, witnesses = losing_witness_family(2, 2)
        oracle = PartOracle(game, "lose")
        pair = frozenset(w.mask for w in witnesses)
        assert len(pair) == 2
        assert oracle.separable_set(pair) is None and oracle.lp_calls == 1
        assert oracle.separable_set(pair) is None


def test_separation_routes_agree_on_random_games():
    """Every route to a separation verdict agrees with Fourier-Motzkin, and
    a length-2 swap split is only ever found for LP-inseparable pairs."""
    rng = random.Random(69)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        minwin, maxlose = list(g.minwin_masks), maximal_losing_masks(g)
        want = oracles.fm_weighted(n, minwin, maxlose)
        assert (is_weighted(g) is not None) == want
        assert (separable(n, minwin, maxlose) is not None) == want
        assert (PartOracle(g, "lose").separable_set(frozenset(maxlose)) is not None) == want
        for mode, verts in (("lose", maxlose), ("win", minwin)):
            oracle, lp_only = PartOracle(g, mode), PartOracle(g, mode)
            for a, b in combinations(verts, 2):
                if _swap_split(g, a, b, mode == "lose") is not None:
                    assert not oracle.pair_compatible(a, b)
                    assert lp_only.separable_set(frozenset((a, b))) is None



def _fraction_canonical(x) -> list[int]:
    """Reference: a Fraction witness (weights, then quota) scaled to coprime
    integers over the least common denominator of its entries."""
    denom = math.lcm(*(v.denominator for v in x))
    ints = [v.numerator * (denom // v.denominator) for v in x]
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]


def _summed_part_reference(masks, n, mode) -> list[int]:
    """Reference closed form, player by player: weight i is the number of
    coalitions of ``masks`` without i (``lose``) or with i (``win``); the
    quota is one above the heaviest coalition of ``masks`` (``lose``) or the
    lightest one's weight (``win``); weights then quota, in coprime form."""
    members = [[i for i in range(n) if m >> i & 1] for m in masks]
    inside = [sum(i in mem for mem in members) for i in range(n)]
    weights = [len(members) - c for c in inside] if mode == "lose" else inside
    sums = [sum(weights[i] for i in mem) for mem in members]
    quota = max(sums) + 1 if mode == "lose" else min(sums)
    g = math.gcd(*weights, quota)
    return [w // g for w in weights] + [quota // g]


def test_oracle_witnesses_match_the_fraction_point(monkeypatch):
    """Each witness an oracle stores is, in canonical form kept as integers,
    either its LP's Fraction point or, where the closed form answered before
    the LP, the sum of the queried set's one-coalition parts; the
    WeightedReps built from them when handed out are the same canonical
    form."""
    events = []  # in the order the oracle stores its witnesses
    real_separate = dimension._separate
    real_closed_form = PartOracle._closed_form

    def recording(*args, **kwargs):
        res = real_separate(*args, **kwargs)
        if res.feasible:
            events.append(("lp", res))
        return res

    def recording_closed_form(self, masks):
        found = real_closed_form(self, masks)
        if found is not None:
            events.append(("closed", frozenset(masks)))
        return found

    monkeypatch.setattr(dimension, "_separate", recording)
    monkeypatch.setattr(PartOracle, "_closed_form", recording_closed_form)
    rng = random.Random(73)
    stored = {"lp": 0, "closed": 0}
    for g in _cache_test_games(rng):
        for mode in ("lose", "win"):
            events.clear()
            oracle = PartOracle(g, mode)
            verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
            handed = []
            for a, b in combinations(verts, 2):
                oracle.pair_compatible(a, b)
            for q in rng.sample(list(combinations(verts, 3)), min(10, math.comb(len(verts), 3))):
                handed.append(oracle.separable_set(frozenset(q)))
            assert len(oracle._witnesses) == len(events)
            for (k, (weights, quota)), (source, got) in zip(oracle._witnesses.items(), events):
                if source == "lp":
                    want = _fraction_canonical(got.x[: g.n + 1])
                    assert oracle._rep(k) == _canonical_rep(got.nums[: g.n + 1])
                else:
                    want = _summed_part_reference(got, g.n, mode)
                assert weights + [quota] == want
                assert oracle._rep(k) == WeightedRep(tuple(want[:-1]), want[-1])
                stored[source] += 1
            assert set(handed) - {None} <= {oracle._rep(k) for k in oracle._witnesses}
    assert stored["lp"] > 0 and stored["closed"] > 0


def _cache_test_games(rng):
    """Random games on 6-7 players: complete ones (conjunctive hierarchies,
    unions and intersections of two weighted games, which mostly are) and
    ones generated by random 3-player coalitions (mostly not complete)."""
    games = []
    while len(games) < 5:
        sizes, k = oracles.random_conjunctive_params(rng, max_players=7)
        if sum(sizes) >= 6:
            games.append(build(HierarchicalSpec(Kind.CONJUNCTIVE, sizes, k)))
    for _ in range(4):
        n = rng.randint(6, 7)
        games.append(SimpleGame._from_table(n, oracles.random_two_weighted_table(rng, n, 4)))
    for _ in range(7):
        n = rng.randint(6, 7)
        gens = [sum(1 << i for i in rng.sample(range(n), 3)) for _ in range(rng.randint(5, 10))]
        games.append(make_game_from_masks(n, gens))
    return games


def test_oracle_caches_agree_with_fresh_oracles():
    """A long-lived oracle answers from its orbit entries and stored witnesses;
    each verdict must equal that of a fresh oracle, which has neither, and
    each witness must handle the queried coalitions within the game."""
    rng = random.Random(70)
    complete_seen = set()
    queried = lp_calls = 0
    for g in _cache_test_games(rng):
        for mode in ("lose", "win"):
            shared = PartOracle(g, mode)
            complete_seen.add(shared._pair_orbit is not None)
            verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
            fixed = list(g.minwin_masks) if mode == "lose" else maximal_losing_masks(g)
            queries = list(combinations(verts, 2))
            triples = list(combinations(verts, 3))
            queries += rng.sample(triples, min(25, len(triples)))
            rng.shuffle(queries)
            for q in queries:
                masks = frozenset(q)
                if len(q) == 2:
                    want = PartOracle(g, mode).pair_compatible(*q)
                    assert shared.pair_compatible(*q) == want, (g, mode, q)
                rep = shared.separable_set(masks)
                assert (rep is not None) == (PartOracle(g, mode).separable_set(masks) is not None)
                if rep is not None:
                    wins = mode == "win"
                    assert all(rep.wins_mask(m) == wins for m in masks)
                    assert all(rep.wins_mask(m) != wins for m in fixed)
            queried += len(queries)
            lp_calls += shared.lp_calls
    assert complete_seen == {True, False}
    assert lp_calls < queried / 2  # most answers came from the caches


def test_orbit_built_graph_matches_fresh_oracles():
    """The pair graph, which skips settled orbit pairs and asks
    ``pair_compatible`` about the rest, equals the graph of one fresh oracle
    per pair, in both modes, on complete and non-complete games."""
    complete_seen = set()
    for g in _cache_test_games(random.Random(74)):
        for mode in ("lose", "win"):
            verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
            oracle = PartOracle(g, mode)
            complete_seen.add(oracle._pair_orbit is not None)
            want = [0] * len(verts)
            for i, j in combinations(range(len(verts)), 2):
                if not PartOracle(g, mode).pair_compatible(verts[i], verts[j]):
                    want[i] |= 1 << j
                    want[j] |= 1 << i
            assert _graph_on(verts, oracle) == want, (g, mode)
    assert complete_seen == {True, False}


def _dim_hier_games():
    """The benchmark's hard games: disj25, conj444 and fam32."""
    return {
        "disj25": build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))),
        "conj444": build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))),
        "fam32": losing_witness_family(3, 2)[0],
    }


def _antichain(g, mode):
    return maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)


def test_orbits_are_models():
    """In a complete game the oracle's orbit code of a coalition is its
    model: the codes of L_max (``lose``) and W_min (win) are the game's
    maximal losing and minimal winning models."""
    games = list(_dim_hier_games().values()) + _cache_test_games(random.Random(81))
    complete = [g for g in games if desirability.is_complete(g)]
    assert len(complete) > len(_dim_hier_games())
    models = {"lose": desirability.maximal_losing_models, "win": desirability.minimal_winning_models}
    for g in complete:
        for mode, of in models.items():
            oracle = PartOracle(g, mode)
            assert {oracle._code(m) for m in _antichain(g, mode)} == set(of(g)), (g, mode)


def test_possible_codes_match_brute_force():
    """For every orbit pair of L_max (``lose``) and W_min (win), the number
    of intersection codes the oracle expects equals the number of distinct
    ``code(a & b)`` over the pairs of the two orbits where neither coalition
    contains the other."""
    for name, g in _dim_hier_games().items():
        for mode in ("lose", "win"):
            oracle = PartOracle(g, mode)
            verts = _antichain(g, mode)
            seen: dict[tuple[tuple, tuple], set[tuple]] = {}
            for i, a in enumerate(verts):
                for b in verts[i:]:
                    ca, cb = sorted((oracle._code(a), oracle._code(b)))
                    codes = seen.setdefault((ca, cb), set())
                    if a & b not in (a, b):
                        codes.add(oracle._code(a & b))
            assert len(seen) > 1, (name, mode)
            for (ca, cb), codes in seen.items():
                assert oracle._possible_codes(ca, cb) == len(codes), (name, mode, ca, cb)


def _full_scan(oracle, verts):
    """Reference pair graph: ``pair_compatible`` on every pair i < j, in order."""
    adj = [0] * len(verts)
    for i, j in combinations(range(len(verts)), 2):
        if not oracle.pair_compatible(verts[i], verts[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _oracle_state(oracle):
    return oracle._witnesses, oracle.lp_calls, oracle._pair_orbit


class _CountingOrbit(dict):
    """An orbit cache that counts its lookups: one per ``pair_compatible``
    call, and so one per pair the graph visits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_skipping_settled_orbit_pairs_changes_no_oracle_state():
    """On a fresh oracle, the pair graph skips the orbit pairs it has found
    all compatible, yet leaves the same witnesses, LP count and orbit
    verdicts as a scan that asks ``pair_compatible`` about every pair in
    order; on the benchmark's games and on complete and non-complete random
    games, in both modes."""
    games = list(_dim_hier_games().values()) + _cache_test_games(random.Random(78))
    complete_seen = set()
    for g in games:
        for mode in ("lose", "win"):
            verts = _antichain(g, mode)
            skipping, scanning = PartOracle(g, mode), PartOracle(g, mode)
            complete_seen.add(skipping._pair_orbit is not None)
            assert _graph_on(verts, skipping) == _full_scan(scanning, verts), (g, mode)
            assert _oracle_state(skipping) == _oracle_state(scanning), (g, mode)
    assert complete_seen == {True, False}


def test_graph_after_other_queries_is_the_fresh_graph():
    """An oracle first asked random pairs and triples, which store witnesses
    and orbit verdicts out of order, still yields the fresh oracle's graph."""
    rng = random.Random(79)
    games = list(_dim_hier_games().values()) + _cache_test_games(rng)
    for g in games:
        for mode in ("lose", "win"):
            verts = _antichain(g, mode)
            used = PartOracle(g, mode)
            for _ in range(40 if len(verts) >= 2 else 0):
                used.pair_compatible(*rng.sample(verts, 2))
            for _ in range(min(10, math.comb(len(verts), 3))):
                used.separable_set(frozenset(rng.sample(verts, 3)))
            assert _graph_on(verts, used) == _graph_on(verts, PartOracle(g, mode)), (g, mode)


def test_nested_pairs_settle_no_orbit_pair():
    """A nested pair has no intersection code of its own orbit pair: asking
    about each coalition with itself first must not settle disj25's orbit
    pair whose one incompatible code would then go unvisited."""
    g = _dim_hier_games()["disj25"]
    verts = maximal_losing_masks(g)
    nested = PartOracle(g, "lose")
    for a in verts:
        assert nested.pair_compatible(a, a)
    assert _graph_on(verts, nested) == _graph_on(verts, PartOracle(g, "lose"))


def test_second_graph_runs_no_lp_and_visits_only_edges():
    """A second pair graph on the same oracle is the same graph and runs no
    LP.  On conj444 every orbit pair with a compatible pair is settled by
    then, so the second graph visits only its 960 edges, against 171,405
    pairs in all."""
    for name, g in _dim_hier_games().items():
        for mode in ("lose", "win"):
            verts = _antichain(g, mode)
            oracle = PartOracle(g, mode)
            first = _graph_on(verts, oracle)
            lp_calls = oracle.lp_calls
            assert _graph_on(verts, oracle) == first and oracle.lp_calls == lp_calls, (name, mode)
    g = _dim_hier_games()["conj444"]
    verts = maximal_losing_masks(g)
    oracle = PartOracle(g, "lose")
    oracle._pair_orbit = _CountingOrbit()
    first = _graph_on(verts, oracle)
    fresh_visits = oracle._pair_orbit.lookups
    oracle._pair_orbit.lookups = 0
    assert _graph_on(verts, oracle) == first
    edges = sum(map(int.bit_count, first)) // 2
    assert edges == 960 and oracle._pair_orbit.lookups == edges
    assert fresh_visits < 6_000 < len(verts) * (len(verts) - 1) // 2


def test_packed_closed_form_at_scale():
    """The packed closed form equals the player-by-player reference on
    conj444's antichains, subsets of 1, 2, 50 and 300 coalitions and the
    whole antichain (L_max in ``lose`` mode, W_min in win), and its verdict
    on the other antichain equals a naive weight sum per coalition."""
    g = _dim_hier_games()["conj444"]
    rng = random.Random(80)
    outcomes = set()
    for mode in ("lose", "win"):
        verts, fixed = _antichain(g, mode), _antichain(g, "win" if mode == "lose" else "lose")
        for size in (1, 2, 50, 300, len(verts)):
            masks = rng.sample(verts, size)
            weights, quota = dimension._summed_part(masks, g.n, mode == "lose")
            got = weights + [quota]
            assert [v // math.gcd(*got) for v in got] == _summed_part_reference(masks, g.n, mode)
            handles_all = all(_handles_exactly(weights, quota, m, "win" if mode == "lose" else "lose")
                              for m in fixed)
            found = dimension._summed_part(masks, g.n, mode == "lose", fixed)
            assert (found == (weights, quota)) if handles_all else found is None, (mode, size)
            outcomes.add(handles_all)
    assert outcomes == {True, False}


class TestCoverWitnessCheck:
    """Cover witnesses are checked on the antichains, at every player count."""

    # three disjoint winning pairs; the 22-player game has no truth table
    GAMES = {22: [0b11, 0b1100, 0b11 << 20], 6: [0b11, 0b1100, 0b11 << 4]}

    @pytest.mark.parametrize("n", sorted(GAMES))
    def test_large_and_small_games_are_checked(self, n, monkeypatch):
        checked = []

        def recording(parts, verts, fixed, mode):
            checked.append(mode)
            return _check_cover(parts, verts, fixed, mode)

        monkeypatch.setattr(dimension, "_check_cover", recording)
        g = make_game_from_masks(n, self.GAMES[n])
        report = exact_dimension(g)
        assert report.lower == report.upper == report.exact == 4
        assert codimension_direct(g).exact == 3
        assert checked == ["lose", "win"]

    @pytest.mark.parametrize("n", sorted(GAMES))
    @pytest.mark.parametrize("mode", ["lose", "win"])
    def test_corrupted_part_raises(self, n, mode):
        g = make_game_from_masks(n, self.GAMES[n])
        if mode == "lose":
            report, verts, fixed = exact_dimension(g), maximal_losing_masks(g), list(g.minwin_masks)
        else:
            report, verts, fixed = codimension_direct(g), list(g.minwin_masks), maximal_losing_masks(g)
        parts = report.witness_upper.parts
        _check_cover(parts, verts, fixed, mode)
        wins_all = WeightedRep((1,) * n, 1)  # handles no maximal losing coalition
        loses_all = WeightedRep((1,) * n, n + 1)  # handles no minimal winning one
        # a part that breaks the fixed side, then one that leaves a vertex unhandled
        spoilers = (loses_all, wins_all) if mode == "lose" else (wins_all, loses_all)
        with pytest.raises(AssertionError):
            _check_cover((spoilers[0],) + parts[1:], verts, fixed, mode)
        with pytest.raises(AssertionError):
            _check_cover((spoilers[1],) + parts[1:], verts, fixed, mode)


def test_lp_counts_stay_bounded(monkeypatch):
    """Separation LPs and ``_join`` calls run by ``exact_dimension`` on the
    benchmark's hard games and fam(2,3) (same budget); the bounds are the
    counts of the current search."""
    calls = []
    joins = []
    real_lp, real_join = PartOracle._lp, PartOracle._join

    def counting(self, masks):
        calls.append(masks)
        return real_lp(self, masks)

    def counting_join(self, masks, common, mask):
        joins.append(mask)
        return real_join(self, masks, common, mask)

    monkeypatch.setattr(PartOracle, "_lp", counting)
    monkeypatch.setattr(PartOracle, "_join", counting_join)
    budget = Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000)
    games = {
        "disj25": (build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))), 2, 18, 56),
        "conj444": (build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))), 2, 16, 586),
        "fam32": (losing_witness_family(3, 2)[0], 3, 17, 182),
        "fam23": (losing_witness_family(2, 3)[0], 4, 112, 437),
    }
    for name, (g, exact, lp_bound, join_bound) in games.items():
        calls.clear()
        joins.clear()
        assert exact_dimension(g, budget).exact == exact, name
        assert len(calls) <= lp_bound, (name, len(calls))
        assert len(joins) <= join_bound, (name, len(joins))


def _greedy_run(oracle, verts, adj):
    """The upper-bound cover of ``_cover_report``: first fit in index order."""
    return dimension._first_cover(oracle, verts, adj, range(len(verts)), 0, len(verts), math.inf)


def _greedy_cover_reference(oracle, verts, adj):
    """The canonical greedy loop the upper bound ran before it became a run
    of the block search: each block grows from the first uncovered vertex
    by every later uncovered vertex that can join it, in index order."""
    uncovered = list(range(len(verts)))
    blocks = []
    while uncovered:
        seed = uncovered[0]
        block, masks, block_adj = [seed], [verts[seed]], adj[seed]
        common = oracle._open(verts[seed])
        for e in uncovered[1:]:
            if block_adj >> e & 1:
                continue
            joined = oracle._join(masks, common, verts[e])
            if joined:
                block.append(e)
                masks.append(verts[e])
                block_adj |= adj[e]
                common = joined
        covered = set(block)
        uncovered = [e for e in uncovered if e not in covered]
        blocks.append((block, oracle._rep(dimension._lowest(common))))
    return blocks


def test_greedy_run_is_the_greedy_cover():
    """First fit in index order against the canonical greedy loop, each on a
    fresh oracle with its own graph: the same block members, the same
    witnesses and the same LP count.  On the benchmark's games, fam(2,3) and
    fam(4,2), and on random 5-7-player games in both cover directions."""
    cases = [
        (build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))), "lose"),
        (build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))), "lose"),
        (losing_witness_family(3, 2)[0], "lose"),
        (losing_witness_family(2, 3)[0], "lose"),
        (losing_witness_family(4, 2)[0], "lose"),
    ]
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(5, 7)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        cases += [(g, "lose"), (g, "win")]
    for g, mode in cases:
        verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
        if not verts or verts[0] == 0:
            continue
        runs = []
        for cover in (_greedy_run, _greedy_cover_reference):
            oracle = PartOracle(g, mode)
            adj = _graph_on(verts, oracle)
            runs.append((cover(oracle, verts, adj), oracle.lp_calls))
        (got, got_lps), (want, want_lps) = runs
        assert [masks for masks, _ in got] == [[verts[v] for v in block] for block, _ in want], (g, mode)
        assert [rep for _, rep in got] == [rep for _, rep in want], (g, mode)
        assert got_lps == want_lps, (g, mode)


def test_search_node_counts_stay():
    """The smallest ``max_nodes`` under which ``_exists_cover``, seeded with
    the clique as ``_cover_report`` seeds it, finds its cover without
    raising, found by bisection with a fresh oracle per run."""
    cases = [
        (build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))), 2, 28),
        (losing_witness_family(3, 2)[0], 3, 86),
        (losing_witness_family(2, 3)[0], 4, 205),
        (losing_witness_family(4, 2)[0], 4, 196),
    ]
    for g, d, want in cases:
        verts = maximal_losing_masks(g)
        adj = _graph_on(verts, PartOracle(g))
        clique = dimension._clique(adj, 700)  # the clique_exact of Budget(1500, 700, 600_000)

        def finds(max_nodes):
            try:
                return dimension._exists_cover(PartOracle(g), verts, adj, d, clique, max_nodes)
            except dimension.BudgetExceeded:
                return None

        lo, hi = 0, 10**6  # the search raises at lo and not at hi
        assert finds(hi) is not None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if finds(mid) is not None else (mid, hi)
        assert hi == want, (g, d)


def test_search_depth_is_not_capped():
    """The 7-of-14 majority game has 3,003 maximal losing coalitions, three
    times Python's default recursion limit.  With no edges both the search
    for one block and the greedy run put all of them in one block."""
    g = weighted_game(WeightedRep((1,) * 14, 7))
    verts = maximal_losing_masks(g)
    assert len(verts) == 3003
    adj = [0] * len(verts)
    found = dimension._exists_cover(PartOracle(g), verts, adj, 1, [0], 10**6)
    greedy = _greedy_run(PartOracle(g), verts, adj)
    for cover in (found, greedy):
        assert [masks for masks, _ in cover] == [verts]
        _check_cover((cover[0][1],), verts, list(g.minwin_masks), "lose")


def _exists_cover_reference(oracle, verts, adj, d, seed_clique):
    """The cover search of ``dimension._exists_cover`` without its forward
    check (same vertex order, same block loop, no node budget): the block
    masks of the first cover found, or None."""
    pre = seed_clique[:d]
    order = pre + sorted(
        (v for v in range(len(verts)) if v not in pre), key=lambda v: (-adj[v].bit_count(), v)
    )
    blocks = [[verts[v]] for v in pre]
    block_adj = [adj[v] for v in pre]
    common = [oracle._open(verts[v]) for v in pre]

    def assign(idx):
        if idx == len(order):
            return True
        v = order[idx]
        for b in range(len(blocks)):
            if block_adj[b] >> v & 1:
                continue
            joined = oracle._join(blocks[b], common[b], verts[v])
            if not joined:
                continue
            blocks[b].append(verts[v])
            saved = block_adj[b], common[b]
            block_adj[b] |= adj[v]
            common[b] = joined
            if assign(idx + 1):
                return True
            blocks[b].pop()
            block_adj[b], common[b] = saved
        if len(blocks) < d:
            blocks.append([verts[v]])
            block_adj.append(adj[v])
            common.append(oracle._open(verts[v]))
            if assign(idx + 1):
                return True
            blocks.pop()
            block_adj.pop()
            common.pop()
        return False

    return [list(b) for b in blocks] if assign(len(pre)) else None


def _with_join_count(search, oracle, *args):
    """``search(oracle, *args)`` and the number of ``_join`` calls it made."""
    calls = 0

    def counting(*join_args):
        nonlocal calls
        calls += 1
        return PartOracle._join(oracle, *join_args)

    oracle._join = counting
    try:
        return search(oracle, *args), calls
    finally:
        del oracle._join


def test_forward_check_finds_the_uncut_cover():
    """``_exists_cover`` with its forward check against the uncut search, for
    each cover size tried: the same blocks (or the same None), no more
    ``_join`` calls, and every cover verified exactly.  On the benchmark's
    games and fam(2,3) the d that ``exact_dimension`` tries: from the clique
    bound up to the first cover found (past it the uncut search on fam(2,3)
    runs millions of joins).  On random 6-7-player games, in both cover
    directions, every d below the greedy cover, so games whose bounds meet
    still run the search."""
    hard = [
        build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))),
        losing_witness_family(3, 2)[0],
        losing_witness_family(2, 3)[0],
    ]
    rng = random.Random(79)
    small = []
    for _ in range(40):
        n = rng.randint(6, 7)
        small.append(make_game_from_masks(n, oracles.random_game_masks(rng, n)))
    cases = [(g, "lose", True) for g in hard]
    cases += [(g, mode, False) for g in small for mode in ("lose", "win")]
    outcomes = set()
    for g, mode, as_searched in cases:
        verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
        if len(verts) < 2:
            continue
        oracle = PartOracle(g, mode)
        adj = _graph_on(verts, oracle)
        clique = dimension._clique(adj, WIDE.clique_exact)
        upper = len(_greedy_run(oracle, verts, adj))
        runs = [(d, clique) for d in range(len(clique), upper)]
        if not as_searched:
            # an empty seed opens every block in the search, so the cut
            # also meets states with fewer than d blocks open
            runs = [(d, seed) for d in range(1, upper) for seed in (clique, [])]
        for d, seed in runs:
            found, cut_calls = _with_join_count(
                dimension._exists_cover, oracle, verts, adj, d, seed, WIDE.max_nodes
            )
            want, uncut_calls = _with_join_count(_exists_cover_reference, oracle, verts, adj, d, seed)
            assert (found is None) == (want is None), (g, mode, d, seed)
            assert cut_calls <= uncut_calls, (g, mode, d, seed)
            outcomes.add(found is None)
            if found is not None:
                assert [masks for masks, _ in found] == want, (g, mode, d, seed)
                _check_cover(tuple(rep for _, rep in found), verts, oracle._fixed_masks, mode)
                if as_searched:
                    break
    assert outcomes == {True, False}


def test_search_on_a_fresh_oracle():
    """``_exists_cover`` on an oracle with no stored witness, so no greedy
    cover ran first: a block it opens gets a witness all the same.  The
    dictator game's one coalition forms one block.  On random 5-7-player
    games, in both cover directions and for every d up to the coalition
    count, a fresh oracle finds a cover exactly when d reaches the exact
    value, and the cover passes ``_check_cover``."""
    g = make_game_from_masks(5, [0b1])
    oracle = PartOracle(g)
    found = dimension._exists_cover(oracle, [0b11110], [0], 1, [], 100)
    assert [masks for masks, _ in found] == [[0b11110]]
    _check_cover(tuple(rep for _, rep in found), [0b11110], oracle._fixed_masks, "lose")
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(5, 7)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        for mode, report in (("lose", exact_dimension(g, WIDE)), ("win", codimension_direct(g, WIDE))):
            verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
            if not report.num_maximal_losing:
                continue
            adj = _graph_on(verts, PartOracle(g, mode))
            for d in range(1, len(verts) + 1):
                oracle = PartOracle(g, mode)
                found = dimension._exists_cover(oracle, verts, adj, d, [], WIDE.max_nodes)
                assert (found is not None) == (d >= report.exact), (g, mode, d)
                if found is not None:
                    _check_cover(tuple(rep for _, rep in found), verts, oracle._fixed_masks, mode)


def test_hard_games_witnesses_intersect_to_the_game():
    """``exact_dimension`` on the benchmark's hard games: the known value as
    both bounds, and the witness parts intersect back to the game."""
    budget = Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000)
    games = {
        "disj25": (build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))), 2),
        "conj444": (build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))), 2),
        "fam32": (losing_witness_family(3, 2)[0], 3),
    }
    for name, (g, dim) in games.items():
        report = exact_dimension(g, budget)
        assert (report.lower, report.upper, report.exact) == (dim, dim, dim), name
        assert intersect_games(report.witness_upper.parts, g.n) == g, name


def _handles_exactly(weights, quota, mask, mode) -> bool:
    """Integer test: the part loses ``mask`` (``lose``) or wins it (``win``)."""
    total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    return (total < quota) == (mode == "lose")


def test_closed_form_changes_no_verdict(monkeypatch):
    """The closed-form witness before the LP only saves LPs: with it off,
    the pair graphs and the ``lower``/``upper``/``exact`` of both cover
    directions are the same, on the cache-test games and the benchmark's
    hard games; and every closed-form witness handles its set and none of
    the fixed side, checked exactly."""
    found = []
    real_closed_form = PartOracle._closed_form

    def recording(self, masks):
        witness = real_closed_form(self, masks)
        if witness is not None:
            found.append((self, frozenset(masks), witness))
        return witness

    budget = Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000)
    hard = [
        build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))),
        build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))),
        losing_witness_family(3, 2)[0],
    ]
    small = _cache_test_games(random.Random(76))
    lp_calls = []
    real_lp = PartOracle._lp

    def counting(self, masks):
        lp_calls.append(masks)
        return real_lp(self, masks)

    monkeypatch.setattr(PartOracle, "_lp", counting)

    def run():
        out = []
        for g in small:
            for mode in ("lose", "win"):
                verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
                out.append(_graph_on(verts, PartOracle(g, mode)))
            out.extend((r.lower, r.upper, r.exact) for r in (exact_dimension(g), codimension_direct(g)))
        for g in hard:
            out.append(_graph_on(maximal_losing_masks(g), PartOracle(g, "lose")))
            r = exact_dimension(g, budget)
            out.append((r.lower, r.upper, r.exact))
        return out

    monkeypatch.setattr(PartOracle, "_closed_form", recording)
    with_closed_form = run()
    lps_on = len(lp_calls)
    assert found
    for oracle, masks, (weights, quota) in found:
        assert quota >= 1 and math.gcd(*weights, quota) == 1
        assert all(_handles_exactly(weights, quota, m, oracle.mode) for m in masks)
        assert not any(_handles_exactly(weights, quota, m, oracle.mode) for m in oracle._fixed_masks)
    lp_calls.clear()
    monkeypatch.setattr(PartOracle, "_closed_form", lambda self, masks: None)
    assert run() == with_closed_form
    assert len(lp_calls) > lps_on


def test_single_coalitions_need_no_lp():
    """A set of one coalition is always separable, by the closed form."""
    for g in _cache_test_games(random.Random(77)):
        for mode in ("lose", "win"):
            verts = maximal_losing_masks(g) if mode == "lose" else list(g.minwin_masks)
            shared = PartOracle(g, mode)
            for v in verts:
                fresh = PartOracle(g, mode)
                for oracle in (fresh, shared):
                    rep = oracle.separable_set(frozenset((v,)))
                    assert rep is not None and rep.wins_mask(v) == (mode == "win")
                    assert oracle.lp_calls == 0


def test_packed_fields_agree_with_direct_sums(monkeypatch):
    """A stored witness's top bit is in ``_handled(m)`` exactly when its
    integer weight sum handles m, for every coalition m of both antichains,
    after whole ``exact_dimension`` (``lose`` mode) and
    ``codimension_direct`` (win mode) runs: on the benchmark's hard games
    (conj444 without its minute-long ``codimension_direct``), fam(2,3), an
    all-losing game, whose closed form has quota 1 above its weight sum 0,
    and seeded random 5-7-player games."""
    made = []
    real_init = PartOracle.__init__

    def recording(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(PartOracle, "__init__", recording)
    rng = random.Random(82)
    games = dict(_dim_hier_games(), fam23=losing_witness_family(2, 3)[0], all_lose=make_game(4, []))
    for i in range(16):
        n = rng.randint(5, 7)
        games[f"random{i}"] = SimpleGame._from_table(n, oracles.random_two_weighted_table(rng, n, 4))
    budget = Budget(1500, 700, 600_000)
    seen = {"lose": 0, "win": 0, "quota above sum": 0, "sum a power of two": 0}
    for name, g in games.items():
        made.clear()
        exact_dimension(g, budget)
        if name != "conj444":
            codimension_direct(g, budget)
        coalitions = _antichain(g, "lose") + _antichain(g, "win")
        for oracle in made:
            handled = [oracle._handled(m) for m in coalitions]
            for top, (weights, quota) in oracle._witnesses.items():
                want = [_handles_exactly(weights, quota, m, oracle.mode) for m in coalitions]
                assert [bool(h >> top & 1) for h in handled] == want, (name, oracle.mode, top)
                seen[oracle.mode] += 1
                seen["quota above sum"] += quota > sum(weights)
                seen["sum a power of two"] += sum(weights).bit_count() == 1
    assert all(seen.values()), seen


def _pinned_report_groups():
    """The report groups ``test_whole_reports_stay_pinned`` digests: name ->
    a thunk giving a list of whole reports."""
    hard = dict(
        _dim_hier_games(), fam23=losing_witness_family(2, 3)[0], fam42=losing_witness_family(4, 2)[0]
    )
    budget = Budget(1500, 700, 600_000)
    groups = {
        f"{name} dimension": (lambda g=g: [exact_dimension(g, budget)]) for name, g in hard.items()
    }
    for name in ("disj25", "fam32"):
        g = hard[name]
        groups[f"{name} codimension"] = lambda g=g: [codimension(g, budget), codimension_direct(g, budget)]

    def random_games():
        rng, reports = random.Random(81), []
        small = Budget(max_lmax=80, clique_exact=300)
        for i in range(200):
            n = rng.randint(5, 7)
            if i % 2:
                g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            else:
                g = SimpleGame._from_table(n, oracles.random_two_weighted_table(rng, n, 4))
            reports += [route(g, small) for route in (exact_dimension, codimension, codimension_direct)]
        return reports

    groups["200 random games"] = random_games
    return groups


# sha256 of repr(reports), then the LPs the group ran
PINNED_REPORTS = {
    "disj25 dimension": ("819d64a833d2cd3f8539ea444826a840f296e29d72b1b7672c05e6b2ca696864", 18),
    "conj444 dimension": ("0f72e644cc2a6d1c16cb1d2c05f6fc38796e247302abf0606c3b70a80d1067f1", 16),
    "fam32 dimension": ("21e65d6c4b1deec6fa2d2ace7fd104ef9059e5c8ac760aba381818f4c2f02e4b", 17),
    "fam23 dimension": ("41b4816ca635cdd092dc25a72079e3741ee8e52b78f9962bfb054769f5b0b384", 112),
    "fam42 dimension": ("540206a00ec49ec6700db47f573013e32948df53971d83237bc7d876e875543c", 22),
    "disj25 codimension": ("645545bb45b3b1751d0df8292de778d66c1be1c3f30da9f54b8ebd45ad984df9", 3),
    "fam32 codimension": ("4c7c79016996810dff2d1915f8c27b5849a1ced557f44efca2f842917aa2db25", 8),
    "200 random games": ("1bc224e26c3a6b14759db55501b457232d635321f052886391bb53f0c245b29a", 1273),
}


def test_whole_reports_stay_pinned(monkeypatch):
    """Whole reports, witness parts included, and the number of LPs behind
    them stay as pinned: on the benchmark's hard games, fam(2,3) and
    fam(4,2) under the wide budget (codimension on disj25 and fam32 only,
    as conj444's takes a minute), and on 200 seeded random 5-7-player
    games through all three routes."""
    lps = [0]
    real_separate = dimension._separate

    def counting(*args, **kwargs):
        lps[0] += 1
        return real_separate(*args, **kwargs)

    monkeypatch.setattr(dimension, "_separate", counting)
    got = {}
    for name, reports in _pinned_report_groups().items():
        lps[0] = 0
        got[name] = (hashlib.sha256(repr(reports()).encode()).hexdigest(), lps[0])
    assert got == PINNED_REPORTS


def _conj444():
    return build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7)))


def test_conj444_verdicts_stay():
    """conj444's pair graph, clique and exact dimension, as computed before
    its large LPs ran over cells: the sha256 of the adjacency bitsets, the
    clique's coalitions and the exact value under the wide budget.  Its
    witnesses and LP count (``PINNED_REPORTS``) moved with the route; these
    may not."""
    g = _conj444()
    verts = maximal_losing_masks(g)
    adj = _graph_on(verts, PartOracle(g))
    assert hashlib.sha256(repr(adj).encode()).hexdigest() == (
        "6044aa00c54f575455d39019406d0548083f27a0b0c74fd110dde874b6ad0636"
    )
    assert [verts[v] for v in dimension._clique(adj, 700)] == [3854, 4088]
    report = exact_dimension(g, Budget(1500, 700, 600_000))
    assert (report.lower, report.upper, report.exact) == (2, 2, 2)
    assert [c.mask for c in report.witness_lower] == [3854, 4088]


def _cover_verdicts(g, mode, budget):
    """The pair graph of one cover direction on a fresh oracle, its clique,
    and the bounds and value of the matching report."""
    verts = _antichain(g, mode)
    adj = _graph_on(verts, PartOracle(g, mode))
    report = (exact_dimension if mode == "lose" else codimension_direct)(g, budget)
    return adj, dimension._clique(adj, budget.clique_exact), (report.lower, report.upper, report.exact)


def test_cell_route_changes_no_verdict(monkeypatch):
    """Every LP of a complete game sent over cells (the oracle's gate below
    every system, and no cell system falling back to the players for its
    size), against every LP over the players (the oracle's gate above every
    system): the same pair graphs, cliques, bounds and values in both cover
    directions, on every complete five-player game, conj444, fam(2,3) and
    fam(4,2).  Over whole classes the cell rows of the game's side are its
    models, in the order ``desirability`` lists them."""
    five = [SimpleGame._from_table(5, t) for t in oracles.monotone_tables(5)]
    cases = [(g, Budget(1500, 700, 600_000)) for g in five if desirability.is_complete(g)]
    assert len(cases) == 3287
    cases += [
        (losing_witness_family(2, 3)[0], Budget(1500, 700, 600_000)),
        (losing_witness_family(4, 2)[0], Budget(1500, 700, 600_000)),
        (_conj444(), Budget(1500, 300, 600_000)),  # conj444's exact win-side clique takes a minute
    ]

    def run():
        return [
            _cover_verdicts(g, mode, budget)
            for g, budget in cases
            for mode in ("lose", "win")
            if _antichain(g, mode) and _antichain(g, mode)[0]
        ]

    lifted = [0]
    real_system = dimension._separation_system

    def counting(*args):
        lifted[0] += 1
        return real_system(*args)

    monkeypatch.setattr(dimension, "_separation_system", counting)
    monkeypatch.setattr(dimension, "_EXACT_SIZE_LIMIT", math.inf)
    want = run()
    assert not lifted[0]
    monkeypatch.setattr(_exactlp, "_EXACT_SIZE_LIMIT", math.inf)
    monkeypatch.setattr(dimension, "_EXACT_SIZE_LIMIT", -1)
    assert run() == want
    assert lifted[0] > 10_000
    for g, _ in cases[-3:]:
        for side, mode in enumerate(("lose", "win")):
            oracle = PartOracle(g, mode)
            _, index = oracle._cell_block(tuple((s,) for s in oracle._sizes))
            assert list(index) == desirability._class_antichains(g)[side]


def _adjacent_pairs(g, count):
    """``count`` adjacent pairs of the ``lose`` pair graph, spread over its edges."""
    verts = maximal_losing_masks(g)
    adj = _graph_on(verts, PartOracle(g))
    edges = [(verts[i], verts[j]) for i in range(len(verts)) for j in _bits(adj[i]) if j > i]
    return edges[:: max(1, len(edges) // count)][:count]


def test_cell_route_refutes_adjacent_pairs_by_lifted_certificates(monkeypatch):
    """With every LP over cells, ``_lp`` on adjacent pairs of fam(2,3) and
    conj444 returns None, each after two Farkas checks that pass: the cell
    system's own, then the lifted certificate's on the full system (the
    oracle's own row block)."""
    monkeypatch.setattr(dimension, "_EXACT_SIZE_LIMIT", -1)
    checks = []
    real_check = LinearSystem.check_farkas

    def recording(self, *args):
        ok = real_check(self, *args)
        checks.append((self.block, ok))
        return ok

    monkeypatch.setattr(LinearSystem, "check_farkas", recording)
    for g in (losing_witness_family(2, 3)[0], _conj444()):
        pairs = _adjacent_pairs(g, 50)
        assert len(pairs) == 50
        oracle = PartOracle(g)
        for a, b in pairs:
            checks.clear()
            assert oracle._lp(frozenset((a, b))) is None
            assert [(block is oracle._fixed, ok) for block, ok in checks] == [(False, True), (True, True)]
        assert not oracle._witnesses


def test_cell_systems_past_the_probe_gate_fall_back(monkeypatch):
    """A cell system whose tableau is above ``_exactlp._EXACT_SIZE_LIMIT``
    is not solved; its LP runs over the players instead.  With that gate
    lowered into the range of conj444's cell systems, some LPs fall back and
    some do not, and the pair graph and report keep their verdicts."""
    routes = []
    real_player_lp, real_system = PartOracle._player_lp, dimension._separation_system

    def player_lp(self, variable):
        routes.append("players")
        return real_player_lp(self, variable)

    def system(*args):
        routes.append("cells")
        return real_system(*args)

    monkeypatch.setattr(PartOracle, "_player_lp", player_lp)
    monkeypatch.setattr(dimension, "_separation_system", system)
    monkeypatch.setattr(_exactlp, "_EXACT_SIZE_LIMIT", 700)
    g = _conj444()
    verts = maximal_losing_masks(g)
    adj = _graph_on(verts, PartOracle(g))
    assert hashlib.sha256(repr(adj).encode()).hexdigest() == (
        "6044aa00c54f575455d39019406d0548083f27a0b0c74fd110dde874b6ad0636"
    )
    report = exact_dimension(g, Budget(1500, 700, 600_000))
    assert (report.lower, report.upper, report.exact) == (2, 2, 2)
    assert set(routes) == {"players", "cells"}


def test_cell_route_checks_are_live(monkeypatch):
    """A cell LP's spoiled point (its quota above every weight sum) and a
    spoiled certificate (all multipliers zero) each fail the check on the
    full system and raise AssertionError."""
    g = _conj444()
    (a, b), = _adjacent_pairs(g, 1)
    compatible = maximal_losing_masks(g)[:1]
    real_separate = dimension._separate

    def spoiled(fixed, variable):
        res = real_separate(fixed, variable)
        if res.feasible:
            return LPResult(True, res.nums[:-1] + [(sum(res.nums) + 1) * g.n], res.den)
        return LPResult(False, [0] * len(res.nums), res.den)

    monkeypatch.setattr(dimension, "_EXACT_SIZE_LIMIT", -1)
    oracle = PartOracle(g)
    assert oracle._lp(frozenset(compatible)) is not None
    assert oracle._lp(frozenset((a, b))) is None
    monkeypatch.setattr(dimension, "_separate", spoiled)
    for masks in (compatible, (a, b)):
        with pytest.raises(AssertionError, match="lifted cell"):
            oracle._lp(frozenset(masks))


def test_conj444_large_lps_all_run_over_cells(monkeypatch):
    """conj444's ``exact_dimension`` solves no LP above the gate: each LP
    whose tableau over the players is above ``_EXACT_SIZE_LIMIT`` runs over
    cells, and no cell system is above it and falls back."""
    sizes = []
    real_solve = LinearSystem.solve

    def recording(self):
        sizes.append(_exactlp._tableau_size(self.num_vars, len(self.rows)))
        return real_solve(self)

    monkeypatch.setattr(LinearSystem, "solve", recording)
    assert exact_dimension(_conj444(), Budget(1500, 700, 600_000)).exact == 2
    assert len(sizes) == 16 and max(sizes) <= _exactlp._EXACT_SIZE_LIMIT


@pytest.mark.parametrize("budget", [5, {"max_lmax": 3}, (30, 200, 300_000)])
def test_budget_must_be_a_budget(budget, majority5):
    """The cover routes take a :class:`Budget` or None; anything else raises
    :class:`InvalidGameError` before any work."""
    for route in (exact_dimension, codimension, codimension_direct):
        with pytest.raises(InvalidGameError, match="Budget"):
            route(majority5, budget)
    all_win = make_game_from_masks(3, [0])
    with pytest.raises(InvalidGameError, match="Budget"):
        exact_dimension(all_win, 5)


@pytest.mark.parametrize("mode", ["banana", "LOSE", None, 0])
def test_oracle_mode_is_checked(mode, majority5):
    """A part oracle answers in ``lose`` or ``win`` mode only."""
    with pytest.raises(InvalidGameError, match="mode"):
        PartOracle(majority5, mode)
