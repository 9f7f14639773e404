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
from simplegames.certificates import _swap_split
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.dimension import PartOracle
from simplegames.lpsep import separable_masks, threshold_table

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

    def test_degenerate_games(self):
        all_win = make_game(3, [Coalition.of([], 3)])
        all_lose = make_game(3, [])
        assert exact_dimension(all_win).exact == 1
        assert exact_dimension(all_lose).exact == 1


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
        assert (separable_masks(n, minwin, maxlose) is not None) == want
        assert (PartOracle(g, "lose").separable_set(frozenset(maxlose)) is not None) == want
        for mode, verts in (("lose", maxlose), ("win", minwin)):
            oracle, lp_only = PartOracle(g, mode), PartOracle(g, mode)
            for a, b in combinations(verts, 2):
                if _swap_split(g, a, b, mode == "lose") is not None:
                    assert not oracle.pair_compatible(a, b)
                    assert lp_only.separable_set(frozenset((a, b))) is None



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
