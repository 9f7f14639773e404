import random
from fractions import Fraction

import pytest

import oracles
from simplegames import (
    Coalition,
    HierarchicalSpec,
    InvalidGameError,
    Kind,
    RoughRep,
    WeightedRep,
    build,
    find_certificate,
    is_roughly_weighted,
    is_weighted,
    losing_witness_family,
    make_game,
    make_game_from_masks,
    separable,
    verify_certificate,
    verify_representation,
    weighted_game,
)
from simplegames.core import (
    MAX_PLAYERS, MAX_TABLE_PLAYERS, TableSizeError, maximal_losing, maximal_losing_masks
)
from simplegames.lpsep import threshold_table


class TestSeparable:
    def test_un_council_separation(self, un_council):
        rep = separable(15, un_council.min_winning, maximal_losing(un_council))
        assert rep is not None
        assert verify_representation(un_council, rep)
        # the textbook representation also verifies
        assert verify_representation(un_council, WeightedRep((7,) * 5 + (1,) * 10, 39))

    def test_witness_family_pair_is_inseparable(self):
        game, witnesses = losing_witness_family(2, 2)
        assert separable(game.n, game.min_winning, witnesses[:2]) is None

    def test_empty_lose_side_is_feasible(self, majority5):
        rep = separable(5, majority5.min_winning, [])
        assert rep is not None and rep.quota >= 1

    def test_empty_coalition_must_win(self):
        # the all-win game, which the LP's q >= 1 cannot give, is the answer
        # when nothing must lose; anything that must lose makes it infeasible
        for n in (1, 3, 5):
            all_win = make_game(n, [Coalition.of([], n)])
            rep = separable(n, [0], [])
            assert rep == WeightedRep((0,) * n, 0) == is_weighted(all_win)
            assert verify_representation(all_win, rep)
            assert separable(n, [0, 0b1], []) == rep
            assert separable(n, [Coalition.of([], n)], [0]) is None

    def test_rejects_coalitions_outside_the_player_set(self):
        for win, lose in (
            ([0b1000], []),  # member 3 of a 3-player separation
            ([-1], []),
            ([], [0b1000]),
            ([Coalition.of([0], 5)], []),  # coalition over 5 players
            ([], [Coalition.of([0], 5)]),
        ):
            with pytest.raises(InvalidGameError):
                separable(3, win, lose)

    def test_rejects_non_integer_masks(self):
        # 1.5 and "3" used to be read as the masks 1 and 3
        for win, lose in (([1.5], []), (["3"], []), ([], [True]), ([], [2.0])):
            with pytest.raises(InvalidGameError, match="mask must be an integer"):
                separable(3, win, lose)

    def test_rejects_player_counts_outside_the_cap(self):
        for n, win, lose in ((0, [], []), (-1, [], []), (MAX_PLAYERS + 1, [1], [2]), (70, [1], [2])):
            with pytest.raises(InvalidGameError, match="player count"):
                separable(n, win, lose)
        assert separable(MAX_PLAYERS, [1], [2]) is not None

    def test_forced_superset_is_infeasible(self):
        g = make_game(4, [Coalition.of([0], 4)])
        assert separable(4, g.min_winning, [Coalition.of([0, 1], 4)]) is None

    def test_antitone_in_lose_side(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(3, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            lose = maximal_losing_masks(g)
            if len(lose) < 2:
                continue
            big = rng.sample(lose, min(len(lose), rng.randint(2, 4)))
            small = big[: len(big) - 1]
            if separable(n, g.minwin_masks, big) is not None:
                assert separable(n, g.minwin_masks, small) is not None


class TestIsWeighted:
    def test_majority(self, majority5):
        rep = is_weighted(majority5)
        assert rep is not None and verify_representation(majority5, rep)
        assert verify_representation(majority5, WeightedRep((1,) * 5, 3))

    def test_witness_family_not_weighted(self):
        game, _ = losing_witness_family(2, 2)
        assert is_weighted(game) is None

    def test_low_second_threshold_is_weighted(self):
        g = build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 3), (2, 3)))
        rep = is_weighted(g)
        assert rep is not None and verify_representation(g, rep)

    def test_un_council(self, un_council):
        rep = is_weighted(un_council)
        assert rep is not None and verify_representation(un_council, rep)

    def test_full_lp_route_past_the_table_gate(self):
        """Past the table gate there are no desirability classes, so the
        separation LP over the game's own antichains decides."""
        any_one = make_game_from_masks(22, [1 << i for i in range(22)])
        assert any_one.n > MAX_TABLE_PLAYERS
        rep = is_weighted(any_one)
        assert rep is not None and verify_representation(any_one, rep)
        pairs = make_game_from_masks(22, [0b11, 0b1100, 0b11 << 20])
        assert is_weighted(pairs) is None
        cert = find_certificate(pairs, 8)
        assert cert is not None and verify_certificate(pairs, cert)

    def test_degenerate_games(self):
        all_win = make_game(3, [Coalition.of([], 3)])
        all_lose = make_game(3, [])
        rep_w = is_weighted(all_win)
        assert rep_w is not None and rep_w.quota == 0
        assert verify_representation(all_win, rep_w)
        rep_l = is_weighted(all_lose)
        assert rep_l is not None and verify_representation(all_lose, rep_l)

    def test_agrees_with_fourier_motzkin(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            got = is_weighted(g) is not None
            want = oracles.fm_weighted(n, list(g.minwin_masks), maximal_losing_masks(g))
            assert got == want, (n, g.minwin_masks)

    def test_agrees_with_integer_weight_enumeration(self):
        # entries up to 2^n suffice at this scale; the scan is only
        # tractable for n <= 4
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 4)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n, max_gen=4))
            got = is_weighted(g) is not None
            want = oracles.int_weights_weighted(
                n, list(g.minwin_masks), maximal_losing_masks(g), 1 << n
            )
            assert got == want

    def test_every_witness_verifies(self):
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            rep = is_weighted(g)
            if rep is not None:
                assert verify_representation(g, rep)


class TestRoughWeightedness:
    def test_witness_family_roughly_weighted(self):
        game, _ = losing_witness_family(2, 2)
        rep = is_roughly_weighted(game)
        assert rep is not None and verify_representation(game, rep)

    def test_weighted_implies_roughly_weighted(self, majority5, un_council):
        for g in (majority5, un_council):
            rep = is_roughly_weighted(g)
            assert rep is not None and verify_representation(g, rep)

    def test_small_conjunctive_not_roughly_weighted(self):
        # smallest conjunctive refusal found by scanning valid specs
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, (2, 3, 2), (1, 2, 3))
        g = build(spec)
        assert is_roughly_weighted(g) is None
        # independent confirmation: quota-1 system infeasible by FM and no passer
        n = g.n
        rows = []
        for m in g.minwin_masks:
            rows.append(([Fraction(-(m >> i & 1)) for i in range(n)], Fraction(-1)))
        for y in maximal_losing_masks(g):
            rows.append(([Fraction(y >> i & 1) for i in range(n)], Fraction(1)))
        assert not oracles.fm_feasible(n, rows)
        assert not any(g.wins_mask(1 << p) for p in range(n))

    def test_all_win_game_gets_negative_quota(self):
        g = make_game(3, [Coalition.of([], 3)])
        rep = is_roughly_weighted(g)
        assert rep is not None and rep.quota < 0
        assert verify_representation(g, rep)

    def test_passer_case_quota_zero(self):
        # player 0 alone wins, the rest form a non-threshold tangle
        g = make_game_from_masks(4, [0b0001, 0b0110, 0b1100, 0b1010])
        rep = is_roughly_weighted(g)
        assert rep is not None
        assert verify_representation(g, rep)

    def test_quota_zero_branch_needs_the_passer(self):
        # three disjoint pairs admit no quota-1 system; only passer 6 saves it
        pairs = [0b11, 0b1100, 0b110000]
        g = make_game_from_masks(7, [1 << 6] + pairs)
        rep = is_roughly_weighted(g)
        assert rep is not None
        assert rep.weights == (0,) * 6 + (1,) and rep.quota == 0
        assert verify_representation(g, rep)
        assert is_roughly_weighted(make_game_from_masks(6, pairs)) is None


class TestVerifyRepresentation:
    def test_un_council_textbook_weights(self, un_council):
        assert verify_representation(un_council, WeightedRep((7,) * 5 + (1,) * 10, 39))

    def test_majority(self, majority5):
        assert verify_representation(majority5, WeightedRep((1, 1, 1, 1, 1), 3))

    def test_zero_weight_breaks_majority(self, majority5):
        assert not verify_representation(majority5, WeightedRep((1, 1, 1, 1, 0), 3))

    def test_dimension_mismatch_raises(self, majority5):
        with pytest.raises(InvalidGameError):
            verify_representation(majority5, WeightedRep((1, 1, 1), 2))

    def test_scaling_invariance(self, majority5):
        rep = WeightedRep((1, 1, 1, 1, 1), 3)
        for t in (Fraction(2), Fraction(7, 3)):
            scaled = WeightedRep(tuple(w * t for w in rep.weights), rep.quota * t)
            assert verify_representation(majority5, scaled)

    def test_antichain_check_equals_full_scan(self):
        rng = random.Random(45)
        for _ in range(50):
            n = rng.randint(2, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            weights = tuple(Fraction(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(n))
            quota = Fraction(max(1, rng.randint(1, 12)), rng.choice([1, 2]))
            rep = WeightedRep(weights, quota)
            full_scan = all(
                (rep.weight_of_mask(x) >= quota) == g.wins_mask(x) for x in range(1 << n)
            )
            assert verify_representation(g, rep) == full_scan
            rough = RoughRep(weights, quota)
            rough_scan = all(
                (not g.wins_mask(x) if rep.weight_of_mask(x) < quota else True)
                and (g.wins_mask(x) if rep.weight_of_mask(x) > quota else True)
                for x in range(1 << n)
            )
            assert verify_representation(g, rough) == rough_scan


class TestThresholdGames:
    def test_weighted_game_roundtrip(self, majority5):
        rep = WeightedRep((1, 1, 1, 1, 1), 3)
        assert weighted_game(rep) == majority5

    def test_exact_fraction_quota(self):
        rep = WeightedRep((Fraction(11, 10), 1), Fraction(21, 10))
        g = weighted_game(rep)
        assert g.wins_mask(0b11) and not g.wins_mask(0b01) and not g.wins_mask(0b10)

    def test_table_matches_definition(self):
        rng = random.Random(46)
        for _ in range(30):
            n = rng.randint(1, 6)
            weights = tuple(Fraction(rng.randint(0, 5), rng.choice([1, 3])) for _ in range(n))
            quota = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            t = threshold_table(weights, quota, n)
            for x in range(1 << n):
                want = sum(w for i, w in enumerate(weights) if x >> i & 1) >= quota
                assert bool(t >> x & 1) == want

    def test_table_gate_raises_before_the_subset_sums(self):
        with pytest.raises(TableSizeError):
            threshold_table((1,) * 21, 1, 21)


def test_rep_validation_rules():
    with pytest.raises(InvalidGameError):
        WeightedRep((-1, 1), 1)
    with pytest.raises(InvalidGameError):
        WeightedRep((1, 1), 0)  # zero quota only with zero weights
    with pytest.raises(InvalidGameError):
        RoughRep((0, 0), 0)
    WeightedRep((0, 0), 0)  # the trivial all-win form is allowed


@pytest.mark.parametrize("kind", [WeightedRep, RoughRep])
@pytest.mark.parametrize(
    "weights, quota", [((1, 1), "1"), ((True, 1), 1), ((None, 1), 1), ((1, 1), True), ((0.5, 1), 1)]
)
def test_rep_inputs_must_be_rationals(kind, weights, quota):
    with pytest.raises(InvalidGameError, match="must be a rational number"):
        kind(weights, quota)


@pytest.mark.parametrize("kind", [WeightedRep, RoughRep])
@pytest.mark.parametrize("count", [0, MAX_PLAYERS + 1])
def test_rep_weight_count_is_a_player_count(kind, count):
    with pytest.raises(InvalidGameError, match="player count"):
        kind((1,) * count, 1)


def test_rough_rep_weights_are_nonnegative():
    with pytest.raises(InvalidGameError, match="nonnegative"):
        RoughRep((-1, 2), 1)


def test_zero_player_reps_reach_no_game():
    from simplegames import Leaf, formula_game, intersect_games

    with pytest.raises(InvalidGameError):
        weighted_game(WeightedRep((), 1))
    with pytest.raises(InvalidGameError):
        formula_game(Leaf(WeightedRep((), 0)))
    with pytest.raises(InvalidGameError):
        intersect_games([WeightedRep((), 1)], 0)


def test_weight_of_mask_reads_the_integer_view():
    rep = WeightedRep((Fraction(1, 2), Fraction(2, 3), 0), Fraction(7, 6))
    assert [rep.weight_of_mask(x) for x in range(8)] == [
        sum((w for i, w in enumerate(rep.weights) if x >> i & 1), Fraction(0)) for x in range(8)
    ]
    assert [rep.wins_mask(x) for x in range(8)] == [x & 3 == 3 for x in range(8)]
    fresh = WeightedRep(rep.weights, rep.quota)  # the view is a cache, outside repr and ==
    assert repr(rep) == repr(fresh) and rep == fresh and hash(rep) == hash(fresh)
