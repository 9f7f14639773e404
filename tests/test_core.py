import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from simplegames import (
    Coalition,
    InvalidGameError,
    compare_players,
    dual,
    dummy_players,
    is_winning,
    make_game,
    make_game_from_masks,
    maximal_losing,
    veto_players,
)
from simplegames import core
from simplegames.core import maximal_losing_masks
from simplegames.lpsep import threshold_table


def coalitions(masks, n):
    return [Coalition(m, n) for m in masks]


class TestCoalition:
    def test_members_roundtrip(self):
        c = Coalition.of([4, 0, 2], 6)
        assert c.members == (0, 2, 4)
        assert len(c) == 3
        assert 2 in c and 1 not in c

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGameError):
            Coalition.of([0, 7], 7)
        with pytest.raises(InvalidGameError):
            Coalition(1 << 8, 8)

    @pytest.mark.parametrize("mask, n", [(1.5, 3), (1, 3.0), (True, 3), (1, True), ("1", 3)])
    def test_rejects_non_integer_mask_or_player_count(self, mask, n):
        # Coalition(1.5, 3) used to be built and fail later in .members
        with pytest.raises(InvalidGameError, match="must be an integer"):
            Coalition(mask, n)

    @pytest.mark.parametrize("members, n", [([1.0], 3), (["1"], 3), ([True], 3), ([1], "3")])
    def test_of_rejects_non_integer_players(self, members, n):
        # [1.0], ["1"] and n="3" used to raise a bare TypeError, [True] to build {1}
        with pytest.raises(InvalidGameError, match="must be an integer"):
            Coalition.of(members, n)

    @pytest.mark.parametrize("i, j", [(True, 2), (1.0, 2), (0, "2")])
    def test_compare_players_rejects_non_integer_players(self, majority5, i, j):
        # True used to count as player 1, 1.0 and "2" to raise a bare TypeError
        with pytest.raises(InvalidGameError, match="player must be an integer"):
            compare_players(majority5, i, j)

    def test_set_algebra(self):
        a = Coalition.of([0, 1], 4)
        b = Coalition.of([1, 2], 4)
        assert a.union(b).members == (0, 1, 2)
        assert a.intersection(b).members == (1,)
        assert a.difference(b).members == (0,)
        assert a.complement().members == (2, 3)
        assert a.issubset(a.union(b))

    def test_sort_key_orders_by_size_then_value(self):
        cs = [Coalition.of(m, 4) for m in ([0, 1], [3], [0, 2], [])]
        ordered = sorted(cs, key=Coalition.sort_key)
        assert [c.members for c in ordered] == [(), (3,), (0, 1), (0, 2)]


class TestMakeGame:
    def test_antichain_reduction_drops_supersets(self):
        g = make_game(3, [Coalition.of([0], 3), Coalition.of([0, 1], 3)])
        assert [c.members for c in g.min_winning] == [(0,)]

    def test_un_council_has_210_minimal_coalitions(self, un_council):
        assert len(un_council.min_winning) == 210
        assert all(len(c) == 9 for c in un_council.min_winning)

    def test_majority_game(self, majority5):
        assert len(majority5.min_winning) == 10

    def test_rejects_bad_player_index(self):
        with pytest.raises(InvalidGameError):
            make_game(3, [Coalition.of([0, 1], 4)])

    def test_rejects_non_integer_masks_and_player_counts(self):
        # each used to raise a bare TypeError
        for n, masks in ((3.0, [3]), (3, [1.5]), (3, ["3"]), (True, [1])):
            with pytest.raises(InvalidGameError, match="must be an integer"):
                make_game_from_masks(n, masks)

    def test_empty_input_is_the_all_lose_game(self):
        g = make_game(4, [])
        assert g.min_winning == ()
        assert not g.wins_mask((1 << 4) - 1)


class TestIsWinning:
    def test_majority_threshold(self, majority5):
        assert is_winning(majority5, Coalition.of([0, 1, 2], 5))
        assert not is_winning(majority5, Coalition.of([0, 1], 5))

    def test_un_council_veto(self, un_council):
        base = list(range(5))
        assert not is_winning(un_council, Coalition.of(base + [5, 6, 7], 15))
        assert is_winning(un_council, Coalition.of(base + [5, 6, 7, 8], 15))
        # missing one veto player: even everyone else does not suffice
        assert not is_winning(un_council, Coalition.of(list(range(1, 15)), 15))

    def test_rejects_wrong_universe(self, majority5):
        with pytest.raises(InvalidGameError):
            is_winning(majority5, Coalition.of([0], 6))


class TestMaximalLosing:
    def test_majority_maximal_losing_are_pairs(self, majority5):
        ml = maximal_losing(majority5)
        assert len(ml) == 10
        assert all(len(c) == 2 for c in ml)

    def test_h25_maximal_losing_models(self, h_disj_25):
        # brute force: the two model families {b,ccc} and {cccc}
        got = {c.mask for c in maximal_losing(h_disj_25)}
        expect = set()
        for b in range(2):
            for cs in combinations(range(2, 7), 3):
                expect.add(1 << b | sum(1 << c for c in cs))
        for cs in combinations(range(2, 7), 4):
            expect.add(sum(1 << c for c in cs))
        assert got == expect

    def test_all_win_game_has_no_losing(self):
        g = make_game(3, [Coalition.of([], 3)])
        assert maximal_losing(g) == ()

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(1, 7)
            masks = oracles.random_game_masks(rng, n)
            g = make_game_from_masks(n, masks)
            assert set(maximal_losing_masks(g)) == oracles.brute_maximal_losing(
                n, list(g.minwin_masks)
            )


class TestDual:
    def test_majority_is_self_dual(self, majority5):
        assert dual(majority5) == majority5

    def test_involution_random(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(1, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            assert dual(dual(g)) == g

    def test_counts_exchange(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            assert g.num_winning() + dual(g).num_winning() == 1 << n

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for i in range(110):
            # the last 30 reverse 256- and 512-bit tables
            n = rng.randint(1, 7) if i < 80 else rng.randint(8, 9)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            assert set(dual(g).minwin_masks) == oracles.brute_dual_minwin(
                n, list(g.minwin_masks)
            )

    def test_degenerate_duals(self):
        all_win = make_game(3, [Coalition.of([], 3)])
        all_lose = make_game(3, [])
        assert dual(all_win) == all_lose
        assert dual(all_lose) == all_win

    def test_large_n_transversal_path(self):
        # above the table gate: dual computed through minimal transversals
        n = 24
        masks = [0b111, 0b111000, 1 << 23 | 1]
        g = make_game_from_masks(n, masks)
        d = dual(g)
        # spot-check the defining property on sampled coalitions
        rng = random.Random(9)
        full = (1 << n) - 1
        for _ in range(2000):
            x = rng.randrange(1 << n)
            assert d.wins_mask(x) == (not g.wins_mask(full ^ x))


class TestReconstruction:
    def test_min_winning_and_maximal_losing_determine_each_other(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            ml = maximal_losing_masks(g)
            # rebuild from losing side: winning = not dominated by any maximal loser
            rebuilt = [
                x for x in range(1 << n) if not any(x & ~y == 0 for y in ml)
            ]
            assert set(rebuilt) == {x for x in range(1 << n) if g.wins_mask(x)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monotonicity_property(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    gens = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=6)
    )
    g = make_game_from_masks(n, gens)
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    extra = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    if g.wins_mask(x):
        assert g.wins_mask(x | extra)
    else:
        assert not g.wins_mask(x & extra)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_winning_is_an_antichain(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=8)
    )
    g = make_game_from_masks(n, gens)
    masks = g.minwin_masks
    for a in masks:
        for b in masks:
            if a != b:
                assert a & ~b != 0


class TestVetoDummy:
    def test_un_council_veto_and_dummies(self, un_council):
        assert veto_players(un_council) == (0, 1, 2, 3, 4)
        assert dummy_players(un_council) == ()

    def test_dummy_detection(self):
        g = make_game(4, [Coalition.of([0, 1], 4)])
        assert dummy_players(g) == (2, 3)
        assert veto_players(g) == (0, 1)


def _bits_reference(t):
    """Set-bit positions of ``t`` read byte by byte, ascending."""
    data = t.to_bytes((t.bit_length() + 7) // 8, "little")
    return [8 * b + k for b, byte in enumerate(data) for k in range(8) if byte >> k & 1]


class TestBits:
    """``_bits`` clears one bit at a time up to ``_BITS_SCAN_ABOVE`` bits and
    scans the binary digits above; each path alone must match the reference."""

    @pytest.mark.parametrize("scan_above", [None, -1, float("inf")])  # as shipped, scan all, loop all
    def test_paths_match_reference(self, scan_above, monkeypatch):
        if scan_above is not None:
            monkeypatch.setattr(core, "_BITS_SCAN_ABOVE", scan_above)
        rng = random.Random(78)
        ints = [0, 1, 1 << 255, 1 << 256, 1 << 5000, (1 << 257) - 1]
        for size in (1, 8, 63, 64, 65, 255, 256, 257, 1000, 5000):
            ints += [rng.getrandbits(size) for _ in range(5)]
            ints += [sum(1 << rng.randrange(size) for _ in range(3)) for _ in range(5)]  # sparse
        ints.append(threshold_table((1,) * 18, 9, 18))  # the 18-player majority game
        for t in ints:
            assert core._bits(t) == _bits_reference(t)
