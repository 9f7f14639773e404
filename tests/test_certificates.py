import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from simplegames import (
    Coalition,
    InvalidGameError,
    TradingTransform,
    find_certificate,
    is_weighted,
    losing_witness_family,
    make_game,
    make_game_from_masks,
    pair_incompatibility_certificate,
    verify_certificate,
    verify_trading_transform,
)
from simplegames.certificates import _certificate_from_farkas
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.lpsep import separable_result


def tt(n, pre, post):
    return TradingTransform(
        tuple(Coalition.of(p, n) for p in pre),
        tuple(Coalition.of(p, n) for p in post),
    )


class TestBalance:
    def test_witness_family_swap_is_balanced(self):
        # two top players trade against the two aligned bottom pairs
        t = tt(6, [[0, 1], [2, 3, 4, 5]], [[0, 2, 3], [1, 4, 5]])
        assert verify_trading_transform(t)

    def test_identity_is_balanced(self):
        t = tt(4, [[0, 2]], [[0, 2]])
        assert verify_trading_transform(t)

    def test_multiplicity_mismatch(self):
        t = tt(2, [[0], [1]], [[0], [0]])
        assert not verify_trading_transform(t)

    def test_balance_survives_reordering(self):
        t = tt(5, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
        reordered = TradingTransform(tuple(reversed(t.pre)), t.post)
        assert verify_trading_transform(t) == verify_trading_transform(reordered)

    def test_structural_validation(self):
        with pytest.raises(InvalidGameError):
            tt(3, [[0]], [[0], [1]])
        with pytest.raises(InvalidGameError):
            TradingTransform((), ())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_balance_invariant_under_permutations(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    j = data.draw(st.integers(min_value=1, max_value=4))
    pre = [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(j)]
    post = [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(j)]
    t = TradingTransform(
        tuple(Coalition(m, n) for m in pre), tuple(Coalition(m, n) for m in post)
    )
    perm_pre = data.draw(st.permutations(range(j)))
    perm_post = data.draw(st.permutations(range(j)))
    shuffled = TradingTransform(
        tuple(t.pre[i] for i in perm_pre), tuple(t.post[i] for i in perm_post)
    )
    assert verify_trading_transform(t) == verify_trading_transform(shuffled)


def _transform(n, pre, post):
    return TradingTransform(tuple(Coalition(m, n) for m in pre), tuple(Coalition(m, n) for m in post))


class TestBalanceAgainstPerPlayerCounts:
    def test_random_transforms_with_repeats(self):
        rng = random.Random(52)
        balanced = unbalanced = 0
        for _ in range(1500):
            n = rng.randint(1, 8)
            length = rng.randint(1, 64)
            pool = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            pre = [rng.choice(pool) for _ in range(length)]  # repeated coalitions
            # deal each player's pre count to distinct posts: balanced
            post = [0] * length
            for p in range(n):
                for k in rng.sample(range(length), sum(m >> p & 1 for m in pre)):
                    post[k] |= 1 << p
            change = rng.random()
            if change < 0.25:  # one membership added or dropped
                post[rng.randrange(length)] ^= 1 << rng.randrange(n)
            elif change < 0.5 and length > 1:  # two: a count off by two, same parity
                p = rng.randrange(n)
                a, b = rng.sample(range(length), 2)
                if post[a] >> p & 1 == post[b] >> p & 1:
                    post[a] ^= 1 << p
                    post[b] ^= 1 << p
            want = oracles.per_player_balanced(n, pre, post)
            assert verify_trading_transform(_transform(n, pre, post)) == want
            balanced += want
            unbalanced += not want
        assert balanced > 500 and unbalanced > 500

    def test_equal_and_or_but_unequal_counts(self):
        rng = random.Random(53)
        found = 0
        while found < 200:
            n = rng.randint(2, 5)
            pre = [rng.randrange(1 << n) for _ in range(3)]
            post = [rng.randrange(1 << n) for _ in range(3)]
            same_and = pre[0] & pre[1] & pre[2] == post[0] & post[1] & post[2]
            same_or = pre[0] | pre[1] | pre[2] == post[0] | post[1] | post[2]
            if not (same_and and same_or) or oracles.per_player_balanced(n, pre, post):
                continue
            found += 1
            assert not verify_trading_transform(_transform(n, pre, post))
        # the smallest case: player 0 twice against once, player 1 once against twice
        assert not verify_trading_transform(_transform(2, [1, 1, 2], [1, 2, 2]))


class TestVerifyCertificate:
    def test_witness_family_certificate(self):
        game, witnesses = losing_witness_family(2, 2)
        t = tt(6, [[0, 1], [2, 3, 4, 5]], [[0, 2, 3], [1, 4, 5]])
        assert verify_certificate(game, t)

    def test_weighted_game_rejects_all_balanced_transforms(self, majority5):
        rng = random.Random(51)
        for _ in range(200):
            pre = [rng.randrange(1 << 5) for _ in range(2)]
            counts = [0] * 5
            for m in pre:
                for i in range(5):
                    counts[i] += m >> i & 1
            # random rebalancing of the same multiset into two coalitions
            post = [0, 0]
            for i, c in enumerate(counts):
                if c == 2:
                    post[0] |= 1 << i
                    post[1] |= 1 << i
                elif c == 1:
                    post[rng.random() > 0.5] |= 1 << i
            t = TradingTransform(
                tuple(Coalition(m, 5) for m in pre), tuple(Coalition(m, 5) for m in post)
            )
            assert verify_trading_transform(t)
            if all(majority5.wins_mask(m) for m in pre):
                assert any(majority5.wins_mask(m) for m in post)
                assert not verify_certificate(majority5, t)

    def test_layered_swap_certificate(self):
        # k=2, m=3 family: posts share the top player, pres trade one
        # mid-level player for the last-level pair
        game, witnesses = losing_witness_family(2, 3)
        pre = [[0, 2, 3, 4], [0, 5, 6, 7, 8, 9]]
        post = [[0, 2, 3, 6, 7], [0, 4, 5, 8, 9]]
        t = tt(10, pre, post)
        assert verify_certificate(game, t)

    def test_unbalanced_raises(self, majority5):
        t = tt(5, [[0, 1, 2]], [[0, 1]])
        with pytest.raises(InvalidGameError):
            verify_certificate(majority5, t)


class TestPairCertificate:
    def test_explicit_family_swap(self):
        game, witnesses = losing_witness_family(2, 2)
        cert = pair_incompatibility_certificate(game, witnesses[0], witnesses[1])
        assert cert is not None
        assert verify_certificate(game, cert)
        assert {c.mask for c in cert.post} == {witnesses[0].mask, witnesses[1].mask}

    def test_weighted_pair_has_none(self, majority5):
        y1, y2 = Coalition.of([0, 1], 5), Coalition.of([2, 3], 5)
        assert pair_incompatibility_certificate(majority5, y1, y2) is None

    def test_conjunctive_model_gap_pair(self, h_conj_444):
        level1 = Coalition.of([0] + list(range(4, 12)), 12)  # one top, rest full
        level3 = Coalition.of(list(range(0, 4)) + [4, 5], 12)  # top full, two mid
        cert = pair_incompatibility_certificate(h_conj_444, level1, level3)
        assert cert is not None and verify_certificate(h_conj_444, cert)

    def test_winning_post_rejected(self, majority5):
        with pytest.raises(InvalidGameError):
            pair_incompatibility_certificate(
                majority5, Coalition.of([0, 1, 2], 5), Coalition.of([3, 4], 5)
            )

    def test_symmetric_difference_above_cap_raises(self):
        n = 22
        unanimity = make_game(n, [Coalition((1 << n) - 1, n)])
        y1, y2 = Coalition(0, n), Coalition((1 << 21) - 1, n)  # 21 players apart
        with pytest.raises(InvalidGameError):
            pair_incompatibility_certificate(unanimity, y1, y2)

    def test_scan_is_complete_for_length_two(self):
        # if the scan says None, no balanced split of the union can work
        rng = random.Random(52)
        for _ in range(40):
            n = rng.randint(3, 6)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            losing = [x for x in range(1 << n) if not g.wins_mask(x)]
            if len(losing) < 2:
                continue
            y1, y2 = rng.sample(losing, 2)
            got = pair_incompatibility_certificate(g, Coalition(y1, n), Coalition(y2, n))
            both = y1 & y2
            delta = y1 ^ y2
            brute = None
            for sub in range(1 << bin(delta).count("1")):
                bits = [i for i in range(n) if delta >> i & 1]
                x1 = both
                for pos, i in enumerate(bits):
                    if sub >> pos & 1:
                        x1 |= 1 << i
                x2 = both | (delta ^ (x1 & delta))
                if g.wins_mask(x1) and g.wins_mask(x2):
                    brute = (x1, x2)
                    break
            assert (got is not None) == (brute is not None)
            if got is not None:
                assert verify_certificate(g, got)


class TestFindCertificate:
    def test_witness_family_length_two(self):
        game, _ = losing_witness_family(2, 2)
        cert = find_certificate(game, 2)
        assert cert is not None and cert.length == 2
        assert verify_certificate(game, cert)

    def test_weighted_games_have_none(self, majority5, un_council):
        assert find_certificate(majority5, 8) is None
        assert find_certificate(un_council, 4) is None

    def test_degenerate_games_have_none(self):
        assert find_certificate(make_game_from_masks(3, [0]), 4) is None
        assert find_certificate(make_game_from_masks(3, []), 4) is None

    def test_max_len_validation(self, majority5):
        with pytest.raises(InvalidGameError):
            find_certificate(majority5, 1)

    def test_agrees_with_weightedness_on_random_games(self):
        rng = random.Random(53)
        for _ in range(120):
            n = rng.randint(2, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            cert = find_certificate(g, 1 << n)
            weighted = is_weighted(g) is not None
            assert (cert is None) == weighted, (n, g.minwin_masks)
            if cert is not None:
                assert verify_certificate(g, cert)
                assert cert.length <= 1 << n

    def test_incomparable_pair_shortcut(self):
        g = make_game_from_masks(4, [0b0011, 0b1100])
        cert = find_certificate(g, 2)
        assert cert is not None and cert.length == 2
        assert verify_certificate(g, cert)


def test_farkas_route_certifies_every_unweighted_five_player_game():
    """The Farkas multipliers of every infeasible five-player separation LP
    give a certificate that ``verify_certificate`` accepts.  On these games
    ``find_certificate`` always stops at a length-2 certificate first, so
    the route is run directly."""
    lengths = set()
    unweighted = 0
    for table in oracles.monotone_tables(5):
        g = SimpleGame._from_table(5, table)
        if is_weighted(g) is not None:
            continue
        unweighted += 1
        maxlose = maximal_losing_masks(g)
        res = separable_result(g.n, g.minwin_masks, maxlose)
        assert not res.feasible
        cert = _certificate_from_farkas(g, res.nums, g.minwin_masks, maxlose)
        assert cert is not None and verify_certificate(g, cert), g.minwin_masks
        lengths.add(cert.length)
    assert unweighted == 4294
    assert max(lengths) > 2


@pytest.mark.parametrize("game, route", [
    ("make_game_from_masks(4, [0b0011, 0b1100])", "incomparability"),
    ("losing_witness_family(2, 2)[0]", "pair"),
], ids=["incomparability", "pair"])
def test_failed_verification_raises_under_python_O(game, route):
    """The runtime checks behind every returned certificate are explicit
    raises, so running with ``-O`` (which strips ``assert``) keeps them: an
    incomparable game takes the swap route, a complete one the pair scan."""
    import simplegames

    code = textwrap.dedent(
        f"""
        import sys
        import simplegames.certificates as c
        from simplegames import losing_witness_family, make_game_from_masks

        if not sys.flags.optimize:
            raise SystemExit("expected a run under -O")
        c.verify_certificate = lambda g, tt: False
        c.find_certificate({game}, 2)
        """
    )
    src = Path(simplegames.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert f"AssertionError: {route} certificate failed verification" in proc.stderr
