import functools
import itertools
import operator
import random

import pytest

import oracles
from simplegames import (
    Coalition,
    CompletenessError,
    Outcome,
    compare_players,
    equivalence_classes,
    is_complete,
    make_game,
    make_game_from_masks,
    maximal_losing_models,
    minimal_winning_models,
    shift_maximal_losing,
    shift_minimal_winning,
)
from simplegames import certificates, desirability
from simplegames.core import SimpleGame
from simplegames.desirability import (
    ClassPartition,
    _class_antichains,
    _model_antichains,
    incomparability_witness,
    incomparable_pair,
)


def test_un_permanent_member_strictly_more_desirable(un_council):
    assert compare_players(un_council, 0, 7) is Outcome.STRICTLY_MORE
    assert compare_players(un_council, 7, 0) is Outcome.STRICTLY_LESS
    assert compare_players(un_council, 5, 9) is Outcome.EQUIVALENT


def test_majority_all_equivalent(majority5):
    assert compare_players(majority5, 0, 4) is Outcome.EQUIVALENT


def test_h25_top_class_strictly_more(h_disj_25):
    assert compare_players(h_disj_25, 0, 3) is Outcome.STRICTLY_MORE


def test_incomparable_pair_game():
    g = make_game(4, [Coalition.of([0, 1], 4), Coalition.of([2, 3], 4)])
    assert compare_players(g, 0, 2) is Outcome.INCOMPARABLE
    assert not is_complete(g)
    assert incomparable_pair(g) == (0, 2)


def test_compare_matches_brute_force_random():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        winning = {x for x in range(1 << n) if g.wins_mask(x)}
        i, j = rng.sample(range(n), 2)
        ij = oracles.brute_at_least_as_desirable(n, winning, i, j)
        ji = oracles.brute_at_least_as_desirable(n, winning, j, i)
        want = {
            (True, True): Outcome.EQUIVALENT,
            (True, False): Outcome.STRICTLY_MORE,
            (False, True): Outcome.STRICTLY_LESS,
            (False, False): Outcome.INCOMPARABLE,
        }[(ij, ji)]
        assert compare_players(g, i, j) is want


class TestCompleteness:
    def test_weighted_games_are_complete(self, majority5, un_council):
        assert is_complete(majority5)
        assert is_complete(un_council)

    def test_hierarchical_games_are_complete(self, h_disj_25, h_conj_444):
        assert is_complete(h_disj_25)
        assert is_complete(h_conj_444)


class TestEquivalenceClasses:
    def test_un_council_two_classes(self, un_council):
        part = equivalence_classes(un_council)
        assert part.sizes == (5, 10)
        assert part.classes[0] == (0, 1, 2, 3, 4)

    def test_majority_single_class(self, majority5):
        assert equivalence_classes(majority5).sizes == (5,)

    def test_h444_three_classes(self, h_conj_444):
        assert equivalence_classes(h_conj_444).sizes == (4, 4, 4)

    def test_error_carries_witness_pair(self):
        g = make_game(4, [Coalition.of([0, 1], 4), Coalition.of([2, 3], 4)])
        with pytest.raises(CompletenessError) as err:
            equivalence_classes(g)
        assert err.value.pair == (0, 2)

    def test_class_order_is_strict_desirability(self):
        rng = random.Random(22)
        done = 0
        while done < 25:
            n = rng.randint(2, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            if not is_complete(g):
                continue
            done += 1
            part = equivalence_classes(g)
            for a in range(len(part.classes) - 1):
                i, j = part.classes[a][0], part.classes[a + 1][0]
                assert compare_players(g, i, j) is Outcome.STRICTLY_MORE


def _model(part, mask):
    """Members of ``mask`` in each class of ``part``."""
    return tuple(sum(mask >> p & 1 for p in cls) for cls in part.classes)


class TestModels:
    def test_status_depends_only_on_model(self):
        rng = random.Random(23)
        done = 0
        while done < 20:
            n = rng.randint(2, 7)
            g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
            if not is_complete(g):
                continue
            done += 1
            part = equivalence_classes(g)
            by_model = {}
            for x in range(1 << n):
                key = _model(part, x)
                status = g.wins_mask(x)
                assert by_model.setdefault(key, status) == status

    def test_h25_model_views(self, h_disj_25):
        assert minimal_winning_models(h_disj_25) == ((0, 5), (1, 4), (2, 0))
        assert maximal_losing_models(h_disj_25) == ((0, 4), (1, 3))
        assert shift_maximal_losing(h_disj_25) == ((1, 3),)
        assert shift_minimal_winning(h_disj_25) == ((0, 5), (2, 0))

    def test_majority_models(self, majority5):
        assert shift_maximal_losing(majority5) == ((2,),)
        assert shift_minimal_winning(majority5) == ((3,),)

    def test_un_council_models(self, un_council):
        assert shift_minimal_winning(un_council) == ((5, 4),)
        assert minimal_winning_models(un_council) == ((5, 4),)

    def test_h444_shift_maximal_losing(self, h_conj_444):
        assert shift_maximal_losing(h_conj_444) == ((1, 4, 4), (3, 0, 4), (4, 2, 0))


def test_shift_views_match_brute_force_random():
    rng = random.Random(24)
    done = 0
    while done < 40:
        n = rng.randint(2, 7)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        if not is_complete(g):
            continue
        done += 1
        part = equivalence_classes(g)
        winning = {x for x in range(1 << n) if g.wins_mask(x)}
        brute_max = {_model(part, y) for y in oracles.brute_shift_maximal_losing(n, winning)}
        brute_min = {_model(part, x) for x in oracles.brute_shift_minimal_winning(n, winning)}
        assert set(shift_maximal_losing(g)) == brute_max
        assert set(shift_minimal_winning(g)) == brute_min


def test_transitivity_on_complete_games():
    rng = random.Random(25)
    done = 0
    while done < 20:
        n = rng.randint(3, 6)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        if not is_complete(g):
            continue
        done += 1
        verdicts = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = compare_players(g, i, j)
                    verdicts[i, j] = v in (Outcome.STRICTLY_MORE, Outcome.EQUIVALENT)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3 and verdicts[i, j] and verdicts[j, k]:
                        assert verdicts[i, k]


def test_every_minimal_model_dominates_a_shift_minimal_one(h_disj_25, h_conj_444):
    for g in (h_disj_25, h_conj_444):
        shift_min = shift_minimal_winning(g)
        for model in minimal_winning_models(g):
            prefix = []
            acc = 0
            for v in model:
                acc += v
                prefix.append(acc)
            ok = False
            for u in shift_min:
                acc = 0
                dominated = True
                for t, v in enumerate(u):
                    acc += v
                    if acc > prefix[t]:
                        dominated = False
                        break
                ok = ok or dominated
            assert ok


def _five_player_games():
    return [SimpleGame._from_table(5, t) for t in oracles.monotone_tables(5)]


def _two_pass_partition(g):
    """Classes of a complete game by sorting the players with the pairwise
    verdicts, after a first pass that rejects incomplete games; None then."""
    pairs = itertools.combinations(range(g.n), 2)
    if any(compare_players(g, i, j) is Outcome.INCOMPARABLE for i, j in pairs):
        return None
    rank = {Outcome.STRICTLY_MORE: -1, Outcome.EQUIVALENT: 0, Outcome.STRICTLY_LESS: 1}
    order = sorted(range(g.n), key=functools.cmp_to_key(lambda i, j: rank[compare_players(g, i, j)]))
    classes = []
    for p in order:  # stable sort: equivalent players stay ascending
        if classes and compare_players(g, classes[-1][0], p) is Outcome.EQUIVALENT:
            classes[-1].append(p)
        else:
            classes.append([p])
    class_of = [next(c for c, cls in enumerate(classes) if p in cls) for p in range(g.n)]
    return ClassPartition(g.n, tuple(map(tuple, classes)), tuple(class_of))


class TestSingleScan:
    def test_classes_match_two_pass_reference_on_all_five_player_games(self):
        complete = 0
        for g in _five_player_games():
            want = _two_pass_partition(g)
            fresh = SimpleGame._from_table(5, g.table)
            if want is None:
                with pytest.raises(CompletenessError) as err:
                    equivalence_classes(g)
                assert err.value.pair == incomparable_pair(fresh) is not None
            else:
                complete += 1
                assert equivalence_classes(g) == want
                assert incomparable_pair(fresh) is None
        assert 0 < complete < 7581

    def test_no_second_scan_after_is_complete(self, monkeypatch):
        calls = []
        real = desirability._violations

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(desirability, "_violations", counting)
        for g in _five_player_games():
            complete = is_complete(g)
            assert calls
            calls.clear()
            if complete:
                equivalence_classes(g)
            else:
                with pytest.raises(CompletenessError):
                    equivalence_classes(g)
            assert calls == []


def _reference_witness(g, i, j):
    """``incomparability_witness`` by brute force: the least X avoiding i
    and j with X|{j} winning and X|{i} losing, and the least Y the other
    way round, as the winning masks (X|{j}, Y|{i})."""
    others = [x for x in range(1 << g.n) if not x & (1 << i | 1 << j)]
    win1 = next((x | 1 << j for x in others if g.wins_mask(x | 1 << j) and not g.wins_mask(x | 1 << i)), None)
    win2 = next((y | 1 << i for y in others if g.wins_mask(y | 1 << i) and not g.wins_mask(y | 1 << j)), None)
    return None if win1 is None or win2 is None else (win1, win2)


class TestWitnessFromTheScan:
    """The completeness scan keeps the swap witness of the pair it stops
    at; ``incomparability_witness`` answers every pair as before."""

    def test_every_pair_before_and_after_the_scan(self):
        for g in _five_player_games():
            pairs = list(itertools.permutations(range(5), 2))
            want = [_reference_witness(g, i, j) for i, j in pairs]
            assert [incomparability_witness(g, i, j) for i, j in pairs] == want
            is_complete(g)
            assert [incomparability_witness(g, i, j) for i, j in pairs] == want

    def test_certificate_reads_the_scan(self, monkeypatch):
        calls = []
        real = desirability._violations

        def counting(*args):
            calls.append(args)
            return real(*args)

        incomparable = 0
        for table in oracles.monotone_tables(5):
            # reference: the certificate built from the brute-force witness
            with monkeypatch.context() as m:
                m.setattr(desirability, "incomparability_witness", _reference_witness)
                want = certificates.find_certificate(SimpleGame._from_table(5, table))
            g = SimpleGame._from_table(5, table)
            pair = incomparable_pair(g)
            with monkeypatch.context() as m:
                m.setattr(desirability, "_violations", counting)
                calls.clear()
                got = certificates.find_certificate(g)
            assert got == want
            if pair is not None:
                incomparable += 1
                assert calls == []  # the certificate re-ran no scan
        assert incomparable > 0


def _upset_predicate(gens):
    """Monotone: at least one generator model is reached member-wise."""
    return lambda u: any(all(map(operator.ge, u, v)) for v in gens)


def _threshold_predicate(weights, quota):
    """Monotone: non-negative class weights reach the quota."""
    return lambda u: sum(map(operator.mul, u, weights)) >= quota


class TestModelAntichainsAgainstPerModelScan:
    def test_random_monotone_predicates(self):
        rng = random.Random(26)
        for trial in range(3000):
            sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            if trial % 2:
                gens = [tuple(rng.randint(0, s) for s in sizes) for _ in range(rng.randint(0, 4))]
                wins = _upset_predicate(gens)
            else:
                weights = [rng.randint(0, 5) for _ in sizes]
                wins = _threshold_predicate(weights, rng.randint(0, sum(weights) + 1))
            assert _model_antichains(sizes, wins) == oracles.per_model_antichains(sizes, wins)

    def test_class_sizes_of_every_complete_five_player_game(self):
        seen = set()
        for g in _five_player_games():
            if not is_complete(g):
                continue
            part = equivalence_classes(g)
            prefixes = [list(itertools.accumulate((1 << p for p in cls), initial=0)) for cls in part.classes]
            wins = lambda u: g.wins_mask(sum(pre[k] for pre, k in zip(prefixes, u)))
            want = oracles.per_model_antichains(part.sizes, wins)
            assert _model_antichains(part.sizes, wins) == want
            assert _class_antichains(g) == want
            seen.add(part.sizes)
        # 14 of the 16 compositions of 5 occur; (2, 1, 1, 1) and (3, 1, 1) do not
        assert len(seen) == 14
