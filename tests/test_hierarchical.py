import random

import pytest

import oracles
from simplegames import (
    Coalition,
    HierarchicalSpec,
    InvalidGameError,
    Kind,
    build,
    build_tripartite,
    dual,
    equivalence_classes,
    is_complete,
    losing_witness_family,
    make_game_from_masks,
    shift_maximal_losing,
    shift_maximal_losing_models,
    validate_partiteness,
)
from simplegames import hierarchical
from simplegames.core import dummy_players as game_dummies, veto_players as game_veto


def conj(n_vec, k_vec):
    return HierarchicalSpec(Kind.CONJUNCTIVE, n_vec, k_vec)


def disj(n_vec, k_vec):
    return HierarchicalSpec(Kind.DISJUNCTIVE, n_vec, k_vec)


class TestSpecValidation:
    def test_disjunctive_needs_strictly_increasing_thresholds(self):
        with pytest.raises(InvalidGameError):
            disj((2, 3), (3, 3))

    def test_conjunctive_allows_equal_last_threshold(self):
        conj((2, 3, 2), (1, 3, 3))
        with pytest.raises(InvalidGameError):
            conj((2, 3, 2), (3, 2, 4))

    def test_kind_is_coerced_or_rejected(self):
        # a kind given by its value builds that kind, not the conjunctive game
        spec = HierarchicalSpec("disjunctive", (2, 3), (1, 3))
        assert spec == disj((2, 3), (1, 3)) and spec.kind is Kind.DISJUNCTIVE
        assert build(spec) == build(disj((2, 3), (1, 3))) != build(conj((2, 3), (1, 3)))
        assert HierarchicalSpec("conjunctive", (2, 3), (1, 3)).kind is Kind.CONJUNCTIVE
        for bad in ("bogus", "DISJUNCTIVE", 1, None, ["disjunctive"]):
            with pytest.raises(InvalidGameError, match="kind"):
                HierarchicalSpec(bad, (2, 3), (1, 3))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InvalidGameError):
            HierarchicalSpec(Kind.DISJUNCTIVE, (), ())
        with pytest.raises(InvalidGameError):
            disj((0, 2), (1, 2))

    def test_rejects_non_integer_sizes_and_thresholds(self):
        # 1.5 used to build a 7-player game, 2.0 to fail in build with a
        # bare TypeError, and True to count as a size
        for n_vec, k_vec in (((2, 5), (1.5, 5)), ((2.0, 5), (2, 5)), ((True, 5), (1, 5)),
                             ((2, 5), (1, True)), ((2, "5"), (2, 5)), (7, (2,))):
            with pytest.raises(InvalidGameError, match="integers"):
                disj(n_vec, k_vec)
        assert disj([2, 5], iter((2, 5))) == disj((2, 5), (2, 5))


class TestBuild:
    def test_h25_minimal_winning_models(self, h_disj_25):
        from simplegames import minimal_winning_models

        assert minimal_winning_models(h_disj_25) == ((0, 5), (1, 4), (2, 0))

    def test_h444_shift_maximal_losing(self, h_conj_444):
        assert shift_maximal_losing(h_conj_444) == ((1, 4, 4), (3, 0, 4), (4, 2, 0))

    def test_dictator(self):
        g = build(disj((1,), (1,)))
        assert [c.members for c in g.min_winning] == [(0,)]

    def test_predicate_matches_direct_evaluation(self):
        rng = random.Random(31)
        for _ in range(25):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=9, allow_dummies=True)
            spec = conj(sizes, k)
            g = build(spec)
            offsets = spec.class_ranges
            for _ in range(50):
                mask = rng.randrange(1 << g.n)
                prefix = 0
                wants = []
                for (lo, hi), kk in zip(offsets, k):
                    prefix += bin(mask & (((1 << hi) - 1) ^ ((1 << lo) - 1))).count("1")
                    wants.append(prefix >= kk)
                assert g.wins_mask(mask) == all(wants)

    def test_builds_are_complete_with_declared_classes(self):
        rng = random.Random(32)
        for _ in range(12):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=10)
            g = build(conj(sizes, k))
            assert is_complete(g)
            assert equivalence_classes(g).sizes == sizes


class TestPartiteness:
    def test_valid_example(self):
        report = validate_partiteness(conj((4, 4, 4), (2, 4, 7)))
        assert report.true_m_partite and report.violations == ()

    def test_boundary_violation(self):
        report = validate_partiteness(conj((2, 1), (2, 3)))
        assert not report.true_m_partite
        assert any("k2=3" in v for v in report.violations)
        # the built game indeed collapses to a single class
        g = build(conj((2, 1), (2, 3)))
        assert equivalence_classes(g).sizes == (3,)

    def test_first_condition_violation(self):
        report = validate_partiteness(conj((3, 2), (4, 5)))
        assert not report.true_m_partite
        assert any("k1=4" in v for v in report.violations)

    def test_rejects_disjunctive(self):
        with pytest.raises(InvalidGameError):
            validate_partiteness(disj((2, 2), (1, 2)))


class TestVetoDummy:
    def test_no_veto_no_dummy(self):
        spec = conj((4, 4, 4), (2, 4, 7))
        assert hierarchical.veto_players(spec) == ()
        assert hierarchical.dummy_players(spec) == ()

    def test_veto_class(self):
        spec = conj((2, 3), (2, 4))
        assert hierarchical.veto_players(spec) == (0, 1)
        assert game_veto(build(spec)) == (0, 1)

    def test_dummy_class(self):
        spec = conj((3, 2, 4), (2, 4, 4))
        assert hierarchical.dummy_players(spec) == (5, 6, 7, 8)
        assert game_dummies(build(spec)) == (5, 6, 7, 8)

    def test_closed_form_matches_game_on_valid_specs(self):
        rng = random.Random(33)
        for _ in range(20):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=10, allow_dummies=True)
            spec = conj(sizes, k)
            g = build(spec)
            assert set(hierarchical.veto_players(spec)) == set(game_veto(g))
            assert set(hierarchical.dummy_players(spec)) == set(game_dummies(g))


class TestReduce:
    def test_threshold_shift(self):
        spec = conj((2, 3, 4, 2), (2, 3, 5, 5))
        red = hierarchical.reduce(spec)
        assert red.n_vec == (3, 4)
        assert red.k_vec == (1, 3)

    def test_reduced_spec_has_no_veto_or_dummy_class(self):
        red = hierarchical.reduce(conj((2, 3, 4, 2), (2, 3, 5, 5)))
        assert not hierarchical.has_veto_class(red)
        assert not hierarchical.has_dummy_class(red)

    def test_requires_both_special_classes(self):
        with pytest.raises(InvalidGameError):
            hierarchical.reduce(conj((4, 4, 4), (2, 4, 7)))

    def test_subgame_semantics(self):
        # veto players fixed present, dummies deleted
        spec = conj((2, 3, 4, 2), (2, 3, 5, 5))
        g = build(spec)
        red = hierarchical.reduce(spec)
        h = build(red)
        veto_mask = sum(1 << p for p in hierarchical.veto_players(spec))
        middle = [p for lo, hi in spec.class_ranges[1:-1] for p in range(lo, hi)]
        for sub in range(1 << len(middle)):
            mask = veto_mask
            for bit, player in enumerate(middle):
                if sub >> bit & 1:
                    mask |= 1 << player
            assert g.wins_mask(mask) == h.wins_mask(sub)


class TestShiftMaxClosedForm:
    def test_example(self):
        assert shift_maximal_losing_models(conj((4, 4, 4), (2, 4, 7))) == (
            (1, 4, 4),
            (3, 0, 4),
            (4, 2, 0),
        )

    def test_dummy_class_drops_last_model(self):
        models = shift_maximal_losing_models(conj((2, 2, 3), (1, 2, 2)))
        assert models == ((0, 2, 3), (1, 0, 3))
        assert all(m[2] == 3 for m in models)  # dummy class always full
        assert shift_maximal_losing(build(conj((2, 2, 3), (1, 2, 2)))) == models

    def test_closed_form_needs_true_partition(self):
        # k2 = k1 + n2 merges the top two classes, so the closed form's
        # per-declared-class accounting would miss a model; it must refuse
        with pytest.raises(InvalidGameError):
            shift_maximal_losing_models(conj((3, 2, 4), (2, 4, 4)))

    def test_matches_model_scan_on_random_specs(self):
        rng = random.Random(34)
        for _ in range(25):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=10, allow_dummies=True)
            spec = conj(sizes, k)
            assert shift_maximal_losing_models(spec) == shift_maximal_losing(build(spec))

    def test_rejects_invalid_partiteness(self):
        with pytest.raises(InvalidGameError):
            shift_maximal_losing_models(conj((2, 1), (2, 3)))


class TestConsequences:
    def test_threshold_and_size_consequences(self):
        rng = random.Random(35)
        for _ in range(25):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=12, allow_dummies=True)
            cum = 0
            for i, (s, kk) in enumerate(zip(sizes, k)):
                cum += s
                assert kk <= cum - i
            has_dummy = len(k) >= 2 and k[-2] == k[-1]
            for i in range(1, len(sizes) - 1):
                assert sizes[i] > 1
            if len(sizes) > 1 and not has_dummy:
                assert sizes[-1] > 1


class TestWitnessFamily:
    def test_smallest_family_members(self):
        game, witnesses = losing_witness_family(2, 2)
        assert [w.members for w in witnesses] == [(0, 2, 3), (1, 4, 5)]
        assert all(not game.wins(w) for w in witnesses)

    def test_family_size_and_losing(self):
        for k, m in ((2, 2), (3, 2), (2, 3)):
            game, witnesses = losing_witness_family(k, m)
            assert len(witnesses) == k ** (m - 1)
            assert all(not game.wins(w) for w in witnesses)
            assert game.n == k + 2 * k * (m - 1)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(InvalidGameError):
            losing_witness_family(1, 3)

    def test_rejects_non_integer_parameters(self):
        for k, m in ((2, 3.0), ("2", 3), (True, 3)):
            with pytest.raises(InvalidGameError, match="must be an integer"):
                losing_witness_family(k, m)


class TestTripartite:
    def test_first_disjunct_alone_wins(self):
        g = build_tripartite((2, 2, 2), (1, 2, 3))
        assert g.wins(Coalition.of([0], 6))

    def test_middle_class_alone_loses(self):
        g = build_tripartite((2, 2, 2), (2, 2, 3))
        assert not g.wins(Coalition.of([2], 6))
        assert not g.wins(Coalition.of([2, 3], 6))

    def test_rejects_constraint_violations(self):
        with pytest.raises(InvalidGameError):
            build_tripartite((2, 2, 2), (3, 2, 3))  # n1 < k1

    @pytest.mark.parametrize("n, k", [((-1, 5, 5), (-2, 1, 3)), ((0, 3, 3), (0, 2, 4))])
    def test_rejects_empty_or_negative_classes(self, n, k):
        """Both pass the threshold inequalities: the first used to fail with
        a bare ValueError while building, the second built an all-win game
        with an empty declared class."""
        with pytest.raises(InvalidGameError, match="class sizes"):
            build_tripartite(n, k)

    @pytest.mark.parametrize(
        "n, k", [((2.0, 2, 2), (1, 2, 3)), (("2", 2, 2), (1, 2, 3)), ((True, 2, 2), (1, 2, 3)),
                 ((2, 2, 2), (1, 2.5, 3)), (6, (1, 2, 3))],
    )
    def test_rejects_non_integer_sizes_and_thresholds(self, n, k):
        """2.0 and "2" used to raise a bare TypeError and True to build a
        5-player game."""
        with pytest.raises(InvalidGameError, match="integers"):
            build_tripartite(n, k)

    @pytest.mark.parametrize("n, k", [((2, 2), (1, 2, 3)), ((2, 2, 2, 2), (1, 2, 3, 4))])
    def test_rejects_lists_without_three_classes(self, n, k):
        # both used to raise a bare ValueError from tuple unpacking
        with pytest.raises(InvalidGameError, match="three classes"):
            build_tripartite(n, k)

    def test_predicate(self):
        n, k = (2, 3, 2), (2, 3, 4)
        g = build_tripartite(n, k)
        for mask in range(1 << 7):
            c1 = bin(mask & 0b0000011).count("1")
            c2 = bin(mask & 0b0011100).count("1")
            c3 = bin(mask & 0b1100000).count("1")
            want = c1 >= 2 or (c1 + c2 >= 3 and c1 + c2 + c3 >= 4)
            assert g.wins_mask(mask) == want


def _random_disjunctive_params(rng, max_players=12, m_max=4):
    """Class sizes and strictly increasing thresholds, some past reach."""
    while True:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, m_max))]
        if sum(sizes) <= max_players:
            break
    k = [rng.randint(1, sizes[0] + 1)]
    for _ in sizes[1:]:
        k.append(k[-1] + rng.randint(1, 3))
    return tuple(sizes), tuple(k)


def _model_table(n_vec, wins):
    """Truth table of "the coalition's class-count model wins", coalition by
    coalition."""
    ranges = hierarchical._class_ranges(n_vec)
    table = 0
    for mask in range(1 << sum(n_vec)):
        model = tuple(bin(mask >> lo & ((1 << (hi - lo)) - 1)).count("1") for lo, hi in ranges)
        if wins(model):
            table |= 1 << mask
    return table


class TestModelBuiltAntichain:
    """A model-built game's coalitions of minimal winning models are already
    its minimal winning coalitions, in canonical order: a second reduction
    changes nothing."""

    TRIPARTITE = (
        ((2, 2, 2), (1, 2, 3)),
        ((2, 2, 2), (2, 2, 3)),
        ((2, 3, 2), (2, 3, 4)),
        ((3, 3, 4), (2, 4, 6)),
        ((1, 4, 3), (1, 3, 5)),
        ((4, 4, 4), (3, 5, 8)),
    )

    @staticmethod
    def assert_own_antichain(g):
        assert g.minwin_masks == make_game_from_masks(g.n, g.minwin_masks).minwin_masks

    def test_conjunctive(self):
        rng = random.Random(37)
        for _ in range(25):
            sizes, k = oracles.random_conjunctive_params(rng, max_players=12, allow_dummies=True)
            self.assert_own_antichain(build(conj(sizes, k)))

    def test_disjunctive_matches_model_predicate(self):
        rng = random.Random(38)
        for _ in range(25):
            spec = disj(*_random_disjunctive_params(rng))
            g = build(spec)
            self.assert_own_antichain(g)
            assert g.table == _model_table(spec.n_vec, lambda u: hierarchical.model_winning(spec, u))

    def test_tripartite_matches_model_predicate(self):
        for n, (k1, k2, k3) in self.TRIPARTITE:
            g = build_tripartite(n, (k1, k2, k3))
            self.assert_own_antichain(g)
            want = _model_table(n, lambda u: u[0] >= k1 or (u[0] + u[1] >= k2 and sum(u) >= k3))
            assert g.table == want, (n, (k1, k2, k3))

    def test_layered_family(self):
        for k, m in ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2)):
            self.assert_own_antichain(losing_witness_family(k, m)[0])


class TestDualityStructure:
    def test_dual_of_conjunctive_is_disjunctive(self, h_conj_444):
        d = dual(h_conj_444)
        sizes = equivalence_classes(d).sizes
        assert sizes == (4, 4, 4)
        assert oracles.fit_threshold_vector(d, sizes, conjunctive=False) is not None

    def test_dual_of_disjunctive_is_conjunctive(self):
        rng = random.Random(36)
        for n_vec, k_vec in (((2, 4), (2, 4)), ((2, 5), (2, 5)), ((3, 3), (2, 4))):
            g = build(disj(n_vec, k_vec))
            d = dual(g)
            sizes = equivalence_classes(d).sizes
            if len(sizes) == 1:
                assert oracles.fit_threshold_vector(d, sizes, conjunctive=True) is not None
                continue
            fit = oracles.fit_threshold_vector(d, sizes, conjunctive=True)
            assert fit is not None, (n_vec, k_vec, sizes)
