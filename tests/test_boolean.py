import random
from fractions import Fraction

import pytest

from simplegames import (
    And,
    Coalition,
    InvalidGameError,
    Leaf,
    Or,
    WeightedRep,
    build_tripartite,
    dual,
    eval_formula,
    exact_dimension,
    make_game_from_masks,
    verify_representation,
    formula_dual,
    formula_game,
    formula_size,
    parse_formula,
    verify_boolean_rep,
    weighted_game,
)
from simplegames import _exactlp
from simplegames.boolean import FormulaSyntaxError, format_formula
from simplegames.lpsep import RoughRep


def majority_leaf():
    return Leaf(WeightedRep((1, 1, 1, 1, 1), 3))


def cumulative_leaves(n, k):
    total = sum(n)
    leaves = []
    for level, threshold in enumerate(k):
        cutoff = sum(n[: level + 1])
        weights = tuple(1 if p < cutoff else 0 for p in range(total))
        leaves.append(Leaf(WeightedRep(weights, threshold)))
    return leaves


def tripartite_formula(n, k):
    g1, g2, g3 = cumulative_leaves(n, k)
    return Or((g1, And((g2, g3))))


class TestConstruction:
    """A leaf takes only a :class:`WeightedRep` and a connective only
    formulas; anything else raises :class:`InvalidGameError` when built, not
    later in evaluation or verification."""

    def test_leaf_rejects_a_rough_representation(self):
        with pytest.raises(InvalidGameError, match="WeightedRep"):
            Leaf(RoughRep((1, 1, 1), 2))

    @pytest.mark.parametrize("rep", [(1, 1, 1), None, 3], ids=["tuple", "none", "int"])
    def test_leaf_rejects_other_objects(self, rep):
        with pytest.raises(InvalidGameError, match="WeightedRep"):
            Leaf(rep)

    @pytest.mark.parametrize("connective", [And, Or])
    @pytest.mark.parametrize("children", [
        (majority_leaf(), 5),
        [majority_leaf(), "AND"],
        (WeightedRep((1, 1, 1, 1, 1), 3),),
        majority_leaf(),
        (),
    ], ids=["int", "str", "bare rep", "not a sequence", "empty"])
    def test_connectives_reject_non_formulas(self, connective, children):
        with pytest.raises(InvalidGameError):
            connective(children)

    def test_connectives_take_nested_formulas_as_tuples(self):
        leaf = majority_leaf()
        f = And([leaf, Or([leaf])])
        assert f.children == (leaf, Or((leaf,)))
        assert verify_boolean_rep(weighted_game(leaf.rep), f)


class TestEval:
    def test_single_leaf(self):
        f = majority_leaf()
        assert eval_formula(f, Coalition.of([0, 1, 2], 5))
        assert not eval_formula(f, Coalition.of([0, 1], 5))

    def test_tripartite_first_disjunct(self):
        f = tripartite_formula((2, 2, 2), (1, 2, 3))
        assert eval_formula(f, Coalition.of([0], 6))

    def test_tripartite_failed_conjunction(self):
        f = tripartite_formula((2, 2, 2), (2, 3, 6))
        # meets the middle threshold but not the last, and not the first
        assert not eval_formula(f, Coalition.of([0, 2, 3], 6))

    def test_player_count_mismatch(self):
        with pytest.raises(InvalidGameError):
            eval_formula(majority_leaf(), Coalition.of([0], 4))


class TestFormulaGame:
    def test_or_of_single_leaf(self, majority5):
        assert formula_game(Or((majority_leaf(),))) == majority5

    def test_tripartite_formula_matches_builder(self):
        n, k = (2, 2, 2), (1, 2, 3)
        assert formula_game(tripartite_formula(n, k)) == build_tripartite(n, k)

    def test_and_of_level_cuts_is_conjunctive_game(self, h_conj_444):
        leaves = cumulative_leaves((4, 4, 4), (2, 4, 7))
        assert formula_game(And(tuple(leaves))) == h_conj_444

    def test_monotone_for_random_formulas(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(2, 6)
            f = _random_formula(rng, n, depth=2)
            g = formula_game(f)
            for _ in range(40):
                x = rng.randrange(1 << n)
                y = x | rng.randrange(1 << n)
                if g.wins_mask(x):
                    assert g.wins_mask(y)


class TestSize:
    def test_tripartite_size_three(self):
        assert formula_size(tripartite_formula((2, 2, 2), (1, 2, 3))) == 3

    def test_single_leaf(self):
        assert formula_size(majority_leaf()) == 1

    def test_and_of_m_parts(self):
        leaves = cumulative_leaves((4, 4, 4), (2, 4, 7))
        assert formula_size(And(tuple(leaves))) == 3


def _random_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.35:
        weights = tuple(Fraction(rng.randint(0, 4)) for _ in range(n))
        quota = Fraction(rng.randint(1, max(2, int(sum(weights)) or 2)))
        return Leaf(WeightedRep(weights, quota))
    children = tuple(_random_formula(rng, n, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(children) if rng.random() < 0.5 else Or(children)


class TestDual:
    def test_and_becomes_or(self):
        a, b = majority_leaf(), Leaf(WeightedRep((2, 1, 1, 1, 1), 3))
        d = formula_dual(And((a, b)))
        assert isinstance(d, Or) and len(d.children) == 2

    def test_semantic_de_morgan_random(self):
        rng = random.Random(72)
        for _ in range(20):
            n = rng.randint(2, 6)
            f = _random_formula(rng, n, depth=2)
            assert formula_game(formula_dual(f)) == dual(formula_game(f))

    def test_size_preserved(self):
        rng = random.Random(73)
        for _ in range(10):
            f = _random_formula(rng, 4, depth=2)
            assert formula_size(formula_dual(f)) == formula_size(f)

    def test_double_dual_same_game(self):
        f = tripartite_formula((2, 2, 2), (1, 2, 3))
        assert formula_game(formula_dual(formula_dual(f))) == formula_game(f)

    def test_degenerate_leaf_duals(self):
        n = 3
        all_lose_leaf = Leaf(WeightedRep((0, 0, 0), 1))
        d = formula_dual(all_lose_leaf)
        assert formula_game(d) == dual(weighted_game(all_lose_leaf.rep))


class TestVerify:
    def test_tripartite(self):
        n, k = (2, 2, 2), (1, 2, 3)
        assert verify_boolean_rep(build_tripartite(n, k), tripartite_formula(n, k))

    def test_ten_game_intersection(self, h_disj_25):
        from itertools import combinations

        leaves = []
        for chosen in combinations(range(5), 3):
            weights = (3, 3) + tuple(2 if i in chosen else 0 for i in range(5))
            leaves.append(Leaf(WeightedRep(weights, 6)))
        assert verify_boolean_rep(h_disj_25, And(tuple(leaves)))

    def test_wrong_quota_rejected(self, majority5):
        assert not verify_boolean_rep(majority5, Leaf(WeightedRep((1, 1, 1, 1, 1), 4)))


class TestTextSyntax:
    def test_round_trip(self):
        text = "AND(WG(5; 4,11/10,1,1,1,1,1), OR(WG(1; 1,0,0,0,0,0,0), WG(6; 1,1,1,1,1,1,1)))"
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f
        assert formula_size(f) == 3

    def test_fraction_literals_exact(self):
        f = parse_formula("WG(21/10; 11/10,1)")
        assert isinstance(f, Leaf)
        assert f.rep.quota == Fraction(21, 10)
        assert f.rep.weights[0] == Fraction(11, 10)

    def test_syntax_errors(self):
        for bad in ("AND()", "WG(1; )", "WG(1, 2)", "XOR(WG(1; 1))", "AND(WG(1; 1)", ""):
            with pytest.raises(FormulaSyntaxError):
                parse_formula(bad)

    def test_zero_denominator_is_a_syntax_error(self):
        for bad in ("WG(1/0; 1)", "WG(1; 1,2/0)"):
            with pytest.raises(FormulaSyntaxError, match="zero denominator"):
                parse_formula(bad)


def test_boolean_size_never_exceeds_intersection_size(h_disj_25):
    # an intersection representation is itself an AND formula of the same size
    from simplegames import exact_dimension

    report = exact_dimension(h_disj_25)
    leaves = tuple(Leaf(p) for p in report.witness_upper.parts)
    assert verify_boolean_rep(h_disj_25, And(leaves))
    assert formula_size(And(leaves)) == report.exact


class TestAntichainVerify:
    """``verify_boolean_rep`` decides on the game's two antichains, so it
    needs no truth table and answers past the table gate."""

    def test_re_checks_a_dimension_witness_past_the_table_gate(self, two_halves):
        parts = exact_dimension(two_halves).witness_upper.parts
        f = And(tuple(map(Leaf, parts)))
        assert len(parts) == 2 and verify_boolean_rep(two_halves, f)
        assert not verify_boolean_rep(two_halves, And(tuple(map(Leaf, parts[1:]))))
        assert verify_boolean_rep(dual(two_halves), formula_dual(f))

    def test_equals_the_table_comparison(self):
        rng = random.Random(74)
        answers = set()
        for _ in range(60):
            n = rng.randint(2, 7)
            f = _random_formula(rng, n, depth=2)
            g = formula_game(f)
            masks = list(g.minwin_masks)
            dropped = make_game_from_masks(n, masks[1:]) if masks else g
            grown = make_game_from_masks(n, masks + [rng.randrange(1 << n)])
            for h in (g, dropped, grown):
                got = verify_boolean_rep(h, f)
                assert got == (formula_game(f) == h)
                answers.add(got)
        assert answers == {True, False}

    def test_closed_form_dual_leaf_is_the_dual_game(self):
        rng = random.Random(75)
        for _ in range(300):
            n = rng.randint(1, 7)
            weights = tuple(Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])) for _ in range(n))
            total = sum(weights)
            kind = rng.randrange(3)
            if kind == 0:
                rep = WeightedRep((0,) * n, 0)  # quota zero: the all-win form
            elif kind == 1:
                rep = WeightedRep(weights, total + Fraction(rng.randint(1, 3), rng.choice([1, 2])))
            else:
                rep = WeightedRep(weights, Fraction(rng.randint(1, 4 * n + 2), rng.choice([1, 2, 3])))
            d = formula_dual(Leaf(rep))
            assert isinstance(d, Leaf)
            assert formula_game(d) == dual(weighted_game(rep))

    def test_reaches_no_lp(self, monkeypatch, h_disj_25):
        def no_lp(self):
            raise AssertionError("an LP ran")

        monkeypatch.setattr(_exactlp.LinearSystem, "solve", no_lp)
        f = tripartite_formula((2, 2, 2), (1, 2, 3))
        g = build_tripartite((2, 2, 2), (1, 2, 3))
        assert verify_boolean_rep(dual(g), formula_dual(f))
        assert eval_formula(f, Coalition.of([0], 6))
        assert verify_representation(h_disj_25, WeightedRep((4, 4, 1, 1, 1, 1, 1), 8)) is False
        assert verify_representation(weighted_game(majority_leaf().rep), majority_leaf().rep)
