"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria carry explicit
runtime ceilings where stated; value checks are exact (zero tolerance).
"""

import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import oracles
from simplegames import (
    And,
    Budget,
    HierarchicalSpec,
    Kind,
    Leaf,
    Or,
    WeightedRep,
    build,
    build_tripartite,
    codimension,
    codimension_direct,
    conjunctive_intersection_rep,
    dual,
    exact_dimension,
    find_certificate,
    formula_dual,
    formula_game,
    formula_size,
    intersect_games,
    is_roughly_weighted,
    is_weighted,
    kurz_napel_lower,
    losing_witness_family,
    shift_maximal_losing,
    shift_maximal_losing_models,
    upper_bound_lmax,
    verify_boolean_rep,
    verify_certificate,
    verify_representation,
)
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.desirability import equivalence_classes
from simplegames.dimension import PartOracle

WIDE_BUDGET = Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000)


def _report(label: str, started: float, limit: float | None = None) -> None:
    elapsed = time.time() - started
    print(f"\nPASS: {label} ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeds the {limit:.0f}s ceiling"


@pytest.fixture(scope="module")
def family_cache():
    cache = {}

    def get(k, m):
        if (k, m) not in cache:
            game, witnesses = losing_witness_family(k, m)
            cache[k, m] = (game, witnesses)
        return cache[k, m]

    return get


def test_criterion_01_weightedness_oracle(un_council, majority5):
    t0 = time.time()
    rep = is_weighted(un_council)
    assert rep is not None and verify_representation(un_council, rep)
    assert verify_representation(un_council, WeightedRep((7,) * 5 + (1,) * 10, 39))
    assert time.time() - t0 < 5.0
    t1 = time.time()
    rep = is_weighted(majority5)
    assert rep is not None and verify_representation(majority5, rep)
    assert verify_representation(majority5, WeightedRep((1,) * 5, 3))
    assert time.time() - t1 < 5.0
    _report("criterion 1: weightedness oracle on the council and majority games", t0)


def test_criterion_02_witness_family(family_cache):
    t0 = time.time()
    for d in (2, 3, 4):
        game, witnesses = family_cache(d, 2)
        assert is_weighted(game) is None
        cert = find_certificate(game, 2)
        assert cert is not None and cert.length == 2 and verify_certificate(game, cert)
        rough = is_roughly_weighted(game)
        assert rough is not None and verify_representation(game, rough)
        oracle = PartOracle(game, "lose")
        for a, b in combinations(witnesses, 2):
            assert not oracle.pair_compatible(a.mask, b.mask)
        lower, _ = kurz_napel_lower(game)
        assert lower >= d
        if d in (2, 3):
            report = exact_dimension(game, WIDE_BUDGET)
            assert report.exact is not None
            assert d <= report.exact <= report.num_maximal_losing
    _report("criterion 2: two-class witness families for d=2,3,4", t0, limit=60.0)


def test_criterion_03_layered_family(family_cache):
    t0 = time.time()
    k, m = 2, 3
    game, witnesses = family_cache(k, m)
    assert len(witnesses) == k ** (m - 1) == 4
    assert all(not game.wins(w) for w in witnesses)
    oracle = PartOracle(game, "lose")
    for a, b in combinations(witnesses, 2):
        assert not oracle.pair_compatible(a.mask, b.mask)
    lower, _ = kurz_napel_lower(game)
    assert lower >= 4
    count, rep = upper_bound_lmax(game)
    assert intersect_games(rep.parts, game.n) == game
    shape_count = k**m * (2 * k - 1) ** (m - 1)
    _report("criterion 3 (partial): witness size, incompatibility, clique bound", t0)
    assert count == shape_count, (
        f"maximal-losing count is {count}, not {shape_count}: the claimed shape "
        "(one top-class member plus one aligned pair per layer) misses maximal "
        "losing coalitions such as three bottom-class players with no top-class "
        "member, e.g. {b0,b1,b2} in the k=2, m=2 instance, which loses (no two "
        "top players, fewer than four in total) while every superset wins. "
        f"{shape_count} counts exactly the coalitions of the single "
        "shift-maximal losing model (1,2,2); the full maximal-losing antichain "
        f"has {count} members (see test_criterion_03b)."
    )
    assert time.time() - t0 < 120.0


def test_criterion_03b_shift_maximal_shape_count(family_cache):
    # the honest counterpart: 72 counts the shift-maximal losing coalitions
    t0 = time.time()
    game, _ = family_cache(2, 3)
    part = equivalence_classes(game)
    models = shift_maximal_losing(game)
    assert models == ((1, 2, 2),)
    total = sum(
        _model_coalition_count(part.sizes, model) for model in models
    )
    assert total == 72
    assert len(maximal_losing_masks(game)) == 158
    _report("criterion 3 complement: shift-maximal losing shape count is 72", t0, limit=120.0)


def _model_coalition_count(sizes, model):
    out = 1
    for size, count in zip(sizes, model):
        out *= comb(size, count)
    return out


def test_criterion_04_growth_of_the_clique_bound(family_cache):
    t0 = time.time()
    for k, expect in ((2, 2), (3, 3), (4, 4)):
        game, _ = family_cache(k, 2)
        lower, witness = kurz_napel_lower(game)
        assert lower == expect, f"m=2, k={k}: clique {lower} != {expect}"
        assert len(witness) == expect
    for m, expect in ((2, 2), (3, 4)):
        game, _ = family_cache(2, m)
        lower, witness = kurz_napel_lower(game)
        assert lower == expect, f"k=2, m={m}: clique {lower} != {expect}"
        assert len(witness) == expect
    # the next doubling step, certified directly on the witness family
    game, witnesses = family_cache(2, 4)
    assert len(witnesses) == 8
    oracle = PartOracle(game, "lose")
    for a, b in combinations(witnesses, 2):
        assert not oracle.pair_compatible(a.mask, b.mask)
    _report("criterion 4: linear growth in k, doubling growth in m (2,4,8)", t0)


def test_criterion_05_conjunctive_games():
    t0 = time.time()
    spec = HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))
    game = build(spec)
    rep = conjunctive_intersection_rep(spec)
    assert len(rep.parts) == 3
    assert intersect_games(rep.parts, game.n) == game
    assert shift_maximal_losing_models(spec) == ((1, 4, 4), (3, 0, 4), (4, 2, 0))
    report = exact_dimension(game, WIDE_BUDGET)
    assert report.exact is not None and 2 <= report.exact <= 3

    # veto classes are excluded from the sample: a veto class collapses the
    # lower bound (see test_criterion_05b and notes/decisions.md)
    rng = random.Random(555)
    checked = 0
    while checked < 10:
        sizes, k = oracles.random_conjunctive_params(
            rng, max_players=10, m_max=4, allow_dummies=False, allow_veto=False
        )
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, sizes, k)
        result = exact_dimension(build(spec), WIDE_BUDGET)
        assert result.exact is not None, (sizes, k, result.notes)
        m = len(sizes)
        assert (m + 1) // 2 <= result.exact <= m, (sizes, k, result.exact)
        checked += 1
    checked = 0
    while checked < 5:
        sizes, k = oracles.random_conjunctive_params(
            rng, max_players=10, m_max=4, allow_dummies=True, allow_veto=False
        )
        if len(k) < 2 or k[-2] != k[-1]:
            continue
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, sizes, k)
        result = exact_dimension(build(spec), WIDE_BUDGET)
        assert result.exact is not None, (sizes, k, result.notes)
        m = len(sizes)
        assert m // 2 <= result.exact <= m, (sizes, k, result.exact)  # ceil((m-1)/2)
        checked += 1
    _report("criterion 5: conjunctive intersection, shift-max models, dimension range", t0, limit=300.0)


def test_criterion_05b_veto_classes_break_the_lower_bound():
    """A truly 3-partite, dummy-free conjunctive game with a veto class can
    be outright weighted, so the range check must exclude veto classes.

    With thresholds (3,4,5) over class sizes (3,3,2) the top class is a veto
    class; [21; 6,6,6,2,2,2,1,1] represents the game exactly, hence its
    dimension is 1, below ceil(m/2) = 2.
    """
    t0 = time.time()
    spec = HierarchicalSpec(Kind.CONJUNCTIVE, (3, 3, 2), (3, 4, 5))
    from simplegames import validate_partiteness
    from simplegames.hierarchical import has_dummy_class, has_veto_class

    assert validate_partiteness(spec).true_m_partite
    assert has_veto_class(spec) and not has_dummy_class(spec)
    game = build(spec)
    assert equivalence_classes(game).sizes == (3, 3, 2)
    rep = WeightedRep((6, 6, 6, 2, 2, 2, 1, 1), 21)
    assert verify_representation(game, rep)
    assert exact_dimension(game, WIDE_BUDGET).exact == 1
    _report("criterion 5 complement: documented veto-class counterexample", t0)


def test_criterion_06_two_class_example(h_disj_25):
    t0 = time.time()
    g1 = WeightedRep((4, Fraction(11, 10), 1, 1, 1, 1, 1), 5)
    g2 = WeightedRep((Fraction(11, 10), 4, 1, 1, 1, 1, 1), 5)
    assert g1.weights[1] == Fraction(11, 10)  # exact rational, no rounding
    assert intersect_games((g1, g2), 7) == h_disj_25
    parts = []
    for chosen in combinations(range(5), 3):
        weights = (3, 3) + tuple(2 if i in chosen else 0 for i in range(5))
        parts.append(WeightedRep(weights, 6))
    assert len(parts) == 10
    assert intersect_games(parts, 7) == h_disj_25
    report = exact_dimension(h_disj_25)
    assert report.exact == 2
    _report("criterion 6: both explicit representations and exact dimension 2", t0, limit=10.0)


def test_criterion_07_duality_and_codimension():
    t0 = time.time()
    tables5 = oracles.threshold_tables(5, 8)
    budget = Budget(max_lmax=40)
    dims: dict[int, int] = {}
    games: dict[int, SimpleGame] = {}
    for t in oracles.monotone_tables(5):
        g = SimpleGame._from_table(5, t)
        games[t] = g
        dims[t] = exact_dimension(g, budget).exact
        assert dims[t] is not None
    full = (1 << (1 << 5)) - 1
    mismatches = 0
    for t, g in games.items():
        d = dual(g)
        assert dual(d) == g  # involution
        dual_table = d.table
        assert dual_table in dims
        # codimension via the dual game vs the enumeration union-cover oracle
        via_dual = dims[dual_table]
        direct = oracles.oracle_codimension(5, t, tables5)
        if via_dual != direct:
            mismatches += 1
    assert mismatches == 0
    # the identity codim(dual) = dim through the public functions, sampled
    rng = random.Random(77)
    sample = rng.sample(sorted(games), 150)
    for t in sample:
        g = games[t]
        assert codimension(dual(g), budget).exact == dims[t]
    # 50 random larger games: involution, direct union route, identity
    rng = random.Random(78)
    big_budget = Budget(max_lmax=80, clique_exact=300)
    from simplegames import make_game_from_masks

    for _ in range(50):
        n = rng.randint(6, 7)
        g = make_game_from_masks(n, oracles.random_game_masks(rng, n))
        assert dual(dual(g)) == g
        via_dual = codimension(g, big_budget).exact
        direct = codimension_direct(g, big_budget).exact
        assert via_dual == direct is not None
        assert codimension(dual(g), big_budget).exact == exact_dimension(g, big_budget).exact
    _report("criterion 7: duality corpus with the union-cover oracle", t0, limit=600.0)


_CRITERION_08_WORKERS = 2


def _criterion_08_share(first: int, step: int) -> tuple[int, int, int]:
    """Check corpus entries ``first, first + step, ...`` (run in a worker
    process); returns the corpus size and the numbers of disagreements and
    of spot-verified certificates."""
    corpus = oracles.monotone_tables_6()
    disagreements = 0
    spot = 0
    for idx in range(first, len(corpus), step):
        g = SimpleGame._from_table(6, int(corpus[idx]))
        weighted = is_weighted(g) is not None
        cert = find_certificate(g, 64)
        if weighted != (cert is None):
            disagreements += 1
        if cert is not None and idx % 1024 == 0:
            assert verify_certificate(g, cert)
            spot += 1
        elif weighted and idx % 4096 == 0:
            assert verify_representation(g, is_weighted(g))
    return len(corpus), disagreements, spot


def test_criterion_08_certificates_match_weightedness():
    # Every game is checked: the corpus is dealt round-robin to worker
    # processes, each of which runs the same loop on its share.
    t0 = time.time()
    step = _CRITERION_08_WORKERS
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(step, mp_context=spawn) as pool:
        shares = list(pool.map(_criterion_08_share, range(step), [step] * step))
    assert sum(d for _, d, _ in shares) == 0
    spot = sum(s for _, _, s in shares)
    print(f"\n  corpus size {shares[0][0]}, spot-verified certificates: {spot}")
    _report("criterion 8: certificate search agrees with the exact oracle on all 6-player games", t0)


def test_criterion_09_shift_maximal_closed_form():
    t0 = time.time()
    rng = random.Random(99)
    disagreements = 0
    dummy_cases = 0
    for _ in range(30):
        allow = rng.random() < 0.5
        sizes, k = oracles.random_conjunctive_params(
            rng, max_players=12, m_max=4, allow_dummies=allow
        )
        spec = HierarchicalSpec(Kind.CONJUNCTIVE, sizes, k)
        if len(k) >= 2 and k[-2] == k[-1]:
            dummy_cases += 1
        closed = shift_maximal_losing_models(spec)
        scanned = shift_maximal_losing(build(spec))
        if closed != scanned:
            disagreements += 1
    assert disagreements == 0
    assert dummy_cases > 0, "sample never produced a dummy class"
    _report(f"criterion 9: closed form matches the scan on 30 specs ({dummy_cases} with dummies)", t0)


def test_criterion_10_boolean_module():
    t0 = time.time()
    n, k = (2, 2, 2), (1, 2, 3)
    game = build_tripartite(n, k)
    leaves = []
    for level, threshold in enumerate(k):
        cutoff = sum(n[: level + 1])
        weights = tuple(1 if p < cutoff else 0 for p in range(sum(n)))
        leaves.append(Leaf(WeightedRep(weights, threshold)))
    formula = Or((leaves[0], And((leaves[1], leaves[2]))))
    assert verify_boolean_rep(game, formula)
    assert formula_size(formula) == 3

    rng = random.Random(1010)
    disagreements = 0
    for _ in range(25):
        players = rng.randint(2, 8)
        leaf_nodes = []
        for _ in range(3):
            weights = tuple(Fraction(rng.randint(0, 4)) for _ in range(players))
            quota = Fraction(rng.randint(1, max(2, int(sum(weights)) or 2)))
            leaf_nodes.append(Leaf(WeightedRep(weights, quota)))
        a, b, c = leaf_nodes
        shape = rng.choice(
            [Or((a, And((b, c)))), And((a, Or((b, c)))), And((a, b, c)), Or((a, b, c))]
        )
        dual_formula = formula_dual(shape)
        if formula_game(dual_formula) != dual(formula_game(shape)):
            disagreements += 1
        if formula_size(dual_formula) != formula_size(shape):
            disagreements += 1
    assert disagreements == 0
    _report("criterion 10: three-leaf formula, de Morgan duality, size preservation", t0)
