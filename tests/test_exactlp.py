"""Exact LP layer: the float pre-pass against the exact route, the exact
route (the simplex on the Farkas alternative) against the simplex on the
original rows, the integer read-out of the simplex against a Fraction
read-out of the same tableau, and the Farkas certificate check."""

import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from fractions import Fraction

import pytest

import oracles
from simplegames import _exactlp, lpsep
from simplegames._exactlp import (
    EQ, GEQ, LEQ, LinearSystem, RowBlock, _phase1_tableau, _simplex_phase1, _solve_alternative,
    _tableau_size, _transpose,
)
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.lpsep import _incidence_rows, _separate


def _farkas_reference(system: LinearSystem, u_orig) -> bool:
    """Row-by-row Fraction form of the Farkas check."""
    if len(u_orig) != len(system.rows):
        return False
    combo = [Fraction(0)] * system.num_vars
    rhs = Fraction(0)
    for (a, sense, b), u in zip(system.rows, u_orig):
        if u < 0:
            return False
        if sense == GEQ:
            u = -u
        for j, c in enumerate(a):
            combo[j] += u * c
        rhs += u * b
    return all(c >= 0 for c in combo) and rhs < 0


def _fraction_phase1(num_vars: int, leq_rows):
    """Reference read-out of the final phase-1 tableau in Fractions, one
    per coordinate: ``(True, x)`` or ``(False, u)``."""
    rows = len(leq_rows)
    if rows == 0:
        return True, [Fraction(0)] * num_vars
    tableau, dens, basis = _phase1_tableau(num_vars, leq_rows)
    width = len(tableau[0]) - 1
    if all(basis[r] < num_vars + rows or tableau[r][width] == 0 for r in range(rows)):
        x = [Fraction(0)] * num_vars
        for r in range(rows):
            if basis[r] < num_vars:
                x[basis[r]] = Fraction(tableau[r][width], dens[r])
        return True, x
    rc, rc_den = tableau[rows], dens[rows]
    return False, [Fraction(rc[num_vars + r], rc_den) for r in range(rows)]


def _fraction_alternative(num_vars: int, leq_rows):
    """Reference for :func:`_solve_alternative`: the alternative transposed
    here, read out by :func:`_fraction_phase1`, and ``x = y / z`` taken in
    Fractions."""
    columns = list(zip(*(a for a, _ in leq_rows))) or [()] * num_vars
    alt = [([-c for c in col], 0) for col in columns]
    alt.append(([b for _, b in leq_rows], -1))
    alt_feasible, payload = _fraction_phase1(len(leq_rows), alt)
    if alt_feasible:
        return False, payload
    *y, z = payload
    return True, [v / z for v in y]


def _fractions(nums, den):
    return [Fraction(v, den) for v in nums]


# The fixture's systems are tall, so the exact route's tableau is small:
# 850 cells or more.  The fixture lowers the gate below that to keep every
# one of them on the float pass.
_FLOAT_PASS_LIMIT = 800


def _random_separation_inputs(rng: random.Random, count: int):
    """Separation systems of random games on 8-10 players, each with
    rows * (columns + rows) above ``_EXACT_SIZE_LIMIT``: the union or
    intersection of two random weighted games, its minimal winning
    coalitions against a random subset of L_max."""
    out = []
    while len(out) < count:
        n = rng.randint(8, 10)
        g = SimpleGame._from_table(n, oracles.random_two_weighted_table(rng, n, 5))
        win, lose = list(g.minwin_masks), maximal_losing_masks(g)
        if not win or not lose:
            continue
        sub = rng.sample(lose, rng.randint(1, len(lose)))
        fixed, variable = _incidence_rows(win, n, True), _incidence_rows(sub, n, False)
        rows = len(fixed) + len(variable) + 1
        if rows * (n + 1 + rows) > _exactlp._EXACT_SIZE_LIMIT:
            out.append((n, fixed, variable))
    return out


@pytest.fixture(scope="module")
def separation_runs():
    """(system, float-path result, exact-route result) per random system."""
    systems = []

    class Recording(LinearSystem):
        def solve(self):
            systems.append(self)
            return super().solve()

    runs = []
    inputs = _random_separation_inputs(random.Random(71), 24)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpsep, "LinearSystem", Recording)
        mp.setattr(_exactlp, "_EXACT_SIZE_LIMIT", _FLOAT_PASS_LIMIT)
        for n, fixed, variable in inputs:
            res = _separate(RowBlock(fixed, n + 1), variable)
            runs.append((systems[-1], res))
        # no tableau is above an infinite limit: every solve takes the exact route
        mp.setattr(_exactlp, "_EXACT_SIZE_LIMIT", math.inf)
        return [(system, res, system.solve()) for system, res in runs]


class TestFloatAgainstExact:
    def test_systems_take_the_float_pass(self, separation_runs):
        for system, _, _ in separation_runs:
            assert _tableau_size(system.num_vars, len(system._leq_rows())) > _FLOAT_PASS_LIMIT
        kinds = {(res.feasible, res.exact_path) for _, res, _ in separation_runs}
        # both verdicts occur: feasible ones decided on the float path,
        # infeasible ones by the exact route after the probe
        assert {(True, False), (False, True)} <= kinds

    def test_verdicts_agree(self, separation_runs):
        for _, res, exact in separation_runs:
            assert exact.exact_path
            assert res.feasible == exact.feasible

    def test_shared_block_changes_no_result(self, separation_runs, monkeypatch):
        # the game's side is normalised once as a RowBlock; the same system
        # normalised whole takes the same float path to the same answer
        monkeypatch.setattr(_exactlp, "_EXACT_SIZE_LIMIT", _FLOAT_PASS_LIMIT)
        for system, _, _ in separation_runs:
            assert system.rows[: len(system.block.rows)] == system.block.rows
            whole = LinearSystem(system.num_vars, list(system.rows))
            assert whole._leq_rows() == system._leq_rows()
            res = whole.solve()
            if res.feasible:
                assert not res.exact_path
            assert res == system.solve()

    def test_infeasible_probe_goes_exact(self, separation_runs, monkeypatch):
        # one HiGHS call, then the exact route's certificate
        import scipy.optimize

        calls = []
        real_linprog = scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        monkeypatch.setattr(_exactlp, "_EXACT_SIZE_LIMIT", _FLOAT_PASS_LIMIT)
        infeasible = [(system, exact) for system, _, exact in separation_runs if not exact.feasible]
        assert infeasible
        for system, exact in infeasible:
            calls.clear()
            res = system.solve()
            assert len(calls) == 1
            assert res.exact_path and res == exact

    def test_exact_result_matches_fraction_readout(self, separation_runs):
        for system, _, exact in separation_runs:
            feasible, ref = _fraction_alternative(system.num_vars, system._leq_rows())
            assert exact.feasible == feasible
            assert list(exact.x if feasible else exact.farkas) == ref

    def test_points_and_certificates_verify(self, separation_runs):
        for system, *results in separation_runs:
            for res in results:
                if res.feasible:
                    assert res.farkas is None and system.check_point(res.x)
                else:
                    assert res.x is None and system.check_farkas(res.farkas)

    def test_integer_check_matches_reference_on_perturbed_certificates(self, separation_runs):
        rng = random.Random(72)
        checked = 0
        for system, *results in separation_runs:
            for res in results:
                if res.feasible:
                    continue
                u = list(res.farkas)
                assert _farkas_reference(system, u)
                for _ in range(6):
                    v = u[:]
                    k = rng.randrange(len(v))
                    v[k] += Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                    assert system.check_farkas(v) == _farkas_reference(system, v)
                    checked += 1
        assert checked > 0


def _fractional_system() -> LinearSystem:
    """Infeasible over x >= 0: rows 0 and 1 alone already conflict.  The
    rational rows x/2 + y/3 <= 1/4 and x - y = 1/5, times the lcm of their
    denominators; the equality is rows 2 and 3."""
    system = LinearSystem(2)
    system.add([6, 4], LEQ, 3)
    system.add([1, 1], GEQ, 1)
    system.add([5, -5], EQ, 1)
    return system


def test_float_point_failing_its_rounding_goes_exact(monkeypatch):
    # HiGHS's point for 10007 x = 1 rounds, at denominators up to 10**4,
    # to no solution; the exact route then gives x = 1/10007
    monkeypatch.setattr(_exactlp, "_EXACT_SIZE_LIMIT", 0)
    system = LinearSystem(1)
    system.add([10007], EQ, 1)
    res = system.solve()
    assert res.exact_path and res.x == (Fraction(1, 10007),)


def test_row_block_normalises_like_the_whole_system():
    rows = _fractional_system().rows + [((4, 0), GEQ, 1)]
    whole = LinearSystem(2, rows)
    for cut in range(len(rows) + 1):
        split = LinearSystem(2, rows, RowBlock(rows[:cut], 2))
        assert split._leq_rows() == whole._leq_rows()
        assert split.solve() == whole.solve()


class TestRowContract:
    """Rows are integer LEQ or GEQ rows; ``add`` turns an equality into its
    LEQ row then its GEQ row."""

    @pytest.mark.parametrize("coeffs, sense, rhs", [
        ([Fraction(1, 2), 1], LEQ, 1),
        ([1, 0.5], GEQ, 1),
        ([1, 1], 2, 1),
    ], ids=["fraction", "float", "sense"])
    def test_add_rejects(self, coeffs, sense, rhs):
        system = LinearSystem(2)
        with pytest.raises(ValueError):
            system.add(coeffs, sense, rhs)
        assert system.rows == []

    def test_add_splits_an_equality(self):
        system = LinearSystem(2)
        system.add([3, -1], EQ, 2)
        assert system.rows == [((3, -1), LEQ, 2), ((3, -1), GEQ, 2)]

    def test_solve_rejects_an_equality_row(self):
        system = LinearSystem(2, [((3, -1), EQ, 2)])
        with pytest.raises(ValueError, match="bad sense"):
            system.solve()


def _random_rational_system(
    rng: random.Random, num_vars: int, rows: int, feasible: bool
) -> LinearSystem:
    """LEQ, GEQ and EQ rows drawn with fractional entries, each multiplied
    by the lcm of its denominators; about one row in eight is all zeros.  A
    feasible system is planted around a point ``x0 >= 0``.  An infeasible
    one ends with a row that asks ``c.x`` to exceed a bound which a random
    nonnegative combination of the other rows puts on it."""
    x0 = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(num_vars)]
    drawn = []
    for _ in range(rows - (not feasible)):
        if rng.random() < 0.125:
            coeffs = [0] * num_vars
        else:
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(num_vars)]
        sense = rng.choice((LEQ, GEQ, EQ))
        rhs = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if feasible:
            at_x0 = sum(c * v for c, v in zip(coeffs, x0))
            rhs = at_x0 if sense == EQ else at_x0 - sense * abs(rhs)
        drawn.append((coeffs, sense, rhs))
    if not feasible:
        combo, bound = [Fraction(0)] * num_vars, Fraction(0)
        for a, sense, b in drawn:
            u = Fraction(rng.randint(-3 if sense == EQ else 0, 3), rng.randint(1, 3))
            u = -u if sense == GEQ else u  # the row oriented as <=
            combo = [s + u * c for s, c in zip(combo, a)]
            bound += u * b
        drawn.append((combo, GEQ, bound + Fraction(1, rng.randint(1, 4))))
    system = LinearSystem(num_vars)
    for coeffs, sense, rhs in drawn:
        scale = math.lcm(Fraction(rhs).denominator, *(Fraction(c).denominator for c in coeffs))
        system.add([int(c * scale) for c in coeffs], sense, int(rhs * scale))
    return system


# (columns, rows): empty systems, tall and wide shapes, and square ones
_SHAPES = [(0, 0), (0, 3), (4, 0), (1, 6), (2, 25), (3, 60), (6, 40), (4, 4), (7, 7),
           (8, 2), (15, 3), (25, 6)]


class TestAlternativeAgainstDirect:
    """The exact route against the simplex run on the original rows."""

    @pytest.mark.parametrize("num_vars, rows", _SHAPES)
    def test_verdicts_agree_and_verify(self, num_vars, rows):
        rng = random.Random(1000 * num_vars + rows)
        for trial in range(30):
            planted = trial % 2 == 0 or rows == 0
            system = _random_rational_system(rng, num_vars, rows, planted)
            leq = system._leq_rows()
            direct = _simplex_phase1(num_vars, leq)
            alternative = _solve_alternative(_transpose(leq, num_vars))
            assert direct[0] == alternative[0] == planted
            for feasible, nums, den in (direct, alternative):
                if feasible:
                    assert system.check_point(nums, den)
                else:
                    assert system.check_farkas(nums, den)

    @pytest.mark.parametrize("num_vars, rows", _SHAPES)
    def test_integer_readout_matches_fraction_readout(self, num_vars, rows):
        rng = random.Random(1000 * num_vars + rows)
        for trial in range(30):
            planted = trial % 2 == 0 or rows == 0
            system = _random_rational_system(rng, num_vars, rows, planted)
            leq = system._leq_rows()
            routes = (
                (_simplex_phase1(num_vars, leq), _fraction_phase1(num_vars, leq)),
                (_solve_alternative(_transpose(leq, num_vars)), _fraction_alternative(num_vars, leq)),
            )
            for (feasible, nums, den), (ref_feasible, ref) in routes:
                assert den > 0 and feasible == ref_feasible
                assert _fractions(nums, den) == ref
            res = system.solve()
            feasible, ref = _fraction_alternative(num_vars, leq)
            assert res.feasible == feasible
            assert list(res.x if feasible else res.farkas) == ref


class TestCheckFarkas:
    VALID = (Fraction(5), Fraction(20), Fraction(0), Fraction(1))  # on the equality's >= half

    def test_accepts_valid_certificates_on_fraction_rows(self):
        system = _fractional_system()
        assert system.check_farkas(self.VALID)
        assert system.check_farkas((Fraction(1, 8), Fraction(1, 2), Fraction(0), Fraction(0)))

    def test_exact_simplex_certificate_on_fraction_rows(self):
        system = _fractional_system()
        res = system.solve()
        assert not res.feasible and system.check_farkas(res.farkas)

    @pytest.mark.parametrize("index, delta", [(0, Fraction(-1)), (1, Fraction(-10))])
    def test_rejects_a_perturbed_multiplier(self, index, delta):
        u = list(self.VALID)
        u[index] += delta
        assert not _fractional_system().check_farkas(u)

    @pytest.mark.parametrize("sense, coeff, rhs", [
        (LEQ, -3, 2),
        (GEQ, 3, -2),
    ], ids=["leq", "geq"])
    def test_rejects_negative_multiplier_on_inequality_row(self, sense, coeff, rhs):
        # a feasible system (x = 0) whose sums pass only through the sign
        system = LinearSystem(1)
        system.add([coeff], sense, rhs)
        assert system.solve().feasible
        assert not system.check_farkas((Fraction(-1),))

    def test_rejects_wrong_length(self):
        system = _fractional_system()
        assert not system.check_farkas(self.VALID[:-1])
        assert not system.check_farkas(self.VALID + (Fraction(0),))


@pytest.mark.parametrize("sense, rhs, message", [
    (EQ, 1, "exact simplex returned a bad point"),
    (LEQ, -1, "exact simplex returned a bad certificate"),
])
def test_failed_integer_check_raises_under_python_O(sense, rhs, message):
    """The checks behind every exact answer are explicit raises, so running
    with ``-O`` (which strips ``assert``) keeps them: a point with one
    numerator off by one, and a certificate with its signs flipped (which
    turns ``u^T b < 0`` around), are both refused."""
    import simplegames

    code = textwrap.dedent(
        f"""
        import sys
        from simplegames import _exactlp

        if not sys.flags.optimize:
            raise SystemExit("expected a run under -O")
        solve_alternative = _exactlp._solve_alternative

        def corrupted(alt):
            feasible, nums, den = solve_alternative(alt)
            nums = [nums[0] + 1, *nums[1:]] if feasible else [-v for v in nums]
            return feasible, nums, den

        _exactlp._solve_alternative = corrupted
        system = _exactlp.LinearSystem(1)
        system.add([1], {sense}, {rhs})
        system.solve()
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
    assert f"AssertionError: {message}" in proc.stderr


def _run_isolated(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on the library's source."""
    import simplegames

    src = Path(simplegames.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_library_runs_with_numpy_and_scipy_blocked():
    """numpy and scipy only feed the float pre-pass: importing the library
    loads neither, and with both blocked every LP goes the exact route
    (conj444 is the game whose LPs are large enough to try the pre-pass)."""
    loaded = _run_isolated(
        """
        import sys
        import simplegames
        print(sorted({"numpy", "scipy"} & set(sys.modules)))
        """
    )
    assert loaded.split() == ["[]"]
    out = _run_isolated(
        """
        import sys
        sys.modules["numpy"] = sys.modules["scipy"] = None
        from itertools import combinations
        from simplegames import (
            Budget, Coalition, HierarchicalSpec, Kind, build, exact_dimension,
            intersect_games, is_weighted, make_game,
        )

        g = build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7)))
        r = exact_dimension(g, Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000))
        print(r.lower, r.upper, r.exact, intersect_games(r.witness_upper.parts, g.n) == g)
        majority = make_game(5, [Coalition.of(c, 5) for c in combinations(range(5), 3)])
        rep = is_weighted(majority)
        print(rep.quota, *rep.weights)
        """
    )
    assert out.splitlines() == ["2 2 2 True", "3 1 1 1 1 1"]
