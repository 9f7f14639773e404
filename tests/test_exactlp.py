"""Exact LP layer: the float pre-pass against the exact simplex, and the
Farkas certificate check."""

import random
from fractions import Fraction

import pytest

import oracles
from simplegames import _exactlp, lpsep
from simplegames._exactlp import EQ, GEQ, LEQ, LinearSystem
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.lpsep import _incidence_rows, _separate


def _farkas_reference(system: LinearSystem, u_orig) -> bool:
    """Row-by-row Fraction form of the Farkas check."""
    if len(u_orig) != len(system.rows):
        return False
    combo = [Fraction(0)] * system.num_vars
    rhs = Fraction(0)
    for (a, sense, b), u in zip(system.rows, u_orig):
        if sense != EQ and u < 0:
            return False
        if sense == GEQ:
            u = -u
        for j, c in enumerate(a):
            combo[j] += u * c
        rhs += u * b
    return all(c >= 0 for c in combo) and rhs < 0


def _leq_size(system: LinearSystem) -> int:
    leq = sum(2 if sense == EQ else 1 for _, sense, _ in system.rows)
    return leq * (system.num_vars + leq)


def _random_separation_inputs(rng: random.Random, count: int):
    """Separation systems of random games on 8-10 players, each above the
    float threshold: the union or intersection of two random weighted games,
    its minimal winning coalitions against a random subset of L_max."""
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
    """(system, float-path result, forced-exact result) per random system."""
    systems = []

    class Recording(LinearSystem):
        def solve(self, *args, **kwargs):
            systems.append(self)
            return super().solve(*args, **kwargs)

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpsep, "LinearSystem", Recording)
        for n, fixed, variable in _random_separation_inputs(random.Random(71), 24):
            res = _separate(n, fixed, variable)
            system = systems[-1]
            runs.append((system, res, system.solve(force_exact=True)))
    return runs


class TestFloatAgainstExact:
    def test_systems_take_the_float_pass(self, separation_runs):
        for system, _, _ in separation_runs:
            assert _leq_size(system) > _exactlp._EXACT_SIZE_LIMIT
        kinds = {(res.feasible, res.exact_path) for _, res, _ in separation_runs}
        # both verdicts occur, and both were decided on the float path
        assert {(True, False), (False, False)} <= kinds

    def test_verdicts_agree(self, separation_runs):
        for _, res, exact in separation_runs:
            assert exact.exact_path
            assert res.feasible == exact.feasible

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
    """Infeasible over x >= 0: rows 0 and 1 alone already conflict."""
    system = LinearSystem(2)
    system.add([Fraction(1, 2), Fraction(1, 3)], LEQ, Fraction(1, 4))
    system.add([1, 1], GEQ, 1)
    system.add([1, -1], EQ, Fraction(1, 5))
    return system


class TestCheckFarkas:
    VALID = (Fraction(3), Fraction(1), Fraction(-1, 4))  # signed on the EQ row

    def test_accepts_valid_certificates_on_fraction_rows(self):
        system = _fractional_system()
        assert system.check_farkas(self.VALID)
        assert system.check_farkas((Fraction(3, 2), Fraction(1, 2), Fraction(0)))

    def test_exact_simplex_certificate_on_fraction_rows(self):
        system = _fractional_system()
        res = system.solve()
        assert not res.feasible and system.check_farkas(res.farkas)

    @pytest.mark.parametrize("index, delta", [(0, Fraction(-1)), (1, Fraction(-1, 2))])
    def test_rejects_a_perturbed_multiplier(self, index, delta):
        u = list(self.VALID)
        u[index] += delta
        assert not _fractional_system().check_farkas(u)

    @pytest.mark.parametrize("sense, coeff, rhs", [
        (LEQ, Fraction(-1, 2), Fraction(1, 3)),
        (GEQ, Fraction(1, 2), Fraction(-1, 3)),
    ])
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
