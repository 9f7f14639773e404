import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from simplegames import Coalition, HierarchicalSpec, Kind, build, make_game, make_game_from_masks


@pytest.fixture(scope="session")
def majority5():
    """Simple majority game on five players (quota three)."""
    return make_game(5, [Coalition.of(c, 5) for c in combinations(range(5), 3)])


@pytest.fixture(scope="session")
def un_council():
    """Fifteen players: five veto-holding members plus ten others; a win
    needs all five plus at least four of the rest."""
    coalitions = [
        Coalition.of(list(range(5)) + list(extra), 15)
        for extra in combinations(range(5, 15), 4)
    ]
    return make_game(15, coalitions)


@pytest.fixture(scope="session")
def h_disj_25():
    """Two-class disjunctive game, sizes (2,5), thresholds (2,5)."""
    return build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5)))


@pytest.fixture(scope="session")
def h_conj_444():
    """Three-class conjunctive game, sizes (4,4,4), thresholds (2,4,7)."""
    return build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7)))


@pytest.fixture(scope="session")
def two_halves():
    """22 players; a coalition wins iff it meets both {0..10} and {11..21}.
    Its two maximal losing coalitions are the halves, 22 players apart."""
    return make_game_from_masks(22, [1 << i | 1 << j for i in range(11) for j in range(11, 22)])
