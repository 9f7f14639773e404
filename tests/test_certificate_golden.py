"""Golden certificates: one sha256 over the (pre, post) masks of every
certificate the library builds on a fixed battery of games.

The battery reaches all three routes of ``find_certificate``: the
incomparability swap (non-complete games), the length-2 scan over maximal
losing pairs (complete unweighted games) and the Farkas assembly (run
directly on every unweighted five-player game, and end to end on a
22-player game whose two maximal losing coalitions are too far apart for
the pair scan).  It also runs ``pair_incompatibility_certificate`` on
pairs of maximal losing coalitions, None answers included.  A change to
any mask, to the canonical order or to a None answer fails here.
"""

import hashlib
import random

import oracles
from simplegames import (
    Coalition,
    HierarchicalSpec,
    Kind,
    build,
    find_certificate,
    is_weighted,
    losing_witness_family,
    pair_incompatibility_certificate,
)
from simplegames.certificates import _certificate_from_farkas
from simplegames.core import SimpleGame, maximal_losing_masks
from simplegames.desirability import is_complete
from simplegames.lpsep import separable_result

GOLDEN = "49dcd98c05eef33b93cc7c131bd12b6eacedb5469ead5501d6819ae9532ddefe"


def _masks(cert):
    if cert is None:
        return None
    return tuple(c.mask for c in cert.pre), tuple(c.mask for c in cert.post)


def _hierarchical_games():
    return [
        build(HierarchicalSpec(Kind.DISJUNCTIVE, (2, 5), (2, 5))),
        build(HierarchicalSpec(Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))),
        losing_witness_family(3, 2)[0],
        losing_witness_family(2, 3)[0],
    ]


def test_certificates_match_the_golden_digest(two_halves):
    digest = hashlib.sha256()

    def record(*entry):
        digest.update(repr(entry).encode())

    for table in oracles.monotone_tables(5):
        g = SimpleGame._from_table(5, table)
        record("find5", table, _masks(find_certificate(g, 64)))

    tables6 = oracles.monotone_tables_6()
    complete_unweighted = 0
    for i in random.Random(1).sample(range(len(tables6)), 20_000):
        g = SimpleGame._from_table(6, int(tables6[i]))
        cert = find_certificate(g, 64)
        record("find6", int(tables6[i]), _masks(cert))
        complete_unweighted += cert is not None and is_complete(g)
    assert complete_unweighted == 45

    for g in _hierarchical_games():
        record("find-hier", g.n, _masks(find_certificate(g, 4)))
        maxlose = maximal_losing_masks(g)[:60]
        for a in range(len(maxlose)):
            for b in range(a + 1, len(maxlose)):
                y1, y2 = Coalition(maxlose[a], g.n), Coalition(maxlose[b], g.n)
                record("pair", a, b, _masks(pair_incompatibility_certificate(g, y1, y2)))

    for table in oracles.monotone_tables(5):
        g = SimpleGame._from_table(5, table)
        if is_weighted(g) is not None:
            continue
        maxlose = maximal_losing_masks(g)
        res = separable_result(g.n, g.minwin_masks, maxlose)
        record("farkas5", table, _masks(_certificate_from_farkas(g, res.nums, g.minwin_masks, maxlose)))

    record("halves", 4, _masks(find_certificate(two_halves, 4)))
    record("halves", 2, _masks(find_certificate(two_halves, 2)))

    assert digest.hexdigest() == GOLDEN
