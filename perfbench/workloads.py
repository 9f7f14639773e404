"""The three benchmark workloads: inputs from a seed, the timed calls, checks.

Each workload turns ``--seed`` into a fixed list of raw inputs, builds one
game per input, and hands the games to the library one at a time (a closed
loop with a single client).  The library sees only the generated games.

``corpus6``
    ``is_weighted`` then ``find_certificate(g, 64)`` on a uniform seeded
    sample of all 7,828,354 monotone 6-player games, the calls of acceptance
    criterion 8.  Throughput traffic: certificates, completeness and the tiny
    exact class-weight LP; never reaches ``dimension`` or the float LP.
``dim-hier``
    ``exact_dimension`` under the acceptance suite's wide budget on three
    fixed hard games.  The only workload on the float pre-pass plus exact
    verification, dominated by ``PartOracle`` witness reuse.  The seed only
    sets the solve order.  ``losing_witness_family(2, 3)`` is left out: one
    solve takes about 20 s, too long to repeat within a run.
``codim-small``
    ``exact_dimension``, ``codimension`` and ``codimension_direct`` on small
    games: a seeded sample of the 7,581 monotone 5-player games plus seeded
    random 6-7-player games (the criterion-7 generator).  Many short-lived
    oracles in both modes on tiny exact-only LPs, so per-oracle set-up cost
    added for dim-hier's sake shows here.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

import simplegames as sg
from simplegames.core import SimpleGame

CORPUS6_SIZE = 7_828_354
CORPUS5_SIZE = 7_581


def monotone_tables(n: int) -> list[int]:
    """Truth tables of every monotone game on ``n`` players: a table on one
    more player is a pair ``f0 <= f1`` of tables on the others."""
    tables = [0, 1]
    for bit in range(n):
        shift = 1 << bit
        tables = [f0 | (f1 << shift) for f0 in tables for f1 in tables if f0 & ~f1 == 0]
    return tables


def monotone_tables_6() -> np.ndarray:
    """All monotone 6-player tables as uint64, as ordered pairs of 5-player ones."""
    m5 = np.array(monotone_tables(5), dtype=np.uint64)
    chunks = []
    for i in range(0, len(m5), 256):
        block = m5[i : i + 256]
        idx0, idx1 = np.nonzero((block[:, None] & ~m5[None, :]) == 0)
        chunks.append(block[idx0] | (m5[idx1] << np.uint64(32)))
    return np.concatenate(chunks)


class Workload:
    """One workload: ``inputs`` (raw, from the seed), ``make`` (one fresh
    game per input), ``solve`` (the timed calls) and ``check`` (exact,
    outside the timed region; returns an error message or None)."""

    name = ""

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def make(self, raw) -> SimpleGame:
        raise NotImplementedError

    def warm_up(self, raw) -> None:
        self.solve(self.make(raw))

    def solve(self, g: SimpleGame):
        raise NotImplementedError

    def check(self, raw, g: SimpleGame, out) -> str | None:
        raise NotImplementedError

    def verdict(self, out) -> str:
        """Short seed-pinnable summary of one answer."""
        raise NotImplementedError

    def digest(self, outs: list) -> str:
        """sha256 over the per-input verdicts, in input order."""
        return hashlib.sha256(";".join(self.verdict(o) for o in outs).encode()).hexdigest()


class Corpus6(Workload):
    name = "corpus6"
    SAMPLE = 20_000

    def inputs(self, seed: int) -> list[int]:
        corpus = monotone_tables_6()
        if len(corpus) != CORPUS6_SIZE:
            raise RuntimeError(f"corpus enumeration gave {len(corpus)} tables, not {CORPUS6_SIZE}")
        picks = random.Random(seed).sample(range(CORPUS6_SIZE), self.SAMPLE)
        return [int(corpus[i]) for i in picks]

    def make(self, table: int) -> SimpleGame:
        return SimpleGame._from_table(6, table)

    def solve(self, g: SimpleGame):
        return sg.is_weighted(g), sg.find_certificate(g, 64)

    def check(self, table, g, out) -> str | None:
        rep, cert = out
        if (rep is None) == (cert is None):
            return "weighted verdict and certificate disagree"
        if cert is not None and not sg.verify_certificate(g, cert):
            return "certificate fails verification"
        if rep is not None and not sg.verify_representation(g, rep):
            return "representation fails verification"
        return None

    def verdict(self, out) -> str:
        return "1" if out[0] is not None else "0"


WIDE_BUDGET = sg.Budget(max_lmax=1500, clique_exact=700, max_nodes=600_000)

# name -> (builder, exact dimension)
DIM_HIER = {
    "disj25": (lambda: sg.build(sg.HierarchicalSpec(sg.Kind.DISJUNCTIVE, (2, 5), (2, 5))), 2),
    "conj444": (lambda: sg.build(sg.HierarchicalSpec(sg.Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))), 2),
    "fam32": (lambda: sg.losing_witness_family(3, 2)[0], 3),
}


class DimHier(Workload):
    name = "dim-hier"

    def inputs(self, seed: int) -> list[str]:
        order = sorted(DIM_HIER)
        random.Random(seed).shuffle(order)
        return order

    def make(self, name: str) -> SimpleGame:
        return DIM_HIER[name][0]()

    def warm_up(self, name: str) -> None:
        # One LP above the float threshold on a separate game object, so the
        # lazy scipy import happens before timing and no timed game inherits
        # caches from the warm-up.
        g = self.make("conj444")
        oracle = sg.dimension.PartOracle(g, "lose")
        oracle.separable_set(frozenset(sg.core.maximal_losing_masks(g)[:1]))

    def solve(self, g: SimpleGame):
        return sg.exact_dimension(g, WIDE_BUDGET)

    def check(self, name, g, report) -> str | None:
        expect = DIM_HIER[name][1]
        if not report.lower == report.upper == report.exact == expect:
            return f"{name}: bounds {report.lower}/{report.exact}/{report.upper}, expected {expect}"
        if sg.intersect_games(report.witness_upper.parts, g.n) != g:
            return f"{name}: witness parts do not intersect to the game"
        return None

    def verdict(self, report) -> str:
        return str(report.exact)


SMALL_BUDGET = sg.Budget(max_lmax=80, clique_exact=300)


class CodimSmall(Workload):
    name = "codim-small"
    FIVE = 1000
    RANDOM = 1000

    def inputs(self, seed: int) -> list[tuple[int, object]]:
        tables5 = monotone_tables(5)
        if len(tables5) != CORPUS5_SIZE:
            raise RuntimeError(f"5-player enumeration gave {len(tables5)} tables, not {CORPUS5_SIZE}")
        rng = random.Random(seed)
        out: list[tuple[int, object]] = [(5, t) for t in rng.sample(tables5, self.FIVE)]
        for _ in range(self.RANDOM):
            n = rng.randint(6, 7)
            count = rng.randint(1, 6)
            out.append((n, tuple(rng.randrange(1, 1 << n) for _ in range(count))))
        rng.shuffle(out)
        return out

    def make(self, raw) -> SimpleGame:
        n, spec = raw
        if isinstance(spec, int):
            return SimpleGame._from_table(n, spec)
        return sg.make_game_from_masks(n, spec)

    def solve(self, g: SimpleGame):
        return (
            sg.exact_dimension(g, SMALL_BUDGET),
            sg.codimension(g, SMALL_BUDGET),
            sg.codimension_direct(g, SMALL_BUDGET),
        )

    def check(self, raw, g, out) -> str | None:
        dim, codim, direct = out
        if dim.exact is None or codim.exact is None or direct.exact is None:
            return "exact value missing under the budget"
        if codim.exact != direct.exact:
            return f"codimension {codim.exact} != codimension_direct {direct.exact}"
        return None

    def verdict(self, out) -> str:
        return f"{out[0].exact},{out[1].exact}"


WORKLOADS = {w.name: w for w in (Corpus6(), DimHier(), CodimSmall())}
