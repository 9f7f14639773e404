"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and shares no code path with the
package internals it checks: plain subset loops instead of table algebra,
Fourier-Motzkin elimination instead of simplex, and integer weight / whole
threshold-function enumeration instead of LP witnesses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np


# -- plain-loop game semantics ---------------------------------------------------


def brute_is_winning(mask: int, minwin: list[int]) -> bool:
    return any(m & ~mask == 0 for m in minwin)


def brute_winning_set(n: int, minwin: list[int]) -> set[int]:
    return {x for x in range(1 << n) if brute_is_winning(x, minwin)}


def brute_maximal_losing(n: int, minwin: list[int]) -> set[int]:
    winning = brute_winning_set(n, minwin)
    out = set()
    for x in range(1 << n):
        if x in winning:
            continue
        if all((x | (1 << i)) in winning for i in range(n) if not x >> i & 1):
            out.add(x)
    return out


def brute_minimal_winning(n: int, winning: set[int]) -> set[int]:
    out = set()
    for x in winning:
        if all((x ^ (1 << i)) not in winning for i in range(n) if x >> i & 1):
            out.add(x)
    return out


def brute_dual_minwin(n: int, minwin: list[int]) -> set[int]:
    winning = brute_winning_set(n, minwin)
    full = (1 << n) - 1
    dual_winning = {x for x in range(1 << n) if (full ^ x) not in winning}
    return brute_minimal_winning(n, dual_winning)


def brute_at_least_as_desirable(n: int, winning: set[int], i: int, j: int) -> bool:
    for x in range(1 << n):
        if x >> i & 1 or x >> j & 1:
            continue
        if (x | 1 << j) in winning and (x | 1 << i) not in winning:
            return False
    return True


def brute_shift_maximal_losing(n: int, winning: set[int]) -> set[int]:
    """Coalition-level: losing, every addition wins, every swap to a strictly
    more desirable player wins."""
    ge = [
        [brute_at_least_as_desirable(n, winning, i, j) for j in range(n)] for i in range(n)
    ]
    out = set()
    for y in range(1 << n):
        if y in winning:
            continue
        ok = all((y | 1 << a) in winning for a in range(n) if not y >> a & 1)
        if ok:
            for i in range(n):
                if not y >> i & 1:
                    continue
                for j in range(n):
                    if y >> j & 1 or i == j:
                        continue
                    strictly_better = ge[j][i] and not ge[i][j]
                    if strictly_better and ((y ^ (1 << i)) | 1 << j) not in winning:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.add(y)
    return out


def brute_shift_minimal_winning(n: int, winning: set[int]) -> set[int]:
    ge = [
        [brute_at_least_as_desirable(n, winning, i, j) for j in range(n)] for i in range(n)
    ]
    out = set()
    for x in winning:
        ok = all((x ^ 1 << a) not in winning for a in range(n) if x >> a & 1)
        if ok:
            for i in range(n):
                if not x >> i & 1:
                    continue
                for j in range(n):
                    if x >> j & 1 or i == j:
                        continue
                    strictly_worse = ge[i][j] and not ge[j][i]
                    if strictly_worse and ((x ^ (1 << i)) | 1 << j) in winning:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.add(x)
    return out


# -- Fourier-Motzkin feasibility ---------------------------------------------------


def _fm_prune(rows):
    """Normalise, dedupe, and drop rows implied by a stronger row.

    Over ``x >= 0`` the row ``a.x <= b`` follows from ``a'.x <= b'`` whenever
    ``a' >= a`` componentwise and ``b' <= b``.
    """
    seen = set()
    cleaned = []
    for a, b in rows:
        scale = next((abs(c) for c in a if c), None)
        if scale is None:
            if b < 0:
                return None  # 0 <= b with b negative: infeasible
            continue
        a = [c / scale for c in a]
        b = b / scale
        key = tuple(a) + (b,)
        if key not in seen:
            seen.add(key)
            cleaned.append((a, b))
    kept = []
    for i, (a, b) in enumerate(cleaned):
        implied = False
        for j, (a2, b2) in enumerate(cleaned):
            if i != j and b2 <= b and all(c2 >= c for c, c2 in zip(a, a2)):
                implied = True
                break
        if not implied:
            kept.append((a, b))
    return kept


def fm_feasible(num_vars: int, leq_rows: list[tuple[list[Fraction], Fraction]]) -> bool:
    """Exact feasibility of ``A x <= b, x >= 0`` by variable elimination.

    Nonnegativity stays implicit (each variable's ``-x <= 0`` row is injected
    only when that variable is eliminated), so the domination pruning may use
    it as permanent side knowledge without circularity.
    """
    rows = [([Fraction(c) for c in a], Fraction(b)) for a, b in leq_rows]
    remaining = list(range(num_vars))
    while remaining:
        rows = _fm_prune(rows)
        if rows is None:
            return False

        def cost(var):
            pos = sum(1 for a, _ in rows if a[var] > 0)
            neg = sum(1 for a, _ in rows if a[var] < 0) + 1  # implicit -x <= 0
            return pos * neg - pos - neg

        var = min(remaining, key=cost)
        remaining.remove(var)
        pos, neg, keep = [], [], []
        for a, b in rows:
            if a[var] > 0:
                pos.append((a, b))
            elif a[var] < 0:
                neg.append((a, b))
            else:
                keep.append((a, b))
        nonneg = [Fraction(0)] * num_vars
        nonneg[var] = Fraction(-1)
        neg.append((nonneg, Fraction(0)))
        for ap, bp in pos:
            for an, bn in neg:
                cp, cn = ap[var], -an[var]
                a = [cn * ap[j] + cp * an[j] for j in range(num_vars)]
                b = cn * bp + cp * bn
                a[var] = Fraction(0)
                keep.append((a, b))
        rows = keep
    rows = _fm_prune(rows)
    if rows is None:
        return False
    return all(b >= 0 for _, b in rows)


def fm_weighted(n: int, minwin: list[int], maxlose: list[int]) -> bool:
    """Margin-1 weightedness system decided by Fourier-Motzkin."""
    if 0 in minwin:
        return True  # all-win: weighted by the package convention
    rows = []
    for m in minwin:
        a = [Fraction(-(m >> i & 1)) for i in range(n)] + [Fraction(1)]
        rows.append((a, Fraction(0)))
    for y in maxlose:
        a = [Fraction(y >> i & 1) for i in range(n)] + [Fraction(-1)]
        rows.append((a, Fraction(-1)))
    q_row = [Fraction(0)] * n + [Fraction(-1)]
    rows.append((q_row, Fraction(-1)))
    return fm_feasible(n + 1, rows)


# -- bounded integer-weight search --------------------------------------------------


def int_weights_weighted(n: int, minwin: list[int], maxlose: list[int], wmax: int) -> bool:
    """Exhaustive scan of integer weight vectors with entries <= wmax."""
    if 0 in minwin:
        return True
    if not minwin:
        return True  # all-lose: [1; 0,...,0]
    for weights in itertools.product(range(wmax + 1), repeat=n):
        min_win = min(sum(weights[i] for i in range(n) if m >> i & 1) for m in minwin)
        max_lose = max(
            (sum(weights[i] for i in range(n) if y >> i & 1) for y in maxlose),
            default=-1,
        )
        if min_win > max_lose and min_win > 0:
            return True
    return False


# -- threshold-function enumeration -------------------------------------------------


@lru_cache(maxsize=None)
def threshold_tables(n: int, wmax: int) -> frozenset[int]:
    """All truth tables of games ``[q; w]`` with integer weights <= wmax.

    Used as an enumeration oracle at small n; completeness for a given wmax
    is cross-checked against the LP route by the tests that use it.
    """
    size = 1 << n
    powers = (np.uint64(1) << np.arange(size, dtype=np.uint64))
    bit_matrix = np.array(
        [[(x >> i) & 1 for x in range(size)] for i in range(n)], dtype=np.int64
    )
    vectors = np.array(
        list(itertools.combinations_with_replacement(range(wmax + 1), n)), dtype=np.int64
    )
    sums = vectors @ bit_matrix  # (num_vectors, 2^n)
    base: set[int] = {0, (1 << size) - 1}
    for q in range(1, n * wmax + 1):
        wins = sums >= q
        packed = (wins.astype(np.uint64) * powers).sum(axis=1)
        base.update(int(v) for v in np.unique(packed))
    # close under player permutations
    tables: set[int] = set()
    base_arr = np.array(sorted(base), dtype=np.uint64)
    bits = (base_arr[:, None] >> np.arange(size, dtype=np.uint64)[None, :]) & np.uint64(1)
    for perm in itertools.permutations(range(n)):
        perm_map = np.array(
            [sum(((x >> i & 1) << perm[i]) for i in range(n)) for x in range(size)]
        )
        permuted = np.zeros_like(bits)
        permuted[:, perm_map] = bits
        packed = (permuted * powers).sum(axis=1)
        tables.update(int(v) for v in packed)
    return frozenset(tables)


def oracle_min_cover(patterns: list[int], universe: int, cap: int = 12) -> int:
    """Exact minimum number of patterns whose union covers the universe."""
    patterns = sorted(set(patterns), reverse=True)
    maximal = []
    for p in patterns:
        if not any(p & ~q == 0 for q in maximal):
            maximal.append(p)
    for d in range(1, cap + 1):
        if _cover_exists(maximal, universe, d, 0):
            return d
    raise AssertionError("cover size exceeds cap")


def _cover_exists(patterns: list[int], remaining: int, d: int, start: int) -> bool:
    if remaining == 0:
        return True
    if d == 0:
        return False
    # branch on the first uncovered element to cut the search
    low = remaining & -remaining
    for idx in range(len(patterns)):
        p = patterns[idx]
        if p & low and _cover_exists(patterns, remaining & ~p, d - 1, 0):
            return True
    return False


def oracle_dimension(n: int, table: int, tables: frozenset[int]) -> int:
    """Minimum d with the game an intersection of d enumerated threshold games."""
    full = (1 << (1 << n)) - 1
    if table == full or table == 0:
        return 1
    losing = [x for x in range(1 << n) if not table >> x & 1]
    maxlose = [
        x
        for x in losing
        if all(table >> (x | 1 << i) & 1 for i in range(n) if not x >> i & 1)
    ]
    patterns = set()
    for t in tables:
        if table & ~t == 0:  # t wins everything the game wins
            pat = 0
            for pos, y in enumerate(maxlose):
                if not t >> y & 1:
                    pat |= 1 << pos
            patterns.add(pat)
    return oracle_min_cover(list(patterns), (1 << len(maxlose)) - 1)


def oracle_codimension(n: int, table: int, tables: frozenset[int]) -> int:
    """Minimum d with the game a union of d enumerated threshold games."""
    full = (1 << (1 << n)) - 1
    if table == full or table == 0:
        return 1
    winning = [x for x in range(1 << n) if table >> x & 1]
    minwin = [
        x for x in winning if all(not table >> (x ^ 1 << i) & 1 for i in range(n) if x >> i & 1)
    ]
    patterns = set()
    for t in tables:
        if t & ~table == 0:  # t wins only where the game wins
            pat = 0
            for pos, m in enumerate(minwin):
                if t >> m & 1:
                    pat |= 1 << pos
            patterns.add(pat)
    return oracle_min_cover(list(patterns), (1 << len(minwin)) - 1)


# -- per-model scans ---------------------------------------------------------------


def per_model_antichains(sizes, wins):
    """Minimal winning and maximal losing models of a monotone model
    predicate, in lexicographic order, by looking at each model's one-member
    neighbours in a list of statuses."""
    models = list(itertools.product(*(range(s + 1) for s in sizes)))
    status = [wins(u) for u in models]
    strides = [int(np.prod([s + 1 for s in sizes[c + 1 :]])) for c in range(len(sizes))]
    minimal, maximal = [], []
    for idx, u in enumerate(models):
        steps = list(zip(u, sizes, strides))
        if status[idx]:
            if not any(status[idx - st] for k, _, st in steps if k > 0):
                minimal.append(u)
        elif all(status[idx + st] for k, s, st in steps if k < s):
            maximal.append(u)
    return minimal, maximal


def per_player_balanced(n: int, pre: list[int], post: list[int]) -> bool:
    """Equal per-player membership counts, counted one player at a time."""
    return all(
        sum(m >> p & 1 for m in pre) == sum(m >> p & 1 for m in post) for p in range(n)
    )


# -- monotone game enumeration ------------------------------------------------------


@lru_cache(maxsize=None)
def monotone_tables(n: int) -> tuple[int, ...]:
    """Truth tables of every monotone game on n players (Dedekind family)."""
    tables = [0, 1]
    for bit in range(n):
        shift = 1 << bit
        tables = [f0 | (f1 << shift) for f0 in tables for f1 in tables if f0 & ~f1 == 0]
        tables = list(dict.fromkeys(tables))
    return tuple(tables)


def monotone_tables_6() -> np.ndarray:
    """All 7 828 354 monotone tables on 6 players as uint64, via 5-player pairs."""
    m5 = np.array(monotone_tables(5), dtype=np.uint64)
    chunks = []
    for i in range(0, len(m5), 256):
        block = m5[i : i + 256]
        ok = (block[:, None] & ~m5[None, :]) == 0
        idx0, idx1 = np.nonzero(ok)
        chunks.append(block[idx0] | (m5[idx1] << np.uint64(32)))
    return np.concatenate(chunks)


def random_game_masks(rng, n: int, max_gen: int = 6) -> list[int]:
    """Random antichain generators for a nonempty monotone game."""
    count = rng.randint(1, max_gen)
    return [rng.randrange(1, 1 << n) for _ in range(count)]


def random_two_weighted_table(rng, n: int, wmax: int) -> int:
    """Truth table of the union or the intersection of two random weighted
    games with integer weights in ``0..wmax``."""
    tables = []
    for _ in range(2):
        w = [rng.randint(0, wmax) for _ in range(n)]
        q = rng.randint(1, max(1, sum(w) - 1))
        tables.append(sum(
            1 << x for x in range(1 << n) if sum(w[i] for i in range(n) if x >> i & 1) >= q
        ))
    return tables[0] | tables[1] if rng.random() < 0.5 else tables[0] & tables[1]


# -- hierarchical spec utilities --------------------------------------------------


def random_conjunctive_params(rng, max_players=12, m_max=4, allow_dummies=False, allow_veto=True):
    """Sizes and thresholds satisfying the true-partiteness conditions.

    Middle classes need at least two players; without dummies the last class
    does too (otherwise the last threshold is forced equal to the previous),
    and without veto players the first class needs slack above ``k_1``.
    """
    while True:
        m = rng.randint(1, m_max)
        sizes = []
        for idx in range(m):
            lo = 2 if 0 < idx < m - 1 else 1
            if idx == m - 1 and m > 1 and not allow_dummies:
                lo = 2
            if idx == 0 and not allow_veto:
                lo = 2
            sizes.append(rng.randint(lo, 4))
        if sum(sizes) > max_players:
            continue
        k = [rng.randint(1, sizes[0] - (0 if allow_veto else 1))]
        ok = True
        for idx in range(1, m):
            lo, hi = k[-1] + 1, k[-1] + sizes[idx] - 1
            if idx == m - 1 and allow_dummies and rng.random() < 0.5:
                k.append(k[-1])  # dummy bottom class
                continue
            if lo > hi:
                ok = False
                break
            k.append(rng.randint(lo, hi))
        if ok:
            return tuple(sizes), tuple(k)


def fit_threshold_vector(game, sizes, conjunctive: bool):
    """Search for thresholds making the game class-cumulative over the given
    contiguous class sizes; None if no vector fits."""
    m = len(sizes)
    cums = []
    acc = 0
    for s in sizes:
        acc += s
        cums.append(acc)
    ranges = [range(1, c + 1) for c in cums]
    offsets = []
    start = 0
    for s in sizes:
        offsets.append((start, start + s))
        start += s
    models = list(itertools.product(*(range(s + 1) for s in sizes)))

    def rep_mask(model):
        mask = 0
        for (lo, _), count in zip(offsets, model):
            for p in range(lo, lo + count):
                mask |= 1 << p
        return mask

    status = {model: game.wins_mask(rep_mask(model)) for model in models}
    for k in itertools.product(*ranges):
        if any(k[i] >= k[i + 1] for i in range(m - 2)):
            continue
        if m >= 2 and (k[m - 2] > k[m - 1] if conjunctive else k[m - 2] >= k[m - 1]):
            continue
        good = True
        for model in models:
            prefix = 0
            hits = []
            for count, kk in zip(model, k):
                prefix += count
                hits.append(prefix >= kk)
            predicted = all(hits) if conjunctive else any(hits)
            if predicted != status[model]:
                good = False
                break
        if good:
            return k
    return None
