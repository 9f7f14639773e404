"""Outside-in tracing of the simplegames layers.

The library has no instrumentation of its own, so the traced run wraps the
public callables of each module from the benchmark's side: every binding of
a wrapped function in any ``simplegames`` module namespace (modules import
each other's functions by name) and every wrapped class attribute is
replaced by a recording wrapper, and put back by :meth:`Tracer.restore`.
No file of the library changes.

A span is ``(name, start, end, parent)``; spans are kept in flat arrays in
memory and written out once the run ends.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from typing import Callable

# (layer span name, owner module or class path, attribute).  Several
# callables may share one span name when they are one concept, e.g. the two
# spellings of maximal losing coalitions.
TARGETS = (
    ("core.maximal_losing", "simplegames.core", "maximal_losing"),
    ("core.maximal_losing", "simplegames.core", "maximal_losing_masks"),
    ("core.dual", "simplegames.core", "dual"),
    ("desirability.is_complete", "simplegames.desirability", "is_complete"),
    ("desirability.equivalence_classes", "simplegames.desirability", "equivalence_classes"),
    ("desirability.incomparability", "simplegames.desirability", "incomparable_pair"),
    ("desirability.incomparability", "simplegames.desirability", "incomparability_witness"),
    ("hierarchical.build", "simplegames.hierarchical", "build"),
    ("hierarchical.build", "simplegames.hierarchical", "losing_witness_family"),
    ("lpsep.is_weighted", "simplegames.lpsep", "is_weighted"),
    ("exactlp.solve", "simplegames._exactlp:LinearSystem", "solve"),
    ("exactlp.verify", "simplegames._exactlp:LinearSystem", "check_point"),
    ("exactlp.verify", "simplegames._exactlp:LinearSystem", "check_farkas"),
    ("exactlp.float", "scipy.optimize", "linprog"),
    ("certificates.find", "simplegames.certificates", "find_certificate"),
    ("certificates.pair_scan", "simplegames.certificates", "pair_incompatibility_certificate"),
    ("certificates.verify", "simplegames.certificates", "verify_certificate"),
    ("dimension.oracle.pair", "simplegames.dimension:PartOracle", "pair_compatible"),
    ("dimension.oracle.set", "simplegames.dimension:PartOracle", "separable_set"),
    ("dimension.cover", "simplegames.dimension", "exact_dimension"),
    ("dimension.cover", "simplegames.dimension", "codimension_direct"),
    ("dimension.verify", "simplegames.dimension", "intersect_games"),
    # threshold_table lives in lpsep; only dimension's own binding is
    # wrapped, so the span covers the calls made from dimension.
    ("dimension.verify", "simplegames.dimension", "threshold_table"),
)
LOCAL_ONLY = {("simplegames.dimension", "threshold_table")}

# Above this size (rows * columns of the <= form) LinearSystem.solve tries
# the float pre-pass first; mirrors _exactlp._EXACT_SIZE_LIMIT, which is
# read at wrap time so the classification follows the library.
LP_EXACT_ONLY, LP_FLOAT_ACCEPTED, LP_FLOAT_FALLBACK = 0, 1, 2


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Spans are recorded while the wrappers are installed, between
    :meth:`install` and :meth:`restore`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._name_id.get(name)
        if idx is None:
            idx = self._name_id[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by tests)."""
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return sid

    def truncate(self, n: int) -> None:
        """Drop every span from index ``n`` on."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[n:]
        for sid in [k for k in self.notes if k >= n]:
            del self.notes[sid]

    def __len__(self) -> int:
        return len(self.name)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if note is not None:
                self.notes[sid] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in place; :meth:`restore` undoes it."""
        import importlib

        from simplegames import _exactlp

        limit = _exactlp._EXACT_SIZE_LIMIT

        def lp_note(args, kwargs, result):
            system = args[0]
            leq = sum(2 if sense == _exactlp.EQ else 1 for _, sense, _ in system.rows)
            size = max(1, leq) * (system.num_vars + leq)
            forced = kwargs.get("force_exact", args[2] if len(args) > 2 else False)
            if forced or size <= limit:
                kind = LP_EXACT_ONLY
            else:
                kind = LP_FLOAT_FALLBACK if result.exact_path else LP_FLOAT_ACCEPTED
            return (kind, len(system.rows))

        def find_note(args, kwargs, result):
            return result is not None

        notes = {"exactlp.solve": lp_note, "certificates.find": find_note}
        library = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "simplegames" or key.startswith("simplegames."))
        ]
        for name, owner, attr in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(name, original, notes.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, notes.get(name))
            self._patch(module, attr, original, wrapped)
            if (module_name, attr) in LOCAL_ONLY:
                continue
            for mod in library:
                if mod is module:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, holder: object, attr: str, original: object, wrapped: object) -> None:
        setattr(holder, attr, wrapped)
        self._restore.append((holder, attr, original))

    def restore(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Gzipped text: a JSON header line (with the span name table), then
        one ``name_id parent start end`` line per span, ids by position."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps(dict(header, names=self.names)) + "\n")
            name, parent, start, end = self.name, self.parent, self.start, self.end
            for lo in range(0, len(name), 50_000):
                fh.write("".join(
                    f"{name[i]} {parent[i]} {start[i]:.9f} {end[i]:.9f}\n"
                    for i in range(lo, min(lo + 50_000, len(name)))
                ))


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self.sid = -1

    def __enter__(self) -> "_Span":
        self.sid = self._tracer.open(self._name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.close(self.sid)


# -- analysis -------------------------------------------------------------------


def self_times(tracer: Tracer, lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of each span in ``[lo, hi)``: duration minus the union of
    its children's intervals, clipped to the span."""
    hi = len(tracer) if hi is None else hi
    children: dict[int, list[int]] = {}
    for sid in range(lo, hi):
        p = tracer.parent[sid]
        if p >= lo:
            children.setdefault(p, []).append(sid)
    out = []
    for sid in range(lo, hi):
        s, e = tracer.start[sid], tracer.end[sid]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted((tracer.start[c], tracer.end[c]) for c in children.get(sid, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def _inclusive(tracer: Tracer, name_id: int, lo: int, hi: int) -> float:
    """Wall time covered by spans of one name, nested repeats counted once."""
    total = 0.0
    for sid in range(lo, hi):
        if tracer.name[sid] != name_id:
            continue
        p = tracer.parent[sid]
        while p >= lo and tracer.name[p] != name_id:
            p = tracer.parent[p]
        if p < lo:
            total += tracer.end[sid] - tracer.start[sid]
    return total


def layer_metrics(tracer: Tracer, run_lo: int, setup_lo: int = 0) -> dict[str, float]:
    """Per-layer metrics from the spans of the timed run ``[run_lo, end)``;
    ``hierarchical.build.s`` comes from the set-up spans ``[setup_lo, run_lo)``."""
    hi = len(tracer)
    selfs = self_times(tracer, run_lo, hi)
    ids = {name: tracer.name_id(name) for name, _, _ in TARGETS}
    calls = dict.fromkeys(ids.values(), 0)
    self_s = dict.fromkeys(ids.values(), 0.0)
    for k, sid in enumerate(range(run_lo, hi)):
        nid = tracer.name[sid]
        if nid in calls:
            calls[nid] += 1
            self_s[nid] += selfs[k]

    def c(name: str) -> int:
        return calls[ids[name]]

    def s(name: str) -> float:
        return self_s[ids[name]]

    lp_kinds = [0, 0, 0]
    rows = 0
    found = 0
    solve_id, find_id = ids["exactlp.solve"], ids["certificates.find"]
    oracle_ids = {ids["dimension.oracle.pair"], ids["dimension.oracle.set"]}
    lp_oracles: set[int] = set()
    for sid, note in tracer.notes.items():
        if sid < run_lo:
            continue
        nid = tracer.name[sid]
        if nid == solve_id:
            lp_kinds[note[0]] += 1
            rows += note[1]
            p = tracer.parent[sid]
            while p >= run_lo:
                if tracer.name[p] in oracle_ids:
                    lp_oracles.add(p)
                p = tracer.parent[p]
        elif nid == find_id:
            found += note
    oracle_calls = c("dimension.oracle.pair") + c("dimension.oracle.set")
    float_tried = lp_kinds[LP_FLOAT_ACCEPTED] + lp_kinds[LP_FLOAT_FALLBACK]
    solves = c("exactlp.solve")
    return {
        "core.maximal_losing.calls": c("core.maximal_losing"),
        "core.maximal_losing.self_s": s("core.maximal_losing"),
        "core.dual.calls": c("core.dual"),
        "core.dual.self_s": s("core.dual"),
        "desirability.is_complete.calls": c("desirability.is_complete"),
        "desirability.is_complete.self_s": s("desirability.is_complete"),
        "desirability.equivalence_classes.self_s": s("desirability.equivalence_classes"),
        "desirability.incomparability.self_s": s("desirability.incomparability"),
        "lpsep.is_weighted.calls": c("lpsep.is_weighted"),
        "lpsep.is_weighted.self_s": s("lpsep.is_weighted"),
        "exactlp.solve.calls": solves,
        "exactlp.solve.exact_only": lp_kinds[LP_EXACT_ONLY],
        "exactlp.solve.float_accepted": lp_kinds[LP_FLOAT_ACCEPTED],
        "exactlp.solve.float_fallback": lp_kinds[LP_FLOAT_FALLBACK],
        "exactlp.float_accept_ratio": lp_kinds[LP_FLOAT_ACCEPTED] / float_tried if float_tried else 0.0,
        "exactlp.float.s": _inclusive(tracer, ids["exactlp.float"], run_lo, hi),
        "exactlp.verify.s": _inclusive(tracer, ids["exactlp.verify"], run_lo, hi),
        "exactlp.solve.self_s": s("exactlp.solve"),
        "exactlp.rows.mean": rows / solves if solves else 0.0,
        "certificates.find.calls": c("certificates.find"),
        "certificates.find.self_s": s("certificates.find"),
        "certificates.pair_scan.calls": c("certificates.pair_scan"),
        "certificates.pair_scan.self_s": s("certificates.pair_scan"),
        "certificates.verify.s": _inclusive(tracer, ids["certificates.verify"], run_lo, hi),
        "certificates.found_ratio": found / c("certificates.find") if c("certificates.find") else 0.0,
        "dimension.oracle.pair.calls": c("dimension.oracle.pair"),
        "dimension.oracle.pair.self_s": s("dimension.oracle.pair"),
        "dimension.oracle.set.calls": c("dimension.oracle.set"),
        "dimension.oracle.set.self_s": s("dimension.oracle.set"),
        "dimension.oracle.lp_queries": len(lp_oracles),
        "dimension.oracle.no_lp_ratio": 1 - len(lp_oracles) / oracle_calls if oracle_calls else 0.0,
        "dimension.cover.self_s": s("dimension.cover"),
        "dimension.verify.s": _inclusive(tracer, ids["dimension.verify"], run_lo, hi),
        "hierarchical.build.s": _inclusive(tracer, ids["hierarchical.build"], setup_lo, run_lo),
    }
