"""Closed-loop benchmark of simplegames: one process, one client.

Run from the repository root::

    python3 perfbench/run.py --workload corpus6 --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  A run imports the library
once, then builds the inputs, their games and one warm-up solve three times
(set-up), and then hands the games to the library one at a time, pass after
pass over the inputs, for at least one full pass and at least ``--seconds``
seconds of wall time.  Every answer is checked exactly, outside the per-input
timer.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced;
* ``--trace 1``: per-layer metrics from spans recorded by wrappers around
  the library's public callables (see ``spans.py``), from the first of
  alternating traced and untraced passes, plus the tracing overhead.

Times are reference time (see ``refclock.py``): wall time rescaled by the
speed of a fixed probe sampled every 20 ms, so that other tenants of a
shared machine do not move the figures.  Each input's time is the median of
its solves in the run.  ``games_per_s`` is inputs per second of summed
per-input time; ``game_ms_p50`` and ``game_ms_p99`` are percentiles over
the inputs (nearest rank; with fewer than 1000 inputs p99 is the slowest).

Lines starting with ``#`` before the result record nproc, the Python, numpy
and scipy versions, the commit and a digest of ``src/``, plus wall-clock
figures.  The same record, and for traced runs the spans, are written under
``perfbench/out/``.
"""

from __future__ import annotations

import time

BOOT = time.perf_counter()

import refclock  # noqa: E402  (before the heavy imports: they are set-up)

CLOCK = refclock.RefClock()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Single client, single process: keep native thread pools to one thread
# (at or below nproc) so BLAS/OpenMP cannot compete with the timed loop.
THREAD_CAP = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

DEFAULT_SEED = 1
SETUP_REPEATS = 3

# sha256 of the per-input verdicts at DEFAULT_SEED, from pin.py, which also
# checks them against the independent oracles of the test suite.
PINNED = {
    "corpus6": "090310aa09d2a65f5e41b5905180beb9153709c707d1c1becd8ea9d0ec715a9e",
    "codim-small": "bdfd9ae4a9a009b1a502588f99460025224b088fafd7ffa5eec084c2ff142323",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("corpus6", "dim-hier", "codim-small"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _env() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": int(THREAD_CAP),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


class Run:
    """The timed closed loop: pass after pass over one workload's inputs.

    Every pass hands each input to the library once, on a freshly built game
    object, so no answer cached on a game survives into the next pass.
    Solves are logged as wall timestamps and converted to reference time
    once the clock has stopped.  Answers are checked outside the timer.
    """

    def __init__(self, wl, raw: list, games: list) -> None:
        self.wl = wl
        self.raw = raw
        self.games: list | None = games
        # solve log per mode (traced or not): input index, start, end
        self.log = {mode: (array("i"), array("d"), array("d")) for mode in (False, True)}
        self.first: list = [None] * len(raw)  # first answer per input
        self.copies = [0] * len(raw)  # answers equal to the first one
        self.wall = 0.0
        self.failed = 0
        self.messages: list[str] = []

    def one_pass(self, seconds: float, traced=None) -> bool:
        """Solve the inputs in order.  Once ``seconds`` of loop time have
        passed, stop (mid-pass too) and return True."""
        games = self.games if self.games is not None else [self.wl.make(r) for r in self.raw]
        self.games = None
        idx, starts, ends = self.log[traced is not None]
        solve = self.wl.solve
        begin = time.perf_counter()
        for i, g in enumerate(games):
            err = None
            t0 = time.perf_counter()
            try:
                if traced is None:
                    out = solve(g)
                else:
                    with traced:
                        out = solve(g)
            except Exception as exc:  # one input failed; keep measuring
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            idx.append(i)
            starts.append(t0)
            ends.append(t1)
            self._record(i, out, err)
            if self.wall + (t1 - begin) >= seconds:
                self.wall += t1 - begin
                return True
        self.wall += time.perf_counter() - begin
        return False

    @property
    def solves(self) -> int:
        return len(self.log[False][0]) + len(self.log[True][0])

    def _fail(self, i: int, msg: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 5:
            self.messages.append(f"input {i}: {msg}")

    def _record(self, i: int, out, err: str | None) -> None:
        if err is not None:
            self._fail(i, err)
        elif self.first[i] is None:
            self.first[i] = out
            self.copies[i] = 1
        elif out == self.first[i]:
            self.copies[i] += 1
        elif self.wl.verdict(out) != self.wl.verdict(self.first[i]):
            self._fail(i, "verdict differs from an earlier solve")
        else:
            msg = self.wl.check(self.raw[i], self.wl.make(self.raw[i]), out)
            if msg is not None:
                self._fail(i, msg)

    def check(self) -> None:
        """Exact check of each input's first answer, counted for each of
        its repeats that gave the same answer."""
        for i, out in enumerate(self.first):
            if out is not None:
                msg = self.wl.check(self.raw[i], self.wl.make(self.raw[i]), out)
                if msg is not None:
                    self._fail(i, msg, self.copies[i])

    def digest(self) -> str | None:
        if any(o is None for o in self.first):
            return None
        return self.wl.digest(self.first)

    def times(self, traced: bool = False) -> list[float]:
        """Per-input median reference time, for inputs solved in this mode."""
        per: dict[int, list[float]] = {}
        for i, t0, t1 in zip(*self.log[traced]):
            per.setdefault(i, []).append(CLOCK.duration(t0, t1))
        return [statistics.median(per[i]) for i in sorted(per)]


def _setup(wl, seed: int, tracer=None):
    """Build inputs, games and one warm-up solve, SETUP_REPEATS times.

    Returns the last repetition's inputs and games plus the wall interval of
    every repetition.  With a tracer, only the last repetition is traced.
    """
    spans = []
    for rep in range(SETUP_REPEATS):
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        raw = wl.inputs(seed)
        games = [wl.make(r) for r in raw]
        wl.warm_up(raw[0])
        spans.append((t0, time.perf_counter()))
        if traced:
            tracer.restore()
    return raw, games, spans


def _measure(run: Run, seconds: float) -> None:
    """Untraced: at least one full pass, then until ``seconds`` are used."""
    run.one_pass(math.inf)
    while run.wall < seconds and not run.one_pass(seconds):
        pass


def _measure_traced(run: Run, seconds: float, tracer) -> tuple[int, int]:
    """Traced and untraced passes in turn, starting traced, at least one full
    pass of each.  Only the first traced pass keeps its spans; returns their
    index range.  Wrappers are installed for traced passes only, so the
    untraced ones run the library as it is."""
    span = tracer.span("bench.input")
    lo = hi = len(tracer)
    traced = True
    passes = 0
    while passes < 2 or run.wall < seconds:
        if traced:
            tracer.install()
        try:
            done = run.one_pass(math.inf if passes < 2 else seconds, span if traced else None)
        finally:
            if traced:
                tracer.restore()
        if passes == 0:
            hi = len(tracer)
        else:
            tracer.truncate(hi)
        passes += 1
        traced = not traced
        if done:
            break
    return lo, hi


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "simplegames" / "__init__.py").is_file():
        print(f"error: no simplegames sources under {SRC}", file=sys.stderr)
        return 2
    CLOCK.start()
    try:
        sys.path.insert(0, str(SRC))
        import simplegames

        if Path(simplegames.__file__).resolve().parent != SRC / "simplegames":
            print(f"error: imported simplegames from {simplegames.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads

        boot_end = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload]
        tracer = None
        if args.trace:
            import spans as tracing

            tracer = tracing.Tracer()
        raw, games, setup_spans = _setup(wl, args.seed, tracer)
        setup_hi = len(tracer) if tracer else 0
        run = Run(wl, raw, games)
        if tracer is None:
            _measure(run, args.seconds)
        else:
            run_lo, run_hi = _measure_traced(run, args.seconds, tracer)
    finally:
        CLOCK.stop()

    run.check()
    digest = run.digest()
    pinned = PINNED.get(args.workload) if args.seed == DEFAULT_SEED else None
    if pinned and digest != pinned:
        run.messages.append(f"verdict digest {digest} != pinned {pinned}")
    best = run.times()
    complete = len(best) == len(raw)
    if not complete:
        run.messages.append("an input was never solved untraced")

    setup_ref = [CLOCK.duration(a, b) for a, b in setup_spans]
    detail: dict = {
        "workload": args.workload, "seed": args.seed, "inputs": len(raw),
        "solves": run.solves, "digest": digest,
        "boot_ref_s": CLOCK.duration(BOOT, boot_end), "setup_reps_ref_s": setup_ref,
        "loop_wall_s": run.wall, "boot_wall_s": boot_end - BOOT,
        "setup_reps_wall_s": [b - a for a, b in setup_spans],
        "probe_median_s": CLOCK.probe_median_s, "probes": len(CLOCK.starts),
    }
    if args.workload == "dim-hier":
        detail["instance_ref_s"] = dict(zip(raw, best))

    if tracer is None:
        metrics = {
            "setup_s": (CLOCK.duration(BOOT, boot_end) + statistics.median(setup_ref), "s"),
            "games_per_s": (len(best) / sum(best), "1/s"),
            "game_ms_p50": (1e3 * statistics.median(best), "ms"),
            "game_ms_p99": (1e3 * _p99(best), "ms"),
        }
    else:
        for arr in (tracer.start, tracer.end):
            for k in range(len(arr)):
                arr[k] = CLOCK.convert(arr[k])
        layer = tracing.layer_metrics(tracer, run_lo, 0)
        layer["trace.overhead_ratio"] = sum(run.times(True)) / sum(best)
        metrics = {k: (v, _UNITS[k.rsplit(".", 1)[-1]]) for k, v in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.txt.gz",
                    {"workload": args.workload, "seed": args.seed, "clock": "reference",
                     "setup_spans": [0, setup_hi], "run_spans": [run_lo, run_hi]})

    result = {
        "correct": run.failed == 0 and (not pinned or digest == pinned) and complete,
        "attempted": run.solves,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = _env()
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for msg in run.messages:
        print("# check " + msg)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "detail": detail, "messages": run.messages, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


_UNITS = {
    "calls": "count", "self_s": "s", "s": "s", "exact_only": "count",
    "float_accepted": "count", "float_fallback": "count", "float_accept_ratio": "ratio",
    "mean": "rows", "found_ratio": "ratio", "lp_queries": "count", "no_lp_ratio": "ratio",
    "overhead_ratio": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
