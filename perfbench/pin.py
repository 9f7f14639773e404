"""Derive the pinned verdict digests of run.py and cross-check them.

Run from the repository root (takes a few minutes)::

    python3 perfbench/pin.py

For ``DEFAULT_SEED`` it answers every input of ``corpus6`` and
``codim-small`` once, prints the sha256 of the per-input verdicts (the values
of ``run.PINNED``), and checks the answers against independent routes:

* every 5-player ``codim-small`` game: dimension and codimension against the
  brute-force union/intersection cover oracles of ``tests/oracles.py``;
* every ``corpus6`` game: the weighted bit against membership in the test
  suite's enumeration of integer-weight threshold tables, which at weights
  up to 9 yields all 244,158 threshold functions of six variables.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# monotone Boolean threshold functions of six variables, constants included
THRESHOLD_FUNCTIONS_6 = 244_158


def main() -> int:
    seed = run.DEFAULT_SEED
    bad = 0

    wl = workloads.WORKLOADS["codim-small"]
    raw = wl.inputs(seed)
    outs = [wl.solve(wl.make(r)) for r in raw]
    tables5 = oracles.threshold_tables(5, 8)
    checked = 0
    for (n, spec), out in zip(raw, outs):
        msg = wl.check((n, spec), wl.make((n, spec)), out)
        if msg is not None:
            bad += 1
            print("codim-small check:", (n, spec), msg)
        if n != 5:
            continue
        checked += 1
        dim, codim = out[0].exact, out[1].exact
        want = (oracles.oracle_dimension(5, spec, tables5), oracles.oracle_codimension(5, spec, tables5))
        if (dim, codim) != want:
            bad += 1
            print(f"codim-small oracle mismatch on table {spec:#x}: {(dim, codim)} != {want}")
    print(f"codim-small: {checked} 5-player games matched the cover oracles")
    print("codim-small digest", wl.digest(outs))

    wl = workloads.WORKLOADS["corpus6"]
    raw = wl.inputs(seed)
    outs = [wl.solve(wl.make(t)) for t in raw]
    tables6 = oracles.threshold_tables(6, 9)
    if len(tables6) != THRESHOLD_FUNCTIONS_6:
        bad += 1
        print(f"threshold enumeration gave {len(tables6)} tables, not {THRESHOLD_FUNCTIONS_6}")
    for t, out in zip(raw, outs):
        if (out[0] is not None) != (t in tables6):
            bad += 1
            print(f"corpus6 weighted bit mismatch on table {t:#x}")
    print(f"corpus6: {len(raw)} weighted bits checked against the threshold enumeration")
    print("corpus6 digest", wl.digest(outs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
