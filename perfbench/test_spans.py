"""Tests of the benchmark's span arithmetic and wrapping.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench/test_spans.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def test_self_time_subtracts_nested_children():
    t = spans.Tracer()
    root = t.add("a", 0.0, 10.0)
    child = t.add("b", 1.0, 4.0, root)
    t.add("c", 2.0, 3.0, child)
    t.add("b", 5.0, 6.5, root)
    assert spans.self_times(t) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips():
    t = spans.Tracer()
    root = t.add("a", 0.0, 10.0)
    t.add("b", 2.0, 5.0, root)
    t.add("b", 4.0, 7.0, root)  # overlaps the first child: union is [2, 7]
    t.add("b", 9.0, 12.0, root)  # runs past the parent: clipped to [9, 10]
    assert spans.self_times(t)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_window_ignores_parents_outside_it():
    t = spans.Tracer()
    t.add("setup", 0.0, 1.0)
    root = t.add("a", 2.0, 4.0)
    t.add("b", 2.5, 3.0, root)
    assert spans.self_times(t, 1) == pytest.approx([1.5, 0.5])


def test_inclusive_time_counts_nested_repeats_once():
    t = spans.Tracer()
    outer = t.add("v", 0.0, 4.0)
    t.add("v", 1.0, 2.0, outer)
    t.add("v", 5.0, 6.0)
    assert spans._inclusive(t, t.name_id("v"), 0, len(t)) == pytest.approx(5.0)


def test_install_wraps_every_binding_and_restore_puts_back():
    import simplegames
    from simplegames import certificates, core, dimension, lpsep
    from simplegames._exactlp import LinearSystem

    originals = (core.maximal_losing_masks, dimension.maximal_losing_masks,
                 lpsep.threshold_table, LinearSystem.__dict__["solve"], simplegames.is_weighted)
    t = spans.Tracer()
    t.install()
    try:
        assert dimension.maximal_losing_masks is core.maximal_losing_masks
        assert certificates.maximal_losing_masks is core.maximal_losing_masks
        assert core.maximal_losing_masks is not originals[0]
        assert simplegames.is_weighted is lpsep.is_weighted is not originals[4]
        # only dimension's binding of threshold_table is traced
        assert lpsep.threshold_table is originals[2]
        assert dimension.threshold_table is not originals[2]
        g = simplegames.build(simplegames.HierarchicalSpec(simplegames.Kind.DISJUNCTIVE, (2, 5), (2, 5)))
        assert simplegames.exact_dimension(g).exact == 2
    finally:
        t.restore()
    assert (core.maximal_losing_masks, dimension.maximal_losing_masks, lpsep.threshold_table,
            LinearSystem.__dict__["solve"], simplegames.is_weighted) == originals
    m = spans.layer_metrics(t, 0)
    assert m["dimension.oracle.pair.calls"] > 0
    assert m["exactlp.solve.calls"] == m["exactlp.solve.exact_only"] > 0
    assert 0 < m["dimension.oracle.lp_queries"] <= m["exactlp.solve.calls"]
    assert m["core.maximal_losing.calls"] >= 1
