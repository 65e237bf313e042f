"""Sample points come from one seeded standard-library helper.

``manifold._uniform_rows`` draws every sample point, the default ones of the
constructions and the seeded ones of a description file, from
``random.Random(seed)``; numpy's generator module is never loaded.  After
the import the benchmark times as setup, the pipelines load no module at all.
A batch of charts in one interpreter keeps its live memory growth per chart
under a fixed bound, one curved chart's expression pool stays under a fixed
number of nodes, and a finished chart is freed by reference counting alone.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

from srgeom import connection, contact, g235, models
from srgeom.manifold import _default_samples, check_constant_symbol, manifold_from_dict

_SRC = Path(__file__).resolve().parents[1] / "src"


def test_default_samples_are_seeded_and_inside_the_box():
    m = models.cartan_group_manifold()
    pts = _default_samples(m, count=20, seed=3)
    assert len(pts) == 20
    assert pts == _default_samples(m, count=20, seed=3)
    assert all(-0.9 <= v <= 0.9 for p in pts for v in p.values())
    assert pts != _default_samples(m, count=20, seed=4)
    # a longer draw starts with the shorter one
    assert _default_samples(m, count=25, seed=3)[:20] == pts


def test_description_file_and_defaults_share_one_helper():
    doc = manifold_from_dict(
        {
            "coords": ["x", "y", "z"],
            "frames": [["1", "0", "-y/2"], ["0", "1", "x/2"], ["0", "0", "1"]],
            "horizontal_rank": 2,
            "chart_box": [-0.9, 0.9],
            "seed": 11,
            "sample_count": 7,
        }
    )
    assert doc.sample() == _default_samples(doc.manifold, count=7, seed=11)


_PIPELINES = """
import sys

import srgeom.models, srgeom.contact, srgeom.g235
loaded = set(sys.modules)

from srgeom import connection, contact, g235, manifold, models
from srgeom.manifold import _default_samples

m = models.heisenberg_manifold()
pts = _default_samples(m)
assert manifold.check_constant_symbol(m, pts).constant
cd = contact.extract_contact_data(m)
conn = contact.morimoto_connection_contact(cd, contact.morimoto_grading_contact(cd))
assert connection.check_morimoto(conn, pts).ok
assert connection.flatness_check(conn, pts).flat
m = models.cartan_group_manifold()
pts = _default_samples(m)
assert manifold.check_constant_symbol(m, pts).constant
conn = g235.morimoto_connection_235(g235.morimoto_grading_235(m))
assert connection.check_morimoto(conn, pts).ok
assert connection.flatness_check(conn, pts).flat
print("numpy.random" in sys.modules)
print(sorted(set(sys.modules) - loaded))
"""


def test_pipelines_with_default_points_never_load_numpy_random():
    # a fresh interpreter: pytest and hypothesis load numpy.random themselves.
    # After the import the benchmark times as setup, the contact and (2,3,5)
    # pipelines through both checks load no module, numpy.random included.
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.splitlines() == ["False", "[]"]


_BATCH = """
import gc
import random
import tracemalloc

from srgeom import connection, contact, expr, lie, manifold, models

tracemalloc.start()
rng = random.Random(7)
live = []
for _ in range(20):
    # h_1 with its metric rescaled by exp(a x1), a drawn from [0.5, 2]
    scale = expr.exp(expr.mul(expr.floatc(rng.uniform(0.5, 2.0)), expr.var("x1")))
    metric = [[scale, expr.ZERO], [expr.ZERO, scale]]
    m = models.carnot_group_manifold(lie.heisenberg((1,)), metric=metric, structure_class="contact")
    pts = [[rng.uniform(-0.8, 0.8) for _ in m.coords] for _ in range(5)]
    assert manifold.check_constant_symbol(m, pts).constant
    cd = contact.extract_contact_data(m)
    conn = contact.morimoto_connection_contact(cd, contact.morimoto_grading_contact(cd))
    assert connection.check_morimoto(conn, pts, tol=1e-6).ok
    assert not connection.flatness_check(conn, pts).flat
    del m, cd, conn
    gc.collect()
    live.append(tracemalloc.get_traced_memory()[0])
print((live[19] - live[4]) / 15)
"""

# Live bytes a conformal h_1 chart adds, from chart 5 to chart 20: about
# 80 KB before the constructor memo (the expression pool and the
# differentiation cache hold every node), 102 KB with it, and 41.6 KB since
# exp factors combine into one exp with exact exponent coefficients.  The
# bound allows 1.5 times the 41.6 KB.
_GROWTH_PER_CHART = 1.5 * 41.6e3


def test_a_batch_of_charts_grows_live_memory_by_a_bounded_amount_per_chart():
    # a fresh interpreter, so nothing the other tests interned is counted
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", _BATCH],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    growth = float(out.stdout)
    assert 0 < growth < _GROWTH_PER_CHART, growth


_CONFORMAL_H2 = """
from srgeom import connection, contact, expr, lie, manifold, models

# the contact-conformal benchmark's h_2(1, 1) chart: the metric rescaled by exp(a x1)
scale = expr.exp(expr.mul(expr.floatc(1.1), expr.var("x1")))
metric = [[scale if i == j else expr.ZERO for j in range(4)] for i in range(4)]
m = models.carnot_group_manifold(lie.heisenberg((1, 1)), metric=metric, structure_class="contact")
pts = manifold._default_samples(m, count=3, seed=7)
assert manifold.check_constant_symbol(m, pts).constant
cd = contact.extract_contact_data(m)
conn = contact.morimoto_connection_contact(cd, contact.morimoto_grading_contact(cd))
assert connection.check_morimoto(conn, pts, tol=1e-6).ok
assert not connection.flatness_check(conn, pts).flat
print(len(expr._POOL))
"""

# Nodes in the expression pool after that chart's pipeline and verdicts: 312
# while exp factors were kept apart (exp(u)^(-1)*sqrt(exp(u)^2) for 1), 116
# since they combine.  The bound allows 1.25 times the 116.
_CONFORMAL_H2_POOL = 1.25 * 116


def test_the_conformal_h2_chart_builds_a_bounded_pool():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", _CONFORMAL_H2],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(out.stdout) <= _CONFORMAL_H2_POOL


def _contact_and_235_verdicts():
    """Conformal h_1 and Cartan's chart through their pipelines and three checks."""
    m = models.conformal_heisenberg_manifold()
    pts = _default_samples(m, count=3)
    cd = contact.extract_contact_data(m, pts)
    conns = [(contact.morimoto_connection_contact(cd, contact.morimoto_grading_contact(cd)), pts)]
    m = models.cartan_group_manifold()
    pts = _default_samples(m, count=3)
    conns.append((g235.morimoto_connection_235(g235.morimoto_grading_235(m, sample_points=pts)), pts))
    for conn, pts in conns:
        assert check_constant_symbol(conn.grading.frame.chart, pts).constant
        assert connection.check_morimoto(conn, pts, tol=1e-6).ok
        connection.flatness_check(conn, pts)


def test_a_finished_chart_is_freed_by_reference_counting():
    # Nothing of a finished chart waits for the cyclic collector: a field
    # keeps its chart's coordinates, not the chart; a selector keeps the
    # grading's dimension, not the grading; and the evaluator's recursive
    # walks drop their caches when they end.  The first run loads what the
    # pipelines load on first use.
    _contact_and_235_verdicts()
    gc.collect()
    gc.disable()
    try:
        _contact_and_235_verdicts()
        assert gc.collect() == 0
    finally:
        gc.enable()
