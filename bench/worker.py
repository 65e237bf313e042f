"""Solve a list of chart specs in this interpreter and print one JSON line.

Reads ``{"charts": [...], "trace": bool, "spans_path": str | null}`` on
standard input.  For every chart it runs the public pipeline from the model
constructor to the three verdicts (constant symbol, Morimoto normalization,
flatness) and records the raw verdicts, the residuals and the wall time.  An
exception is recorded with the stage that raised it; the next chart still
runs.  Judging the verdicts is left to ``run.py``.

The traced functions are looked up as module attributes at call time, so the
wrappers :class:`tracing.Tracer` installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import srgeom
from srgeom import connection, contact, expr, g235, lie, manifold, models


def build_manifold(spec: dict):
    kind, params = spec["kind"], spec["params"]
    if kind == "cartan":
        return models.cartan_group_manifold()
    if kind == "perturbed-235":
        return models.perturbed_235_manifold(params["eps"])
    if kind == "heisenberg":
        return models.carnot_group_manifold(
            lie.heisenberg(tuple(params["lam"])), structure_class="contact"
        )
    if kind != "conformal-heisenberg":
        raise ValueError(f"unknown chart kind {kind!r}")
    # the metric of h_n(1, ..., 1) rescaled by exp(a x1)
    n = params["n"]
    scale = expr.exp(expr.mul(expr.floatc(params["a"]), expr.var("x1")))
    zero = expr.rational(0)
    metric = [[scale if i == j else zero for j in range(2 * n)] for i in range(2 * n)]
    return models.carnot_group_manifold(
        lie.heisenberg((1,) * n), metric=metric, structure_class="contact"
    )


def solve(spec: dict, span) -> dict:
    """Run one chart through its pipeline; never raises."""
    out = {"verdicts": None, "residuals": None, "error": None}
    stage = "models"
    start = time.perf_counter()
    try:
        with span("chart"):
            with span("models.build"):
                m = build_manifold(spec)
            points = [dict(zip(m.coords, p)) for p in spec["points"]]
            stage = "check_constant_symbol"
            symbol = manifold.check_constant_symbol(m, points)
            if m.structure_class == "contact":
                stage = "extract_contact_data"
                cd = contact.extract_contact_data(m)
                stage = "morimoto_grading_contact"
                params = contact.morimoto_grading_contact(cd)
                stage = "connection_prime"
                prime = contact.connection_prime(cd, params)
                stage = "connection_double_prime"
                second = contact.connection_double_prime(cd, params, prime=prime)
                stage = "morimoto_connection_contact"
                conn = contact.morimoto_connection_contact(cd, params, second=second)
            else:
                stage = "morimoto_grading_235"
                params = g235.morimoto_grading_235(m)
                stage = "morimoto_connection_235"
                conn = g235.morimoto_connection_235(params)
            stage = "check_morimoto"
            mr = connection.check_morimoto(conn, points, tol=spec["morimoto_tol"])
            stage = "flatness_check"
            fr = connection.flatness_check(conn, points)
    except Exception as exc:  # recorded per chart, never dropped
        out["error"] = {"stage": stage, "exception": f"{type(exc).__name__}: {exc}"}
    else:
        out["verdicts"] = {
            "constant": bool(symbol.constant),
            "strongly_compatible": bool(mr.compatibility.strongly_compatible),
        }
        out["residuals"] = {
            "morimoto_r": mr.residual_r,
            "morimoto_t": mr.residual_t,
            "torsion": fr.torsion_residual,
            "curvature": fr.curvature_residual,
        }
    out["seconds"] = time.perf_counter() - start
    return out


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer else contextlib.nullcontext
    charts = [solve(spec, span) for spec in job["charts"]]
    result = {
        "srgeom_file": str(Path(srgeom.__file__).resolve()),
        "charts": charts,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pool_nodes": len(expr._POOL),
        "diff_cache_entries": len(expr._DIFF_CACHE),
        "trace": tracer.summary() if tracer else None,
    }
    if tracer and job.get("spans_path"):
        tracer.dump(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
