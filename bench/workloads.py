"""Seeded chart generators for the benchmark workloads.

A chart spec is plain JSON data: the model kind, its drawn parameters, the
sample points, the Morimoto tolerance and the verdict triple known from the
chart's construction.  Only continuous parameters are drawn (conformal
exponent, eigenvalue ratios, ``eps``), so the composition of a pass and its
cost do not depend on the seed.  Nothing here imports ``srgeom``: the charts
are built by the worker process that solves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Coordinates of sample points are drawn uniformly from [-R, R].
POINT_RANGE = 0.8

# Morimoto residual bounds, as in the contact tests: exact on flat charts,
# looser where the connection carries curvature.
FLAT_MORIMOTO_TOL = 1e-8
CURVED_MORIMOTO_TOL = 1e-6


def _chart(rng, kind: str, params: dict, dim: int, points: int, flat: bool) -> dict:
    return {
        "kind": kind,
        "params": params,
        "points": rng.uniform(-POINT_RANGE, POINT_RANGE, (points, dim)).tolist(),
        "morimoto_tol": FLAT_MORIMOTO_TOL if flat else CURVED_MORIMOTO_TOL,
        "expected": {"constant": True, "morimoto": True, "flat": flat},
    }


def _lam(rng, n: int) -> list:
    """Heisenberg eigenvalues 1 = lam_1 < lam_2 < ..., ratios in [1.3, 2)."""
    lam = [1.0]
    for _ in range(n - 1):
        lam.append(lam[-1] * float(rng.uniform(1.3, 2.0)))
    return lam


def _conformal(rng, n: int, points: int) -> dict:
    # unit eigenvalues: rescaling diag(1, r^2, ...) instead puts float weights
    # into every connection entry and takes the dim-5 chart past two minutes
    params = {"n": n, "a": float(rng.uniform(0.5, 2.0))}
    return _chart(rng, "conformal-heisenberg", params, 2 * n + 1, points, flat=False)


def contact_conformal(rng) -> list:
    """Group charts of h_1 and h_2(1, 1) with the metric rescaled by exp(a x1)."""
    return [_conformal(rng, 1, 5), _conformal(rng, 2, 3)]


def g235_perturbed(rng) -> list:
    """One (2,3,5) chart with the x4-dependent metric weight 1 + eps x4^2."""
    params = {"eps": float(rng.uniform(0.05, 0.3))}
    return [_chart(rng, "perturbed-235", params, 5, 5, flat=False)]


def flat_batch(rng) -> list:
    """Flat Carnot groups: Heisenberg of dimension 3, 5, 7 and Cartan's group."""
    charts = [
        _chart(rng, "heisenberg", {"lam": _lam(rng, n)}, 2 * n + 1, 20, flat=True)
        for n in (1, 2, 3)
    ]
    charts.append(_chart(rng, "cartan", {}, 5, 20, flat=True))
    return charts


def smoke(rng) -> list:
    """h1 and Cartan's group at a few points: the harness self-test."""
    return [
        _chart(rng, "heisenberg", {"lam": [1.0]}, 3, 3, flat=True),
        _chart(rng, "cartan", {}, 5, 3, flat=True),
    ]


@dataclass(frozen=True)
class Workload:
    make_pass: Callable  # rng -> list of chart specs
    isolated: bool  # one fresh interpreter per chart, else one per pass
    why: str
    limit_s: float = 170.0  # wall seconds a whole run may take


WORKLOADS = {
    "contact-conformal": Workload(
        contact_conformal, True,
        "contact pipeline on curved charts: symbolic connection tensors over "
        "deep shared expression DAGs, so expr.simplify dominates",
    ),
    "flat-batch": Workload(
        flat_batch, False,
        "flat groups in one interpreter: tiny expressions, constructor volume "
        "and per-point checks dominate; the simplify DAG walk is bypassed",
    ),
    "g235-perturbed": Workload(
        g235_perturbed, True,
        "the (2,3,5) grading and connection solve: the largest expression pool",
        # a traced run solves the ~75 s chart twice, so it cannot end in 170 s
        limit_s=400.0,
    ),
    "smoke": Workload(smoke, False, "harness self-test on h1 and Cartan's group"),
}


def pass_specs(workload: str, seed: int, index: int) -> list:
    """Chart specs of pass ``index`` of a run; a pure function of its arguments."""
    return WORKLOADS[workload].make_pass(np.random.default_rng((seed, index)))
