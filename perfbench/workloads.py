"""The three benchmark workloads: inputs from a seed, one operation, gates.

Every workload is one closed-loop caller: it builds its inputs once, then
issues the same operation back to back.  An operation returns an
``OpResult`` with its correctness verdict and the wall time of each named
part; the part names are the end-to-end timings the summary prints.

Nothing here imports numpy or khessian at module level, so ``run.py`` can
time the package import as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Criterion 1's torsion-preset tolerances.
RECOVERY_TOL = 1e-5
B_TOL = 1e-8

MMS_N = 12
MMS_MODES = (  # (amplitude, frequency vector); phases come from the seed
    (0.025, (1, 1, 0, 0)),
    (0.025, (1, -1, 0, 0)),
    (0.05, (0, 0, 1, 0)),
)
COMMUTATION_GRIDS = (8, 16)
LEMMA22_CASES = ((2, 8, 16), (3, 8, 10))
LEMMA21_CASES = ((4, 3), (6, 5))
LEMMA21_SAMPLES = 20000
BASIC_SAMPLES = 100000


@dataclass
class OpResult:
    ok: bool
    parts: dict[str, float]
    info: dict = field(default_factory=dict)


def mms_gate(success: bool, recovery_error: float, b: float) -> bool:
    return bool(success) and recovery_error <= RECOVERY_TOL and abs(b) <= B_TOL


def audit_gate(report) -> bool:
    return bool(report.passed) and report.violations == 0


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


# ---------------------------------------------------------------- mms-torsion

def mms_terms(seed: int):
    import numpy as np

    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(MMS_MODES))
    return [(amp, freqs, float(phase)) for (amp, freqs), phase in zip(MMS_MODES, phases)]


def build_mms(kh, seed: int, N: int = MMS_N) -> dict:
    grid = kh.TorusGrid(2, N)
    g = kh.metric_preset(grid, "torsion", epsilon=0.1)
    u_star = grid.trig_field(mms_terms(seed))
    f = kh.manufactured_source(grid, g, u_star, 2)
    return {"grid": grid, "g": g, "u_star": u_star, "f": f}


def run_mms(kh, inputs: dict) -> OpResult:
    report, dt = _timed(kh.solve, inputs["grid"], inputs["g"], inputs["f"], 2)
    err = kh.recovery_error(report, inputs["u_star"]) if report.success else float("inf")
    return OpResult(
        ok=mms_gate(report.success, err, report.b),
        parts={"solve_s": dt},
        info={"recovery_error": err, "b": report.b, "message": report.message},
    )


# ------------------------------------------------------------- audit-calculus

def build_calculus(kh, seed: int) -> dict:
    # audit_commutation and audit_lemma22 take no random input through the
    # public API: the seed is recorded but unused.
    return {}


def run_calculus(kh, inputs: dict) -> OpResult:
    lo, hi = COMMUTATION_GRIDS
    comm, t_comm = _timed(kh.audit_commutation, N_lo=lo, N_hi=hi)
    l22, t_l22 = _timed(kh.audit_lemma22, cases=LEMMA22_CASES)
    return OpResult(
        ok=audit_gate(comm) and audit_gate(l22),
        parts={"audit_commutation_s": t_comm, "audit_lemma22_s": t_l22},
        info={"commutation_min_decay": comm.constants["min_decay"],
              "lemma22_worst_drift_fraction": l22.constants["worst_drift_fraction"]},
    )


# ----------------------------------------------------------------- audit-cone

def build_cone(kh, seed: int) -> dict:
    import numpy as np

    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(LEMMA21_CASES) + 1)
    return {"lemma21_seeds": [int(s) for s in seeds[:-1]], "basic_seed": int(seeds[-1])}


def run_cone(kh, inputs: dict) -> OpResult:
    ok = True
    t_l21 = 0.0
    stability = []
    for (n, k), seed in zip(LEMMA21_CASES, inputs["lemma21_seeds"]):
        rep, dt = _timed(kh.audit_lemma21, n, k, samples=LEMMA21_SAMPLES, seed=seed)
        ok = ok and audit_gate(rep)
        t_l21 += dt
        stability.append(rep.constants["stability_rel"])
    basic, t_basic = _timed(
        kh.audit_basic_inequality, samples=BASIC_SAMPLES, seed=inputs["basic_seed"]
    )
    return OpResult(
        ok=ok and audit_gate(basic),
        parts={"audit_lemma21_s": t_l21, "audit_basic_inequality_s": t_basic},
        info={"lemma21_stability_rel": max(stability)},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., dict]
    run: Callable[..., OpResult]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mms-torsion", build_mms, run_mms),
        Workload("audit-calculus", build_calculus, run_calculus),
        Workload("audit-cone", build_cone, run_cone),
    )
}
