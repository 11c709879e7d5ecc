"""Pinned answer digests: every engine, both oracles and the error calculus
on a seeded set of windows, each producer's answers hashed into one SHA-256.

An answer is rendered with ``repr`` (a float's shortest round-trip form, so
a one-ulp move shows) or, when the producer refuses the window, as the
exception's class name. A change that moves answers on purpose re-pins the digests it moved
and says which; print the current ones with

    PYTHONPATH=src python tests/test_answer_digest.py
"""

import hashlib
import random

from support import NMC_CURVE
from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    Direction,
    ErrorSource,
    InfeasibleStateError,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    build_true_context,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
    sweep,
)

PARAMS = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
SOA = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
CURVES = (OcvCurve(((0.0, 3.0), (1.0, 4.2))), NMC_CURVE)
CONSTRAINTS = ("current", "voltage", "soc")
DELTAS = [-0.05, -0.01, 0.0, 0.01, 0.05]


def _windows(n=240, seed=7):
    rng = random.Random(seed)
    return [
        (
            BatteryState(rng.uniform(0.02, 0.98), rng.uniform(-0.6, 0.6)),
            PARAMS,
            rng.choice(CURVES),
            Window(rng.choice((1, 2, 10, 30)), rng.choice((0.1, 1.0, 5.0, 60.0))),
            rng.choice((Direction.DISCHARGE, Direction.CHARGE)),
            SOA,
        )
        for _ in range(n)
    ]


def _sweeps(*scenario):
    ctx = build_true_context(*scenario)
    return [sweep(s, DELTAS, ctx, c) for s in ErrorSource for c in CONSTRAINTS]


PRODUCERS = {
    "sop_cc": sop_cc,
    "sop_cv": sop_cv,
    "sop_cccv": sop_cccv,
    "sop_cp": sop_cp,
    "brute_peak_current_cc": lambda *s: brute_peak_current_cc(*s, tol_amps=1e-9),
    "brute_peak_power_cp": lambda *s: brute_peak_power_cp(*s, tol_watts=1e-9),
    "error_lab.sweep": _sweeps,
}

PINNED = {
    "sop_cc": "fb86b7a3e9104d10e972748006f8264d35ca7b4180cd259e4acbd3cd56d297bb",
    "sop_cv": "317db3bbe875a74047b42a51c889f061627668f7df36bf16c50420718fbd67cf",
    "sop_cccv": "2c4b790c1493f70d095741c8be93669552064b66856bea5646d456943be2a34d",
    "sop_cp": "727decbf8e36ebe562b4271e96dacb14b56a7723f2fd56c61950b3794881f858",
    "brute_peak_current_cc": "1c3e15fb674fa3445bad5e998c0253d2a6c517f230ae172583a6631a2efea07d",
    "brute_peak_power_cp": "9280febbe14aa032ca2318753df12f7e25c225c0d5fb2af65f500e2abadaa7eb",
    "error_lab.sweep": "74a2e5c5ca51568c7ecf786684356508f659a2c7d5f5db747657e2aab4a9d0ad",
}


def digests():
    windows = _windows()
    out = {}
    for name, produce in PRODUCERS.items():
        sha = hashlib.sha256()
        for scenario in windows:
            try:
                answer = repr(produce(*scenario))
            except (AnalyticDomainError, InfeasibleStateError) as exc:  # a refusal is an answer too
                answer = type(exc).__name__
            sha.update(answer.encode() + b"\n")
        out[name] = sha.hexdigest()
    return out


def test_answers_match_pinned_digests():
    got = digests()
    moved = [name for name in PRODUCERS if got[name] != PINNED[name]]
    assert moved == [], f"answers moved: {moved}"


if __name__ == "__main__":
    for name, hexdigest in digests().items():
        print(f'    "{name}": "{hexdigest}",')
