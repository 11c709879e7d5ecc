"""Pinned answer digests: every engine, both oracles, the constant-current
window terms and the error calculus on a seeded set of windows, each
producer's answers hashed into one SHA-256.

An answer is rendered with ``repr`` (a float's shortest round-trip form, so
a one-ulp move shows) or, when the producer refuses the window, as the
exception's class name. A change that moves answers on purpose re-pins the digests it moved
and says which; print the current ones with

    PYTHONPATH=src python tests/test_answer_digest.py
"""

import hashlib

from answer_shift import WINDOW_PRODUCERS as PRODUCERS, seeded_windows
from soplab import AnalyticDomainError, InfeasibleStateError

PINNED = {
    "sop_cc": "fb86b7a3e9104d10e972748006f8264d35ca7b4180cd259e4acbd3cd56d297bb",
    "sop_cv": "35fe5e34c9b4d2c462a4eb6c81816ec80a3d0834aaff2be013881e971e1dd6d2",
    "sop_cccv": "e42e0b37dd701b035a3648296c51f962e9decf78758cf2ff0667f8f37ee05650",
    "sop_cp": "a68b4f80a973ae884cf318a96c942363c213fd6937721959dc2567b9e463d1e9",
    "brute_peak_current_cc": "46590989b804656140ab8dc74687f989a3569aaad2e0b34194e61216262c68d3",
    "brute_peak_power_cp": "db2497940f469b2546663b12d340bbf646ab7a8647ad5f1a906598bea67b93ae",
    "peak_cc.window_terms": "723934f62b925cfaed9ccfda5992a545df044b40f0807b232619ad1287a7c998",
    "error_lab.sweep": "74a2e5c5ca51568c7ecf786684356508f659a2c7d5f5db747657e2aab4a9d0ad",
}


def digests():
    windows = seeded_windows(240, 7, (1, 2, 10, 30))
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
