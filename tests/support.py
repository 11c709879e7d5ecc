"""Helpers shared by the engine tests: a fixed NMC-like OCV table, a
hypothesis strategy for random monotone ones, and a spy on the OCV slope
``sop_cc`` settles on."""

import math

import pytest
from hypothesis import strategies as st

import soplab.peak_cc as peak_cc
from soplab import OcvCurve

# 12-knot NMC-like table: a steep knee below 10% SOC on a convex rise, 3.0-4.2 V.
NMC_CURVE = OcvCurve(
    tuple(
        (s, 3.0 + 1.2 * (0.35 * (1.0 - math.exp(-s / 0.04)) + 0.65 * s**1.3))
        for s in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    )
)


@st.composite
def monotone_ocv(draw):
    """A random non-decreasing OCV table of 2-12 knots spanning SOC [0, 1]."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    v0 = draw(st.floats(3.0, 3.4))
    span = draw(st.floats(0.2, 0.9))
    socs, volts = [0.0], [0.0]
    for gap, rise in zip(gaps, rises):
        socs.append(socs[-1] + gap)
        volts.append(volts[-1] + rise)
    total_rise = volts[-1] or 1.0
    return OcvCurve(
        tuple((s / socs[-1], v0 + span * v / total_rise) for s, v in zip(socs, volts))
    )


def second_pass_slope(run):
    """Run ``run()`` and return its result with the last OCV slope sop_cc
    asked for: the second-pass slope its reported figures use."""
    slopes = []
    lookup = peak_cc.ecm.ocv_slope

    def recording(curve, soc_a, soc_b):
        slopes.append(lookup(curve, soc_a, soc_b))
        return slopes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peak_cc.ecm, "ocv_slope", recording)
        result = run()
    assert len(slopes) == 2
    return result, slopes[-1]
