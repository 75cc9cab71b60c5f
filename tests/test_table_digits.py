"""The printed table and phase boundaries as certified digits.

``constants.FULL_DEGREE_FRACTION`` prints each f_r rounded down to four
decimals, because it is a lower bound (the greedy makes f_r n + o(n)
vertices full; Wormald, Ann. Appl. Probab. 5, 1995), and
``constants.PHASE_BOUNDARIES`` prints the phase boundaries rounded to
nearest. A computed value certifies its printed digits when it stays K
error bars away from the edges of the digit's interval. A value's error bar
is the larger of its changes when the step is halved to 5e-4 and when
``event_tol`` is tightened to 1e-12, and at least ERR_FLOOR; both are fixed
here, before any value is looked at. ``TABLE_TOLERANCE`` and
``PHASE_VALUE_TOLERANCE`` are ten times looser than the printed digits, and
these tests replace neither.
"""
import pytest

from fdst.constants import FULL_DEGREE_FRACTION, PHASE_BOUNDARIES
from fdst.ode import columns, integrate_two_phase

K = 100  # error bars of room that a certified digit needs
ERR_FLOOR = 1e-12  # runs that agree by chance certify nothing finer
DIGIT = 1e-4  # the last printed place


def values(res):
    """f_r, rho1, rho2 and the phase-1 end state of ``res``, by name."""
    return {"f_r": res.f_r, "rho1": res.rho1, "rho2": res.rho2,
            **dict(zip(columns(res.r)[1:-1], res.phase1.end_state.tolist()))}


@pytest.fixture(scope="module")
def computed():
    """{r: (values at the default step and event_tol, their error bars)}."""
    out = {}
    for r in FULL_DEGREE_FRACTION:
        base, *checks = (values(integrate_two_phase(r, **kw))
                         for kw in ({}, {"step_size": 5e-4}, {"event_tol": 1e-12}))
        out[r] = base, {name: max(ERR_FLOOR, *(abs(c[name] - v) for c in checks))
                        for name, v in base.items()}
    return out


@pytest.mark.parametrize("r", sorted(FULL_DEGREE_FRACTION))
def test_printed_f_r_is_the_computed_one_rounded_down(computed, r):
    base, err = computed[r]
    printed, margin = FULL_DEGREE_FRACTION[r], K * err["f_r"]
    assert printed + margin <= base["f_r"] < printed + DIGIT - margin


@pytest.mark.parametrize("r", sorted(PHASE_BOUNDARIES))
def test_printed_phase_boundaries_are_the_computed_ones_rounded(computed, r):
    base, err = computed[r]
    for name, printed in PHASE_BOUNDARIES[r].items():
        assert abs(base[name] - printed) <= DIGIT / 2 - K * err[name], name
