"""Reference constants that the integrator and simulations are checked against.

FULL_DEGREE_FRACTION[r] is the asymptotic fraction f_r of full-degree
vertices the greedy algorithm certifies on a random r-regular graph
(z_F at the end of phase 2, to four decimals). The deterministic upper
bound on the full-degree fraction of any connected r-regular graph is
1/(r-1).

PHASE_BOUNDARIES holds the phase-1 end time rho1, the phase-2 end time
rho2, and the state coordinates at the phase-1 boundary for r = 3 and 4
(same four-decimal precision); entries are keyed by coordinate name.
"""

FULL_DEGREE_FRACTION = {
    3: 0.4591,
    4: 0.2699,
    5: 0.1811,
    6: 0.1315,
    7: 0.1006,
    8: 0.0799,
    9: 0.0652,
    10: 0.0545,
}


PHASE_BOUNDARIES = {
    3: {
        "rho1": 0.6485,
        "rho2": 0.6922,
        "z1": 0.0193,
        "z2": 0.0536,
        "z3": 0.0498,
        "zL": 0.0,
        "zF": 0.4375,
        "zM": 0.4060,
    },
    4: {
        "rho1": 0.4707,
        "rho2": 0.5397,
        "z1": 0.0119,
        "z2": 0.0548,
        "z3": 0.1124,
        "z4": 0.0864,
        "zL": 0.0,
        "zF": 0.2445,
        "zM": 1.1757,
    },
}

TABLE_TOLERANCE = 1e-3
PHASE_VALUE_TOLERANCE = 5e-4
