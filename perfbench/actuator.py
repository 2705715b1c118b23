"""The benchmark actuator: default geometry and the generating parameters.

Kept apart from `reference.py` so that the worker can use these numbers
without importing scipy.integrate, which bendsim itself does not load.
"""

GEOMETRY = {"r1_m": 0.014, "r2_m": 0.010, "wall_m": 0.004,
            "total_length_m": 0.17, "total_mass_kg": 0.069}
K_B = 1.6067
DAMPING = 0.008
