"""Independent references the tests compare the package against.

Each is the plain textbook formula, with no input checks; tests/test_numerics.py
pins them on known values.
"""

import numpy as np


def von_neumann_entropy(rho):
    # in nats: one eigvalsh and no input checks; rounding noise at or below 0
    # counts as 0
    evs = np.linalg.eigvalsh(rho)
    evs = evs[evs > 0.0]
    return float(-(evs * np.log(evs)).sum())


def majorizes(a, b):
    # each partial sum of a, sorted non-increasingly, is at least b's, within 1e-9
    return bool(np.all(np.cumsum(np.sort(a)[::-1]) >= np.cumsum(np.sort(b)[::-1]) - 1e-9))
