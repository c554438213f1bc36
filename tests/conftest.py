import math

import numpy as np
import pytest

import relochain as rc

# Closed-form spectral data for the two-state benchmark [[0.72, 0.08], [0.18, 0.58]]:
# characteristic polynomial x^2 - 1.30 x + 0.4032, discriminant 0.0772.
R_CLOSED = (1.30 + math.sqrt(1.30**2 - 4 * (0.72 * 0.58 - 0.08 * 0.18))) / 2.0


def closed_form_triple():
    rho_ratio = (R_CLOSED - 0.72) / 0.18
    h_ratio = (R_CLOSED - 0.72) / 0.08
    rho = np.array([1.0, rho_ratio])
    rho /= rho.sum()
    h = np.array([1.0, h_ratio])
    h /= rho @ h
    return R_CLOSED, rho, h


@pytest.fixture(scope="session")
def sigma_fig():
    return rc.benchmark_matrix()


@pytest.fixture(scope="session")
def triple_closed():
    return closed_form_triple()


def cycle_matrix_200():
    """m = 200 cycle with a jump 0 -> 150 and a heavily killing row 150.

    States above 127 do not fit a signed byte, so a sampler that stores
    states in one reads a wrong row here.
    """
    m = 200
    sigma = np.zeros((m, m))
    for s in range(m):
        sigma[s, s] = 0.05
        sigma[s, (s + 1) % m] = 0.9
    sigma[0, 1], sigma[0, 150] = 0.04, 0.86
    sigma[150, 151] = 0.05
    return sigma
