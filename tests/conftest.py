import itertools
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


def window_matrix(sigma, masses, extra=None):
    """Window-chain matrix built by enumerating windows (s_0 most recent, ..., s_d).

    From window w the chain moves to (t, s_0, ..., s_{d-1}) with weight
    sum_i masses[i] sigma[s_i, t], plus extra[t] when given.
    """
    sigma = np.asarray(sigma, dtype=float)
    m, d = sigma.shape[0], len(masses) - 1
    windows = list(itertools.product(range(m), repeat=d + 1))
    index = {w: k for k, w in enumerate(windows)}
    mat = np.zeros((len(windows), len(windows)))
    for w in windows:
        for t in range(m):
            weight = sum(masses[i] * sigma[w[i], t] for i in range(d + 1))
            if extra is not None:
                weight += extra[t]
            mat[index[w], index[(t,) + w[:-1]]] += weight
    return mat


def largest_eigenvalue(mat):
    """Largest-modulus eigenvalue of a dense matrix from numpy.linalg.eigvals."""
    vals = np.linalg.eigvals(mat)
    return float(vals[np.argmax(np.abs(vals))].real)
