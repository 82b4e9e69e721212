import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import root

from ionmodes import BE9, MG24, MGH25, ChainConfiguration, axial_from_lambdas, \
    energy_gradient, harmonic_axial
from ionmodes.constants import EPSILON_0, HBAR, PLANCK


def pytest_configure(config):
    """Let CLI tests' ``python -m ionmodes.cli`` subprocesses import the
    package from this checkout, as ``pythonpath`` does for pytest itself."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


KAPPA2 = 1.3e7  # V/m^2, the two-layer-trap working point (2.655 MHz for Be+)
LAMBDA3 = -230e-6
LAMBDA4 = 250e-6


@pytest.fixture
def be():
    return BE9


@pytest.fixture
def mg():
    return MG24


@pytest.fixture
def mgh():
    return MGH25


@pytest.fixture
def pot_harmonic():
    return harmonic_axial(KAPPA2)


@pytest.fixture
def pot_cubic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3})


@pytest.fixture
def pot_anharmonic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})


def make_cfg(species, potential, positions) -> ChainConfiguration:
    """Configuration at arbitrary positions (for derivative tests)."""
    pos = np.asarray(positions, dtype=float)
    g = energy_gradient(pos, tuple(species), potential)
    return ChainConfiguration(species=tuple(species), positions=pos,
                              potential=potential,
                              residual_gradient=float(np.max(np.abs(g))))


def richardson_derivative(f, x, h):
    """Richardson-extrapolated central difference of a scalar function."""
    def central(step):
        return (f(x + step) - f(x - step)) / (2 * step)

    return (4 * central(h / 2) - central(h)) / 3


def rel_err(a, b, floor=0.0):
    """Elementwise relative error with a significance floor."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    scale[scale == 0] = 1.0
    return np.abs(a - b) / scale


def chain_oracle(kappa, mass, charge, n):
    """Axial positions (m) and mode frequencies (Hz, descending) of n equal
    ions in V(z) = sum_k kappa[k] z^k, independent of ionmodes' solver.

    Roots the force balance q V'(z_i) = sum_j k sign(z_i - z_j)/(z_i - z_j)^2
    (k = q^2/4 pi eps0) with the analytic 1D Hessian as its Jacobian, then
    diagonalises that Hessian over the mass.
    """
    kc = charge**2 / (4 * math.pi * EPSILON_0)
    unit = (charge / (8 * math.pi * EPSILON_0 * kappa[2])) ** (1 / 3)

    def dv(z, m):
        return sum(math.perm(k, m) * c * z ** (k - m)
                   for k, c in kappa.items() if k >= m)

    def pairs(z, power):
        d = z[:, None] - z[None, :] + np.diag(np.full(len(z), np.inf))
        return np.sign(d) / np.abs(d) ** power

    def hessian(z):
        h = -2 * kc * np.abs(pairs(z, 3))
        return h + np.diag(charge * dv(z, 2) - h.sum(1))

    def force(u):  # positions in units of l, forces in units of k/l^2
        z = u * unit
        return (charge * dv(z, 1) - kc * pairs(z, 2).sum(1)) * unit**2 / kc

    sol = root(force, np.linspace(-1, 1, n) * n ** 0.6,
               jac=lambda u: hessian(u * unit) * unit**3 / kc, tol=1e-14)
    assert np.max(np.abs(sol.fun)) < 1e-12, sol.message
    z = sol.x * unit
    w2 = np.linalg.eigvalsh(hessian(z) / mass)[::-1]
    return z, np.sqrt(w2) / (2 * math.pi)


def shift_oracle(tensors, spectrum, occupations, z):
    """Anharmonic shift (Hz) of the n_Z <-> n_Z + 1 transition, summed term
    by term over modes and mode pairs with no resonance guard.

    The loop form of the library's closed-form kernel: the same first-order
    quartic and second-order cubic expression, evaluated at the given
    occupations, so chi_Za is oracle(n + e_a) - oracle(n).
    """
    g3, g4 = tensors.G3, tensors.G4
    w = spectrum.angular
    d = len(w)
    n = np.asarray(occupations)
    others = [a for a in range(d) if a != z]

    s = 12.0 * ((n[z] + 1) * g4[z, z, z, z]
                + sum(g4[a, a, z, z] * (1 + 2 * n[a]) for a in others))
    t = 0.0
    for a in others:
        t += (2 * n[a] + 1) * (
            2 * w[a] * g3[a, a, z] ** 2 / (4 * w[a] ** 2 - w[z] ** 2)
            + 2 * w[z] * g3[z, z, a] ** 2 / (4 * w[z] ** 2 - w[a] ** 2)
            + g3[z, z, z] * g3[a, a, z] / w[z]
            + g3[a, z, z] * g3[a, a, a] / w[a])
    s -= 36.0 / HBAR * t
    u = 10.0 * g3[z, z, z] ** 2 / w[z]
    u -= 6.0 * sum(g3[z, z, a] ** 2 * w[a] / (4 * w[z] ** 2 - w[a] ** 2)
                   for a in others)
    u += 12.0 * sum(g3[a, z, z] ** 2 / w[a] for a in others)
    s -= 6.0 / HBAR * (n[z] + 1) * u
    v = 0.0
    for a in others:
        for b in others:
            if b == a:
                continue
            v += g3[a, b, z] ** 2 * (
                (n[a] - n[b]) * (w[b] - w[a]) / ((w[b] - w[a]) ** 2 - w[z] ** 2)
                + (n[a] + n[b] + 1) * (w[b] + w[a]) / ((w[b] + w[a]) ** 2 - w[z] ** 2))
    s -= 72.0 / HBAR * v
    x = 0.0
    for a in others:
        inner = sum(g3[a, b, b] * (2 * n[b] + 1) for b in others if b != a)
        x += g3[a, z, z] / w[a] * inner
    s -= 36.0 / HBAR * x
    return s / PLANCK


def oracle_chi(tensors, spectrum):
    """Zero-occupation shifts and chi from unit-occupation differences of
    :func:`shift_oracle`."""
    d = len(spectrum.angular)
    zero = np.zeros(d, dtype=int)
    base = np.array([shift_oracle(tensors, spectrum, zero, z) for z in range(d)])
    chi = np.array([[shift_oracle(tensors, spectrum, np.eye(d, dtype=int)[a], z)
                     for a in range(d)] for z in range(d)]) - base[:, None]
    return base, chi
