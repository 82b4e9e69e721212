import os
from pathlib import Path

import numpy as np
import pytest

from ionmodes import BE9, MG24, MGH25, ChainConfiguration, axial_from_lambdas, \
    energy_gradient, harmonic_axial


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
