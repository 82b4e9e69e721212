"""Closed-form two-ion equilibria, frequencies, and eigenvectors.

These perturbative results (small l/lambda_n) serve as independent oracles
for the numeric pipeline: equilibria to second order, frequencies to the
stated order, eigenvectors to first order.  Radical coefficients are kept in
exact form.  Eigenvector components are listed in ion order (ion 1 at lower
axial coordinate); the high-frequency mode has the ions out of phase.

Validity: corrections are asymptotic in l/lambda_n; outside the regime
(|l/lambda_3| < 0.2, (l/lambda_4)^2 < 0.05) a RuntimeWarning is issued.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .species import IonSpecies
from .statics import characteristic_length

CUBIC_REGIME = 0.2     # |l/lambda_3|
QUARTIC_REGIME = 0.05  # (l/lambda_4)^2

_C_Z1 = 3 / 2 ** (5 / 3)    # first-order equilibrium / eigenvector coefficient
_C_Z2 = 3 / 2 ** (7 / 3)    # second-order equilibrium coefficient
_C_WC = 9 / 2 ** (7 / 3)    # in-phase cubic frequency coefficient
_C_WS = 3 / 2 ** (7 / 3)    # out-of-phase cubic frequency coefficient
_C_Q_Z2 = 1 / (3 * 2 ** (1 / 3))
_C_Q_Z4 = 2 ** (4 / 3) / 9
_C_U3 = 3 / 2 ** (8 / 3)    # unequal-mass cubic frequency coefficient
_C_U4 = 1 / (3 * 2 ** (4 / 3))
_C_V4 = 1 / 2 ** (1 / 3)    # unequal-mass quartic eigenvector coefficient


@dataclass(frozen=True, eq=False)
class TwoIonAnalytics:
    """Closed-form two-ion equilibrium and normal-mode data."""

    z_plus: float            # m, ion at higher axial coordinate
    z_minus: float           # m
    omega_high: float        # rad/s, out-of-phase mode
    omega_low: float         # rad/s, in-phase mode
    eigvec_high: np.ndarray  # (2,), ion order, normalized
    eigvec_low: np.ndarray
    order_tag: str           # label of the species at lower z

    def __post_init__(self):
        for name in ("eigvec_high", "eigvec_low"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v / np.linalg.norm(v))


def _warn_regime(label: str, value: float, limit: float):
    if abs(value) >= limit:
        # attribute the warning to the first caller outside this module
        level = 2
        while sys._getframe(level).f_globals is globals():
            level += 1
        warnings.warn(
            f"{label} = {value:.3g} outside the perturbative regime (< {limit})",
            RuntimeWarning, stacklevel=level + 1)


def cubic_equal(kappa2: float, lambda3: float, species: IonSpecies) -> TwoIonAnalytics:
    """Two equal ions with a cubic perturbation V = kappa2 z^2 (1 + z/lambda3)."""
    l = characteristic_length(species, kappa2)
    x = l / lambda3
    _warn_regime("l/lambda3", x, CUBIC_REGIME)
    half = l / 2 ** (2 / 3)
    z_plus = half * (1 - _C_Z1 * x + _C_Z2 * x**2)
    z_minus = -half * (1 + _C_Z1 * x + _C_Z2 * x**2)
    w0 = math.sqrt(2 * species.charge_si * kappa2 / species.mass)
    omega_low = w0 * (1 - _C_WC * x**2)
    omega_high = w0 * math.sqrt(3.0) * (1 - _C_WS * x**2)
    # First-order eigenvector corrections: the ion on the softer side of the
    # cubic term acquires the larger amplitude.
    vec_low = [1 + _C_Z1 * x, 1 - _C_Z1 * x]
    vec_high = [1 - _C_Z1 * x, -(1 + _C_Z1 * x)]
    return TwoIonAnalytics(z_plus=z_plus, z_minus=z_minus,
                           omega_high=omega_high, omega_low=omega_low,
                           eigvec_high=vec_high, eigvec_low=vec_low,
                           order_tag=species.label)


def quartic_equal(kappa2: float, lambda4: float, species: IonSpecies) -> TwoIonAnalytics:
    """Two equal ions with a quartic perturbation V = kappa2 z^2 (1 + (z/lambda4)^2).

    The mu = 1 case of ``quartic_unequal``: the centre of the pair stays at
    z = 0 and the modes remain exactly the centre-of-mass and stretch
    combinations.
    """
    return quartic_unequal(kappa2, lambda4, species, species)


def _mu_terms(species1: IonSpecies, species2: IonSpecies):
    mu = species1.mass / species2.mass
    s = math.sqrt(mu * mu - mu + 1)
    r_plus = (+(mu - 1) + s) / math.sqrt(mu)
    r_minus = (-(mu - 1) + s) / math.sqrt(mu)
    return mu, s, r_plus, r_minus


def _harmonic_unequal(kappa2, species1, mu, s):
    w1 = math.sqrt(2 * species1.charge_si * kappa2 / species1.mass)
    w_plus = w1 * math.sqrt(1 + mu + s)
    w_minus = w1 * math.sqrt(1 + mu - s)
    return w_plus, w_minus


def cubic_unequal(kappa2: float, lambda3: float, species1: IonSpecies,
                  species2: IonSpecies) -> TwoIonAnalytics:
    """Unequal-mass pair, cubic perturbation; ion 1 sits at lower z.

    The first-order frequency shift is odd in l/lambda3 and therefore
    depends on the ion order; swapping the species flips its sign.
    """
    l = characteristic_length(species1, kappa2)
    x = l / lambda3
    _warn_regime("l/lambda3", x, CUBIC_REGIME)
    mu, s, r_plus, r_minus = _mu_terms(species1, species2)
    w_plus0, w_minus0 = _harmonic_unequal(kappa2, species1, mu, s)
    shift = _C_U3 * (1 - mu) / s * x
    omega_high = w_plus0 * (1 - shift)
    omega_low = w_minus0 * (1 + shift)
    half = l / 2 ** (2 / 3)
    z_plus = half * (1 - _C_Z1 * x + _C_Z2 * x**2)
    z_minus = -half * (1 + _C_Z1 * x + _C_Z2 * x**2)
    k = _C_Z1 * (1 + mu) / s
    vec_high = [1 - k * r_plus**2 / (1 + r_plus**2) * x,
                r_plus * (-1 - k / (1 + r_plus**2) * x)]
    vec_low = [1 + k * r_minus**2 / (1 + r_minus**2) * x,
               r_minus * (1 - k / (1 + r_minus**2) * x)]
    return TwoIonAnalytics(z_plus=z_plus, z_minus=z_minus,
                           omega_high=omega_high, omega_low=omega_low,
                           eigvec_high=vec_high, eigvec_low=vec_low,
                           order_tag=species1.label)


def quartic_unequal(kappa2: float, lambda4: float, species1: IonSpecies,
                    species2: IonSpecies) -> TwoIonAnalytics:
    """Unequal-mass pair, quartic perturbation; frequencies are order-independent."""
    l = characteristic_length(species1, kappa2)
    y2 = (l / lambda4) ** 2
    _warn_regime("(l/lambda4)^2", y2, QUARTIC_REGIME)
    mu, s, r_plus, r_minus = _mu_terms(species1, species2)
    w_plus0, w_minus0 = _harmonic_unequal(kappa2, species1, mu, s)
    omega_high = w_plus0 * (1 + _C_U4 * (-(1 + mu) + 7 * s) / s * y2)
    omega_low = w_minus0 * (1 + _C_U4 * (+(1 + mu) + 7 * s) / s * y2)
    half = l / 2 ** (2 / 3) * (1 - _C_Q_Z2 * y2 + _C_Q_Z4 * y2**2)
    q = _C_V4 * (1 - mu) / s
    vec_high = [1 + q * r_plus**2 / (1 + r_plus**2) * y2,
                r_plus * (-1 - q / (1 + r_plus**2) * y2)]
    vec_low = [1 - q * r_minus**2 / (1 + r_minus**2) * y2,
               r_minus * (1 - q / (1 + r_minus**2) * y2)]
    return TwoIonAnalytics(z_plus=half, z_minus=-half,
                           omega_high=omega_high, omega_low=omega_low,
                           eigvec_high=vec_high, eigvec_low=vec_low,
                           order_tag=species1.label)
