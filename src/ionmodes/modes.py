"""Normal modes of a chain at equilibrium.

The mass-weighted Hessian H'_ij = (1/sqrt(m_i m_j)) d2U/dz_i dz_j has
eigenvalues omega_alpha^2 and orthonormal eigenvectors e'_i^alpha.  Modes are
indexed in descending frequency (index 0 = highest) to match the ordering
used for the cross-coupling matrices.  Within each eigenvector the component
of the lowest-index coordinate is made non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.linalg import eigh

from .constants import HBAR
from .statics import ChainConfiguration, _Energy, _instability

EQUILIBRIUM_SLACK = 1e3  # tolerated residual, in units of the solver residual


class NotAtEquilibriumError(ValueError):
    pass


def _is_integer(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _index(k, d: int, name: str) -> int:
    """k as an index into d modes or coordinates: a non-bool integer in [0, d)."""
    if not _is_integer(k):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if not 0 <= k < d:
        raise IndexError(f"{name} = {k} out of range [0, {d})")
    return int(k)


def _at_equilibrium(cfg: ChainConfiguration, *orders) -> tuple:
    """(energy, [d^m U for m in orders]): the chain's ``_Energy`` and its
    derivatives of the given orders at a checked equilibrium.

    A configuration from ``solve_equilibrium`` carries the solver's
    ``_Energy`` and the Hessian at its positions: order 2 is read off it,
    any other order is evaluated by that ``_Energy``, and the equilibrium
    the solver reached is not checked again.  Any other configuration gets a
    new ``_Energy``, and its gradient must lie within EQUILIBRIUM_SLACK of
    its ``residual_gradient``.
    """
    energy = cfg._energy
    if energy is None:
        energy = _Energy(cfg.species, cfg.potential)
        g, *out = energy(cfg.positions, 1, *orders)
        bound = max(cfg.residual_gradient * EQUILIBRIUM_SLACK, 1e-30)
        if np.max(np.abs(g)) > bound:
            raise NotAtEquilibriumError(
                "configuration is not at equilibrium "
                f"(max |grad| = {np.max(np.abs(g)):.3e} J/m)")
        return energy, out
    rest = [m for m in orders if m != 2]
    new = iter(energy(cfg.positions, *rest) if rest else ())
    return energy, [cfg._hessian if m == 2 else next(new) for m in orders]


def hessian(cfg: ChainConfiguration) -> np.ndarray:
    """Mass-weighted Hessian (s^-2) at the solved equilibrium."""
    _, (h,) = _at_equilibrium(cfg, 2)
    m = cfg.coordinate_masses
    return h / np.sqrt(np.outer(m, m))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column whose first entry with |v| >= 1e-12 is negative."""
    first = np.argmax(np.abs(vecs) >= 1e-12, axis=0)
    lead = vecs[first, np.arange(vecs.shape[1])]
    return np.where(lead <= -1e-12, -vecs, vecs)


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Normal-mode frequencies, eigenvectors, and ground-state lengths.

    ``eigenvectors[:, k]`` is the mass-weighted eigenvector of mode ``k``;
    frequencies are sorted descending.  ``sigma_ion[i, k]`` is the signed
    ground-state extent e'_{ik} sigma'_k / sqrt(m_i) of coordinate ``i`` in
    mode ``k``, with sigma'_k = sqrt(hbar / 2 omega_k).
    """

    frequencies: np.ndarray       # Hz, descending
    eigenvectors: np.ndarray      # (D, D), columns are modes
    sigma_ion: np.ndarray         # m, (D, D)
    config: ChainConfiguration

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    @property
    def angular(self) -> np.ndarray:
        return 2 * np.pi * self.frequencies


def mode_spectrum(cfg: ChainConfiguration) -> ModeSpectrum:
    """Diagonalize the mass-weighted Hessian into a ModeSpectrum; one that
    is not positive definite raises ``statics._instability``'s verdict."""
    hw = hessian(cfg)
    w2, vecs = eigh(hw)
    if w2[0] <= 0:
        _, (h,) = _at_equilibrium(cfg, 2)
        raise _instability(h, cfg.is_3d)
    order = np.argsort(w2)[::-1]
    w2 = w2[order]
    vecs = _fix_signs(vecs[:, order])
    omega = np.sqrt(w2)
    sigma_prime = np.sqrt(HBAR / (2 * omega))
    m = cfg.coordinate_masses
    sigma_ion = vecs * sigma_prime[None, :] / np.sqrt(m)[:, None]
    return ModeSpectrum(frequencies=omega / (2 * np.pi), eigenvectors=vecs,
                        sigma_ion=sigma_ion, config=cfg)


def ground_state_size(spectrum: ModeSpectrum, ion: int, mode: int) -> float:
    """Signed ground-state rms extent of one coordinate in one mode (m)."""
    d = spectrum.n_modes
    return float(spectrum.sigma_ion[_index(ion, d, "ion"),
                                    _index(mode, d, "mode")])


def lamb_dicke(spectrum: ModeSpectrum, delta_k: float, ion: int, mode: int) -> float:
    """Lamb-Dicke parameter eta = delta_k * |sigma_i| for an ion-mode pair."""
    if not 0 < delta_k < np.inf:
        raise ValueError("delta_k must be positive and finite")
    return delta_k * abs(ground_state_size(spectrum, ion, mode))


def amplitude_ratio(spectrum: ModeSpectrum, mode: int, ion_a: int, ion_b: int) -> float:
    """|e'_{a,mode} / e'_{b,mode}| of mass-weighted eigenvector components."""
    d = spectrum.n_modes
    mode, ion_a, ion_b = (_index(mode, d, "mode"), _index(ion_a, d, "ion_a"),
                          _index(ion_b, d, "ion_b"))
    denom = spectrum.eigenvectors[ion_b, mode]
    if abs(denom) < 1e-9:
        raise ZeroDivisionError(
            f"eigenvector component of ion {ion_b} in mode {mode} is (near-)zero")
    return abs(spectrum.eigenvectors[ion_a, mode] / denom)


def carrier_matrix_element(eta: float, n: int) -> float:
    """Carrier Rabi-rate factor <n|exp(i eta (a + a^dag))|n>.

    Equals exp(-eta^2/2) L_n(eta^2); the flopping rate of a carrier
    transition on an ion in Fock state n is reduced by this factor.  L_n is
    evaluated by its three-term recurrence
    (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}.
    """
    if not 0 <= eta < np.inf:
        raise ValueError("eta must be non-negative and finite")
    if not _is_integer(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    x = eta * eta
    previous, laguerre = 0.0, 1.0  # L_-1, L_0
    for k in range(int(n)):
        previous, laguerre = laguerre, \
            ((2 * k + 1 - x) * laguerre - k * previous) / (k + 1)
    return float(np.exp(-x / 2) * laguerre)

