"""Thermal occupations, motional coherence, and geometric-phase-gate models.

The coherence of a Fock superposition (|0> + |n_Z>)/sqrt(2) dephases through
the per-quantum cross couplings chi_Za to thermally occupied spectator
modes; because the couplings are coherent the signal revives at multiples of
1/chi.  The gate model is a state-dependent displacement with detuning
delta: ideal operation closes the phase-space loop (alpha = 0) with
geometric phase |Phi| = pi/2, and thermal occupation of cross-coupled modes
spreads the effective detuning, reducing fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .anharmonic import ChiMatrix
from .constants import BOLTZMANN, PLANCK


@dataclass(frozen=True)
class ThermalEnvironment:
    """Spectator-mode occupations: a Doppler temperature or explicit nbars."""

    temperature: float | None = None   # K
    nbar: tuple | None = None          # per mode, descending-frequency order

    def __post_init__(self):
        if (self.temperature is None) == (self.nbar is None):
            raise ValueError("specify exactly one of temperature or nbar")
        if self.temperature is not None:
            if not self.temperature > 0:
                raise ValueError("temperature must be positive")
            if not math.isfinite(self.temperature):
                raise ValueError("temperature must be finite")
        if self.nbar is not None:
            nb = tuple(float(v) for v in self.nbar)
            if not all(v >= 0 for v in nb):
                raise ValueError("nbar entries must be non-negative")
            if not all(map(math.isfinite, nb)):
                raise ValueError("nbar entries must be finite")
            object.__setattr__(self, "nbar", nb)

    def occupations(self, frequencies_hz: np.ndarray) -> np.ndarray:
        if self.nbar is not None:
            if len(self.nbar) != len(frequencies_hz):
                raise ValueError("nbar length must match the number of modes")
            return np.array(self.nbar)
        return np.array([thermal_occupation(f, self.temperature)
                         for f in frequencies_hz])


@dataclass(frozen=True)
class FockSuperposition:
    """The motional superposition (|0_Z> + |n_Z>)/sqrt(2)."""

    mode: int
    n_upper: int = 1

    def __post_init__(self):
        if not isinstance(self.mode, Integral) or isinstance(self.mode, bool):
            raise ValueError(f"mode must be an integer, got {self.mode!r}")
        if self.mode < 0:
            raise ValueError("mode must be >= 0")
        if not isinstance(self.n_upper, Integral):
            raise ValueError(f"n_upper must be an integer, got {self.n_upper!r}")
        if self.n_upper < 1:
            raise ValueError("n_upper must be >= 1")


def thermal_occupation(f_hz: float, temperature: float) -> float:
    """Bose-Einstein occupation nbar = 1/(exp(h f / k_B T) - 1)."""
    if not (f_hz > 0 and temperature > 0):
        raise ValueError("frequency and temperature must be positive")
    return 1.0 / math.expm1(PLANCK * f_hz / (BOLTZMANN * temperature))


def fock_coherence(chi: ChiMatrix, sup: FockSuperposition,
                   env: ThermalEnvironment, t):
    """Coherence C(t) of (|0_Z> + |n_Z>)/sqrt(2) with thermal spectators.

    C(t) = prod_{a != Z} (1 - e^(-x_a)) / |1 - e^(-x_a - i 2 pi chi_Za n_Z t)|
    with x_a = h f_a / k_B T; t may be an array.
    """
    z = sup.mode
    d = chi.n_modes
    if not 0 <= z < d:
        raise IndexError(f"mode index {z} out of range")
    t = np.asarray(t, dtype=float)
    nbar = env.occupations(chi.mode_frequencies)
    spectator = np.arange(d) != z
    # e^(-x_a) in terms of the occupation, one row per spectator mode
    exp_mx = (nbar / (1.0 + nbar))[spectator].reshape((-1,) + (1,) * t.ndim)
    theta = 2 * np.pi * chi.chi[z, spectator].reshape(exp_mx.shape) \
        * sup.n_upper * t
    c = np.prod((1.0 - exp_mx) / np.abs(1.0 - exp_mx * np.exp(-1j * theta)),
                axis=0, initial=1.0)
    return c if c.shape else float(c)


def thermal_gate_infidelity(chi: ChiMatrix, z: int, delta: float,
                            env: ThermalEnvironment) -> float:
    """Gate infidelity from thermally occupied cross-coupled modes.

    1 - F = (3 pi^4 / delta^2) [ sum_{a != b} chi_Za chi_Zb nbar_a nbar_b
            + sum_a chi_Za^2 nbar_a (2 nbar_a + 1) ],
    with chi in Hz and delta in rad/s; the sums run over all modes
    including the gate mode itself (it is Doppler-cooled like the rest).
    This is the thermal average of the ideal loop's 1 - F ~ (3 pi^2 / 4)
    (eps/delta)^2 for a detuning error eps = 2 pi sum_a chi_Za n_a.
    """
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if not math.isfinite(delta):
        raise ValueError("detuning must be finite")
    if not 0 <= z < chi.n_modes:
        raise IndexError(f"mode index {z} out of range")
    nbar = env.occupations(chi.mode_frequencies)
    row = chi.chi[z, :]
    lin = float(row @ nbar)
    sq = float((row**2) @ (nbar**2))
    cross = lin**2 - sq
    diag = float((row**2) @ (nbar * (2 * nbar + 1)))
    return 3 * math.pi**4 / delta**2 * (cross + diag)


def _flop_populations(eta1, eta2, initial, omega0, t):
    """Exact joint populations of the two-spin/shared-mode blue sideband.

    Returns (pops, a_oper, a_steady): ``pops[k, b]`` is the population of
    basis state b = (s1, s2, n), stored at (2 s1 + s2) * nmax + n, at time
    t[k]; ``a_oper`` maps populations to the fluorescence observable;
    ``a_steady`` is its diagonal-ensemble (infinite-time average) value.

    The sideband conserves n - s1 - s2, so each thermal component |00, n0>
    evolves only inside the block {|00,n0>, |10,n0+1>, |01,n0+1>, |11,n0+2>}.
    All blocks are diagonalized in one batched 4x4 eigh.  ``a_steady``
    projects onto each distinct eigenvalue of a block, so a degenerate pair
    (the double zero at eta1 = eta2) keeps its time-independent coherence.
    """
    if not (eta1 >= 0 and eta2 >= 0):
        raise ValueError("Lamb-Dicke parameters must be non-negative")
    if isinstance(initial, (int, np.integer)):
        n0, w = np.array([int(initial)]), np.ones(1)
    else:
        nb = float(initial)
        if not nb >= 0:
            raise ValueError("thermal nbar must be non-negative")
        # keep every n below the point where the thermal tail mass
        # sum_{n >= N} w_n = q^N falls under 1e-12
        q = nb / (1 + nb)
        n0 = np.arange(math.ceil(math.log(1e-12) / math.log(q)) if q else 1)
        w = q ** n0 / (1 + nb)

    # block states |00,n0>, |10,n0+1>, |01,n0+1>, |11,n0+2>
    g_lo = omega0 * np.sqrt(n0 + 1) / 2.0
    g_hi = omega0 * np.sqrt(n0 + 2) / 2.0
    h = np.zeros((len(n0), 4, 4))
    for (i, j), g in (((0, 1), eta1 * g_lo), ((0, 2), eta2 * g_lo),
                      ((2, 3), eta1 * g_hi), ((1, 3), eta2 * g_hi)):
        h[:, i, j] = h[:, j, i] = g
    evals, evecs = np.linalg.eigh(h)
    m = evecs * evecs[:, :1, :]      # m[k, b, j] = <b|j><j|psi0>, real basis
    amps = np.einsum("tkj,kbj->tkb", np.exp(-1j * t[:, None, None] * evals), m)

    nmax = int(n0.max()) + 3
    spins = np.array([0, 2, 1, 3])   # 2 s1 + s2 of each block state
    flat = spins * nmax + n0[:, None] + np.array([0, 1, 1, 2])
    pops = np.zeros((len(t), 4 * nmax))
    pops[:, flat] = w[:, None] * np.abs(amps) ** 2
    a_oper = np.repeat([0.0, 0.5, 0.5, 1.0], nmax)

    # eigenvalues within a few ulps of the block norm are one eigenvalue
    tol = 16 * np.finfo(float).eps * np.abs(evals).max(axis=1)
    same = np.abs(evals[:, :, None] - evals[:, None, :]) <= tol[:, None, None]
    a_steady = float(np.einsum("k,b,kij,kbi,kbj->", w, a_oper[flat[0]], same,
                               m, m))
    return pops, a_oper, a_steady


def sideband_flop(eta1: float, eta2: float, initial, omega0: float,
                  decay_time: float | None, t_grid) -> np.ndarray:
    """Blue-sideband flopping of two ions sharing one motional mode.

    Each ion couples |down, n> <-> |up, n+1> at Rabi rate
    omega0 * eta_j * sqrt(n+1).  ``initial`` is an integer Fock state or a
    thermal mean occupation (float).  Returns the fluorescence observable
    A(t) = P(up,up) + [P(up,down) + P(down,up)]/2 on the time grid, with the
    oscillatory part damped toward the steady (diagonal-ensemble) mixture on
    the phenomenological timescale ``decay_time``.
    """
    t = np.asarray(t_grid, dtype=float)
    pops, a_oper, a_steady = _flop_populations(eta1, eta2, initial, omega0, t)
    a_t = pops @ a_oper
    if decay_time is not None and math.isfinite(decay_time):
        if decay_time <= 0:
            raise ValueError("decay_time must be positive")
        a_t = a_steady + (a_t - a_steady) * np.exp(-t / decay_time)
    return a_t
