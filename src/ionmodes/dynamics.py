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

import numpy as np

from .anharmonic import ChiMatrix
from .constants import BOLTZMANN, PLANCK
from .modes import _index, _is_integer


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
        if not _is_integer(self.mode):
            raise ValueError(f"mode must be an integer, got {self.mode!r}")
        if self.mode < 0:
            raise ValueError("mode must be >= 0")
        if not _is_integer(self.n_upper):
            raise ValueError(f"n_upper must be an integer, got {self.n_upper!r}")
        if self.n_upper < 1:
            raise ValueError("n_upper must be >= 1")


def thermal_occupation(f_hz: float, temperature: float) -> float:
    """Bose-Einstein occupation nbar = 1/(exp(h f / k_B T) - 1), which is
    exp(-h f / k_B T) where the exponential overflows."""
    if not (f_hz > 0 and temperature > 0):
        raise ValueError("frequency and temperature must be positive")
    x = PLANCK * f_hz / (BOLTZMANN * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


def fock_coherence(chi: ChiMatrix, sup: FockSuperposition,
                   env: ThermalEnvironment, t):
    """Coherence C(t) of (|0_Z> + |n_Z>)/sqrt(2) with thermal spectators.

    C(t) = prod_{a != Z} (1 - e^(-x_a)) / |1 - e^(-x_a - i 2 pi chi_Za n_Z t)|
    with x_a = h f_a / k_B T; t may be an array.
    """
    d = chi.n_modes
    z = _index(sup.mode, d, "mode")
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
    z = _index(z, chi.n_modes, "z")
    nbar = env.occupations(chi.mode_frequencies)
    row = chi.chi[z, :]
    lin = float(row @ nbar)
    sq = float((row**2) @ (nbar**2))
    cross = lin**2 - sq
    diag = float((row**2) @ (nbar * (2 * nbar + 1)))
    return 3 * math.pi**4 / delta**2 * (cross + diag)


def _flop_populations(eta1, eta2, initial, omega0, t):
    """Spin populations of the two-spin/shared-mode blue sideband.

    Returns (pops, steady): ``pops[k]`` holds the populations of |down,down>,
    of the two one-up states together and of |up,up> at time t[k], each
    summed over the motional state; ``steady`` holds their diagonal-ensemble
    (infinite-time average) values.

    The sideband conserves n - s1 - s2, so each thermal component |00, n0>
    evolves only inside the block {|00,n0>, |10,n0+1>, |01,n0+1>, |11,n0+2>}.
    Its coupling graph is bipartite, {|00>, |11>} against {|10>, |01>}; with
    B the 2x2 coupling between the halves, the block's eigenvalues are
    +-s1, +-s2, the singular values of B.  From |00, n0>, with
    Ci = cos(si t) and (c, s) = (cos th, sin th) the top eigenvector of B B^T
    over {|00>, |11>}:

        P(down,down) = (c^2 C1 + s^2 C2)^2
        P(one up)    = c^2 (1 - C1^2) + s^2 (1 - C2^2)
        P(up,up)     = c^2 s^2 (C1 - C2)^2

    Each is a combination of C1^2, C2^2 and C1 C2, that is of cosines at the
    block's four eigenvalue gaps 2 s1, 2 s2, s1 + s2 and s1 - s2.  The steady
    state averages each cosine to zero unless its gap is within 16 ulps of
    s1, the block norm, so a degenerate pair (the double zero eigenvalue at
    eta1 = eta2) keeps its time-independent coherence.  A thermal start
    keeps about 28 (nbar + 1/2) blocks, so time and memory grow linearly in
    nbar and in len(t).
    """
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if not (math.isfinite(eta) and eta >= 0):
            raise ValueError(f"{name} must be finite and non-negative, "
                             f"got {eta!r}")
    if not math.isfinite(omega0):
        raise ValueError(f"omega0 must be finite, got {omega0!r}")
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be a 1D array of finite times")
    if isinstance(initial, bool):
        raise ValueError(f"initial must be a Fock state (int) or a thermal "
                         f"nbar (float), got {initial!r}")
    if _is_integer(initial):
        if initial < 0:
            raise ValueError(f"initial Fock state must be >= 0, got {initial}")
        n0, w = np.array([int(initial)]), np.ones(1)
    else:
        nb = float(initial)
        if not (math.isfinite(nb) and nb >= 0):
            raise ValueError("initial thermal nbar must be finite and "
                             f"non-negative, got {initial!r}")
        q = nb / (1 + nb)
        if q == 1.0:
            raise ValueError(f"initial thermal nbar {nb!r} is too large: "
                             "nbar / (1 + nbar) rounds to 1")
        # keep every n below the point where the thermal tail mass
        # sum_{n >= N} w_n = q^N falls under 1e-12
        n0 = np.arange(math.ceil(math.log(1e-12) / math.log(q)) if q else 1)
        w = q ** n0 / (1 + nb)

    # B = (omega0 / 2) [[eta1 r0, eta2 r0], [eta2 r1, eta1 r1]] with
    # r0, r1 = sqrt(n0 + 1), sqrt(n0 + 2); B B^T / (omega0 / 2)^2 is
    # [[e (n0 + 1), f], [f, e (n0 + 2)]]
    e = eta1**2 + eta2**2
    r = np.sqrt((n0 + 1.0) * (n0 + 2.0))    # r0 r1
    f = 2 * eta1 * eta2 * r
    disc = np.hypot(e, 2 * f)
    # singular values of B in units of |omega0| / 2; the second is
    # |det B| / the first, exactly 0 at eta1 = eta2
    sigma1 = np.sqrt((e * (2 * n0 + 3) + disc) / 2)
    sigma2 = np.divide(abs(eta1**2 - eta2**2) * r, sigma1,
                       out=np.zeros_like(sigma1), where=sigma1 > 0)
    cos2th = np.divide(-e, disc, out=np.ones_like(disc), where=disc > 0)
    u = np.stack([1 + cos2th, 1 - cos2th], axis=1) / 2     # c^2, s^2
    p = u[:, 0] * u[:, 1]
    # weighted coefficients of Ci^2 (block, i, population) and of C1 C2
    square = w[:, None, None] * np.stack(
        [u**2, -u, np.stack([p, p], axis=1)], axis=2)
    cross = w[:, None] * np.stack([2 * p, 0 * p, -2 * p], axis=1)
    const = np.array([0.0, w.sum(), 0.0])

    s = abs(omega0) / 2 * np.stack([sigma1, sigma2], axis=1)
    c = np.cos(np.multiply.outer(t, s))
    pops = const + (c**2).reshape(len(t), -1) @ square.reshape(-1, 3) \
        + (c[:, :, 0] * c[:, :, 1]) @ cross

    s1, s2 = s.T
    gaps = np.stack([2 * s1, 2 * s2, s1 - s2, s1 + s2], axis=1)
    zero = np.abs(gaps) <= 16 * np.finfo(float).eps * s1[:, None]
    # time averages: Ci^2 -> (1 + [2 si = 0]) / 2,
    # C1 C2 -> ([s1 - s2 = 0] + [s1 + s2 = 0]) / 2
    steady = const \
        + np.einsum("ki,kip->p", (1 + zero[:, :2]) / 2, square) \
        + zero[:, 2:].sum(axis=1) / 2 @ cross
    return pops, steady


def sideband_flop(eta1: float, eta2: float, initial, omega0: float,
                  decay_time: float | None, t_grid) -> np.ndarray:
    """Blue-sideband flopping of two ions sharing one motional mode.

    Each ion couples |down, n> <-> |up, n+1> at Rabi rate
    omega0 * eta_j * sqrt(n+1).  ``initial`` is an integer Fock state or a
    thermal mean occupation (float).  Returns the fluorescence observable
    A(t) = P(up,up) + [P(up,down) + P(down,up)]/2 on the time grid, with the
    oscillatory part damped toward the steady (diagonal-ensemble) mixture on
    the phenomenological timescale ``decay_time`` (None or inf: undamped).
    A is a sum of cosines at four frequencies per block of conserved
    n - s1 - s2; a thermal start keeps about 28 (nbar + 1/2) blocks, so the
    cost grows linearly in nbar and in len(t_grid).  Raises ValueError
    naming eta1, eta2, initial, omega0, decay_time or t_grid when that
    argument is malformed.
    """
    damped = decay_time is not None and decay_time != math.inf
    if damped and not decay_time > 0:
        raise ValueError(f"decay_time must be positive, got {decay_time!r}")
    t = np.asarray(t_grid, dtype=float)
    pops, steady = _flop_populations(eta1, eta2, initial, omega0, t)
    fluorescence = np.array([0.0, 0.5, 1.0])
    a_t, a_steady = pops @ fluorescence, steady @ fluorescence
    if damped:
        a_t = a_steady + (a_t - a_steady) * np.exp(-t / decay_time)
    return a_t
