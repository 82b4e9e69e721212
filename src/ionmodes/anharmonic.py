"""Third/fourth-order potential tensors and anharmonic frequency shifts.

The cubic and quartic Taylor coefficients of the total potential about
equilibrium are factorial-normalized derivatives in plain coordinates,

    A3_ijk  = (1/3!) d3U/dz_i dz_j dz_k,
    A4_ijkl = (1/4!) d4U/dz_i ... dz_l,

and are carried to the normal-mode basis by sigma_ion = e' sigma' / sqrt(m),

    G3_abc = sum_ijk sigma_ion_ia sigma_ion_jb sigma_ion_kc A3_ijk,

so that the cubic/quartic Hamiltonian terms are sum G3 x_a x_b x_c and
sum G4 x_a x_b x_c x_d with x = a + a^dag.  The per-transition frequency
shift combines first-order quartic and second-order cubic perturbation
theory.  Its chi is the second derivative of the level energies in the
standard VPT2 form (I. M. Mills, 1972; V. Barone, J. Chem. Phys. 122, 014108
(2005)), one static and one resonant cubic sum S and R (_shift_coefficients):

    h chi_Za = 24 G4_aaZZ - (72 / hbar) S_Za - (36 / hbar) R_Za,

halved on the diagonal and symmetric by construction.  The integer
coefficients presuppose exactly the factorial normalization above.

The shift is exactly linear in every occupation, Delta f_Z = base_Z + sum_a
chi_Za n_a, and chi alone fixes base (ChiMatrix.base).  One builder makes
chi for chi_matrix and chi_from_configuration from the denominators the
resonance guard passed, and frequency_shift reads it.  The kernel reads the
quartic only on its pair diagonal G4_aaZZ (a = Z included), so
chi_from_configuration contracts that diagonal straight from the statics
blocks and never forms A4 or G4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, PLANCK
from .modes import ModeSpectrum, _at_equilibrium, _index, _is_integer, \
    mode_spectrum
from .statics import ChainConfiguration, _warn_caller

RESONANCE_HARD = 1e-3  # |denominator| below this (x max omega^2): error
RESONANCE_SOFT = 1e-2  # warning band


class ResonanceError(RuntimeError):
    """A perturbation-theory denominator is too close to zero."""


@dataclass(frozen=True, eq=False)
class DerivativeTensors:
    """Taylor coefficients A3 = d3U/3!, A4 = d4U/4! of the total potential."""

    A3: np.ndarray  # (D, D, D),    J m^-3
    A4: np.ndarray  # (D, D, D, D), J m^-4


@dataclass(frozen=True, eq=False)
class ModeTensors:
    """Normal-mode-basis tensors with sigma' factors absorbed (units J)."""

    G3: np.ndarray
    G4: np.ndarray


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Transition model Delta f_Z = base_Z + sum_a chi_Za n_a, in Hz."""

    chi: np.ndarray
    mode_frequencies: np.ndarray  # Hz, descending
    provenance: dict

    @property
    def n_modes(self) -> int:
        return len(self.mode_frequencies)

    @property
    def base(self) -> np.ndarray:
        """Zero-occupation shift of each transition (Hz).  The level energies
        are quadratic in n + 1/2, so base_Z = chi_ZZ + (1/2) sum_{a != Z}
        chi_Za."""
        diag = np.diag(self.chi)
        return diag + 0.5 * (self.chi.sum(1) - diag)


def _is_whole(v) -> bool:
    """A non-bool integer, or a float equal to one that fits in int64."""
    if isinstance(v, (float, np.floating)):
        return float(v).is_integer() and abs(v) < 2.0**63
    return _is_integer(v)


def occupation_vector(n, n_modes: int) -> np.ndarray:
    """Validate an occupation-number list (one non-negative integer per mode)."""
    raw = np.asarray(n)
    if raw.shape != (n_modes,):
        raise ValueError(f"need {n_modes} occupations, got shape {raw.shape}")
    # element by element, before any cast: asarray turns [True, 0] into ints
    if not all(_is_whole(v) for v in n):
        raise ValueError(f"occupations must be integers, got {n!r}")
    occ = raw.astype(int)
    if np.any(occ < 0):
        raise ValueError("occupations must be non-negative")
    return occ


def derivative_tensors(cfg: ChainConfiguration) -> DerivativeTensors:
    """Analytic cubic/quartic tensors of the total potential at equilibrium.

    Both the Coulomb interaction and the anharmonic trap terms contribute.
    """
    _, (t3, t4) = _at_equilibrium(cfg, 3, 4)
    return DerivativeTensors(A3=t3 / 6.0, A4=t4 / 24.0)


def mode_tensors(tensors: DerivativeTensors, spectrum: ModeSpectrum) -> ModeTensors:
    """Carry derivative tensors to the normal-mode basis by sigma_ion (J)."""
    u = spectrum.sigma_ion
    if tensors.A3.shape[0] != u.shape[0]:
        raise ValueError("tensor and spectrum dimensions do not match")
    return ModeTensors(G3=_to_modes(tensors.A3, u), G4=_to_modes(tensors.A4, u))


def _to_modes(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_ij... t_ij... u_ia u_jb ...: every axis of t contracted with u,
    one tensordot per axis (each moves the new mode axis to the end)."""
    for _ in range(t.ndim):
        t = np.tensordot(t, u, axes=(0, 0))
    return t


def _chi_tensors(cfg: ChainConfiguration, spectrum: ModeSpectrum):
    """G3 and the pair-diagonal quartic Q[Z, a] = G4_aaZZ that chi reads,
    contracted from the energy's blocks with the spectrum's sigma_ion, as
    mode_tensors does; no rank-4 array is formed."""
    u = spectrum.sigma_ion
    if u.shape[0] != len(cfg.coordinate_masses):
        raise ValueError("tensor and spectrum dimensions do not match")
    energy, (t3,) = _at_equilibrium(cfg, 3)
    q = energy.quartic_diagonal(cfg.positions, u)
    return _to_modes(t3 / 6.0, u), q / 24.0


def _denominators(spectrum: ModeSpectrum):
    """The pair denominators (w_b -+ w_a)^2 - w_Z^2 (rad^2/s^2) at
    [Z, a, b, 0 / 1], once the resonance policy passes on them and on the
    2:1 ones 4 w_a^2 - w_Z^2 at [Z, a].

    A process (Z != a, or Z, a, b distinct with a < b) whose denominator is
    below RESONANCE_HARD * max(w)^2 raises ResonanceError naming each one:
    per mode Z its 2:1 ones, then each pair's difference and sum ones.  Below
    RESONANCE_SOFT * max(w)^2 they are counted in a warning.
    """
    w = spectrum.angular
    d = len(w)
    scale = float(np.max(w)) ** 2
    i = np.arange(d)
    z, a, b = i[:, None, None], i[None, :, None], i[None, None, :]
    two = (4 * w[a] ** 2 - w[z] ** 2)[..., 0]
    pair = np.stack(((w[b] - w[a]) ** 2 - w[z] ** 2,
                     (w[b] + w[a]) ** 2 - w[z] ** 2), axis=-1)
    # one row per mode Z: its 2:1 denominators, then (a, b, sign) in order
    rows = np.concatenate((two, pair.reshape(d, -1)), axis=1)
    process = np.concatenate(((z != a)[..., 0], np.repeat(
        ((z != a) & (z != b) & (a < b)).reshape(d, -1), 2, axis=1)), axis=1)
    size = np.where(process, np.abs(rows), np.inf)
    hard = np.argwhere(size < RESONANCE_HARD * scale)
    if len(hard):
        raise ResonanceError(
            "perturbation theory invalid near resonance(s): " + "; ".join(
                f"{_process(zi, col, d)} |den|/max(w)^2={size[zi, col] / scale:.2e}"
                for zi, col in hard))
    soft = np.count_nonzero(size < RESONANCE_SOFT * scale)
    if soft:
        _warn_caller(
            f"{soft} near-resonant denominator(s) in the "
            f"[{RESONANCE_HARD:g}, {RESONANCE_SOFT:g}] band; shifts may be inaccurate")
    return pair


def _process(z: int, col: int, d: int) -> str:
    """The process of column ``col`` of mode z's row of denominators."""
    if col < d:
        return f"2:1 modes {(int(z), int(col))}"
    a, b, sign = np.unravel_index(col - d, (d, d, 2))
    return f"{('difference', 'sum')[sign]} modes {(int(z), int(a), int(b))}"


def _shift_coefficients(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum,
                        pair: np.ndarray) -> np.ndarray:
    """Per-quantum ``chi`` (Hz) of every mode from G3, the quartic's pair
    diagonal q[Z, a] = G4_aaZZ and the ``_denominators`` pair.

    The static sum is S[Z, a] = sum_k G3_ZZk G3_aak / w_k and the resonant
    one R[Z, a] = sum_k G3_Zak^2 F[k, Z, a], where F[k, Z, a] = sum over the
    four signs of 1 / (w_k +- w_a +- w_Z)
    = 4 w_k (w_k^2 - w_a^2 - w_Z^2) / (pair[k, Z, a, 0] pair[k, Z, a, 1]).
    Each zero of that product is a 2:1, sum or difference resonance, which
    the guard has refused.
    """
    w = spectrum.angular
    i = np.arange(len(w))
    m = g3[i, i]                                   # m[Z, k] = G3_ZZk
    s = (m / w) @ m.T
    wk = w[:, None, None]
    f = 4 * wk * (wk**2 - w[:, None]**2 - w**2) / (pair[..., 0] * pair[..., 1])
    r = (g3**2 * f).sum(0)
    x = 24.0 * q - 72.0 / HBAR * s - 36.0 / HBAR * r
    x[i, i] *= 0.5
    return (x + x.T) / (2 * PLANCK)


def _chi(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum,
         pair: np.ndarray, provenance: dict) -> ChiMatrix:
    """ChiMatrix from G3, q = G4_aaZZ and the guarded ``_denominators``."""
    return ChiMatrix(chi=_shift_coefficients(g3, q, spectrum, pair),
                     mode_frequencies=spectrum.frequencies.copy(),
                     provenance=provenance)


def frequency_shift(tensors: ModeTensors, spectrum: ModeSpectrum,
                    occupations, z: int) -> float:
    """Anharmonic shift of the n_Z <-> n_Z + 1 transition frequency (Hz).

    First-order quartic plus second-order cubic perturbation theory,
    evaluated for the given spectator occupations: base_Z + sum_a chi_Za n_a
    read off chi_matrix, which reruns the guard and the kernel per call.
    """
    z = _index(z, spectrum.n_modes, "z")
    n = occupation_vector(occupations, spectrum.n_modes)
    model = chi_matrix(tensors, spectrum)
    return float(model.base[z] + model.chi[z] @ n)


def chi_matrix(tensors: ModeTensors, spectrum: ModeSpectrum) -> ChiMatrix:
    """Transition model of synthetic or dense mode tensors (Hz).

    chi_Za is the coefficient of n_a in the closed-form shift of mode Z's
    transition frequency, so frequency_shift = base + chi @ n; the diagonal
    is the coefficient of n_Z itself.
    """
    pair = _denominators(spectrum)
    i = np.arange(len(tensors.G4))
    q = tensors.G4[i[None, :], i[None, :], i[:, None], i[:, None]]  # G4_aaZZ
    return _chi(tensors.G3, q, spectrum, pair, {})


def chi_from_configuration(cfg: ChainConfiguration,
                           spectrum: ModeSpectrum | None = None) -> ChiMatrix:
    """Full pipeline: resonance guard -> G3 and the quartic pair diagonal
    contracted from the chain's derivative blocks -> transition model.

    Equal to chi_matrix(mode_tensors(derivative_tensors(cfg), spectrum),
    spectrum) to rounding, in O(D^3) memory: no rank-4 tensor is built.
    """
    if spectrum is None:
        spectrum = mode_spectrum(cfg)
    pair = _denominators(spectrum)
    g3, q = _chi_tensors(cfg, spectrum)
    pot = cfg.potential
    return _chi(g3, q, spectrum, pair,
                {"coulomb": cfg.n_ions > 1, "trap_cubic": pot.has_order(3),
                 "trap_quartic": pot.has_order(4)})
