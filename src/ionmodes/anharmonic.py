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
theory; its integer coefficients (12, 36, 6, 72, ...) presuppose exactly the
factorial normalization above.

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
    """The perturbation denominators (rad^2/s^2), once the resonance policy
    passes: 2:1 ones 4 w_a^2 - w_Z^2 at [Z, a], and difference and sum ones
    (w_b -+ w_a)^2 - w_Z^2 at [Z, a, b, 0 / 1].

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
    return two, pair


def _process(z: int, col: int, d: int) -> str:
    """The process of column ``col`` of mode z's row of denominators."""
    if col < d:
        return f"2:1 modes {(int(z), int(col))}"
    a, b, sign = np.unravel_index(col - d, (d, d, 2))
    return f"{('difference', 'sum')[sign]} modes {(int(z), int(a), int(b))}"


def _ratio(num, den, mask):
    """num / den where mask holds, exactly 0.0 elsewhere (never divided)."""
    return np.divide(num, den, out=np.zeros(np.shape(mask)), where=mask)


def _shift_coefficients(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum,
                        two: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Per-quantum ``chi`` (Hz) of every mode from G3, the quartic's pair
    diagonal q[Z, a] = G4_aaZZ and the ``_denominators`` two and pair, each
    term a masked broadcast over distinct (Z, a) or (Z, a, b).
    """
    w = spectrum.angular
    i = np.arange(len(w))
    z, a = i[:, None], i[None, :]
    wz, wa = w[:, None], w[None, :]
    off = z != a
    g_zzz = g3[i, i, i]
    g_aaz, g_zza, g_azz = g3[a, a, z], g3[z, z, a], g3[a, z, z]

    # per-spectator two-phonon and static terms, weight 2 n_a + 1
    t = (_ratio(2 * wa * g_aaz**2, two, off)
         + _ratio(2 * wz * g_zza**2, two.T, off)
         + _ratio(g_zzz[:, None] * g_aaz, wz, off)
         + _ratio(g_azz * g_zzz[None, :], wa, off))
    # self terms, weight n_Z + 1
    u = (10.0 * g_zzz**2 / w
         - 6.0 * _ratio(g_zza**2 * wa, two.T, off).sum(1)
         + 12.0 * _ratio(g_azz**2, wa, off).sum(1))
    # sum/difference processes, weights n_a - n_b and n_a + n_b + 1
    zz, aa, bb = i[:, None, None], i[None, :, None], i[None, None, :]
    distinct = (zz != aa) & (zz != bb) & (aa != bb)
    g2 = g3[aa, bb, zz] ** 2
    vd = _ratio(g2 * (w[bb] - w[aa]), pair[..., 0], distinct)
    vs = _ratio(g2 * (w[bb] + w[aa]), pair[..., 1], distinct)
    # static cubic through mode a, weight 2 n_b + 1 (b != Z)
    x = np.where(off, _ratio(g_azz, wa, off) @ np.where(off, g3[z, a, a], 0.0), 0.0)

    chi = (24.0 * np.where(off, q, 0.0) - 72.0 / HBAR * t
           - 72.0 / HBAR * ((vd + vs).sum(2) + (vs - vd).sum(1))
           - 36.0 / HBAR * 2 * x)
    chi[i, i] = 12.0 * q[i, i] - 6.0 / HBAR * u
    return chi / PLANCK


def _chi(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum, dens: tuple,
         provenance: dict) -> ChiMatrix:
    """ChiMatrix from G3, q = G4_aaZZ and the guarded ``_denominators``."""
    return ChiMatrix(chi=_shift_coefficients(g3, q, spectrum, *dens),
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
    dens = _denominators(spectrum)
    i = np.arange(len(tensors.G4))
    q = tensors.G4[i[None, :], i[None, :], i[:, None], i[:, None]]  # G4_aaZZ
    return _chi(tensors.G3, q, spectrum, dens, {})


def chi_from_configuration(cfg: ChainConfiguration,
                           spectrum: ModeSpectrum | None = None) -> ChiMatrix:
    """Full pipeline: resonance guard -> G3 and the quartic pair diagonal
    contracted from the chain's derivative blocks -> transition model.

    Equal to chi_matrix(mode_tensors(derivative_tensors(cfg), spectrum),
    spectrum) to rounding, in O(D^3) memory: no rank-4 tensor is built.
    """
    if spectrum is None:
        spectrum = mode_spectrum(cfg)
    dens = _denominators(spectrum)
    g3, q = _chi_tensors(cfg, spectrum)
    pot = cfg.potential
    return _chi(g3, q, spectrum, dens,
                {"coulomb": cfg.n_ions > 1, "trap_cubic": pot.has_order(3),
                 "trap_quartic": pot.has_order(4)})
