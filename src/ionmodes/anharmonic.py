"""Third/fourth-order potential tensors and anharmonic frequency shifts.

The cubic and quartic Taylor coefficients of the total potential about
equilibrium are stored mass-weighted and factorial-normalized,

    A3_ijk  = (1/3!) (m_i m_j m_k)^(-1/2)   d3U/dz_i dz_j dz_k,
    A4_ijkl = (1/4!) (m_i ... m_l)^(-1/2)   d4U/dz_i ... dz_l,

and transformed to the normal-mode basis with the sigma' factors absorbed,

    G3_abc = sigma'_a sigma'_b sigma'_c  sum_ijk e_i^a e_j^b e_k^c A3_ijk,

so that the cubic/quartic Hamiltonian terms are sum G3 x_a x_b x_c and
sum G4 x_a x_b x_c x_d with x = a + a^dag.  The per-transition frequency
shift combines first-order quartic and second-order cubic perturbation
theory; its integer coefficients (12, 36, 6, 72, ...) presuppose exactly the
factorial normalization above.

Shifts are linear in every occupation number, which defines the per-quantum
cross-coupling matrix chi via  Delta f_Z = sum_a chi_Za n_a.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR, PLANCK
from .modes import ModeSpectrum, _at_equilibrium
from .potentials import TrapModel3D
from .statics import ChainConfiguration

RESONANCE_HARD = 1e-3  # |denominator| below this (x max omega^2): error
RESONANCE_SOFT = 1e-2  # warning band


class ResonanceError(RuntimeError):
    """A perturbation-theory denominator is too close to zero."""


@dataclass(frozen=True, eq=False)
class DerivativeTensors:
    """Mass-weighted, factorial-normalized cubic/quartic potential tensors."""

    A3: np.ndarray  # (D, D, D),    kg^(-3/2) J m^-3
    A4: np.ndarray  # (D, D, D, D), kg^-2 J m^-4


@dataclass(frozen=True, eq=False)
class ModeTensors:
    """Normal-mode-basis tensors with sigma' factors absorbed (units J)."""

    G3: np.ndarray
    G4: np.ndarray


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Per-quantum frequency-shift matrix chi_Za in Hz."""

    chi: np.ndarray
    mode_frequencies: np.ndarray  # Hz, descending
    provenance: dict
    near_resonances: tuple = ()

    @property
    def n_modes(self) -> int:
        return len(self.mode_frequencies)


class ResonanceFlag(NamedTuple):
    kind: str          # "2:1", "sum", or "difference"
    modes: tuple       # (Z, alpha) or (Z, alpha, beta)
    value: float       # denominator value, rad^2/s^2
    normalized: float  # |value| / max(omega)^2


def occupation_vector(n, n_modes: int) -> np.ndarray:
    """Validate an occupation-number list (one entry per mode)."""
    occ = np.asarray(n, dtype=int)
    if occ.shape != (n_modes,):
        raise ValueError(f"need {n_modes} occupations, got shape {occ.shape}")
    if np.any(occ < 0):
        raise ValueError("occupations must be non-negative")
    return occ


def derivative_tensors(cfg: ChainConfiguration) -> DerivativeTensors:
    """Analytic cubic/quartic tensors of the total potential at equilibrium.

    Both the Coulomb interaction and the anharmonic trap terms contribute.
    """
    t3, t4 = _at_equilibrium(cfg, 3, 4)
    m = cfg.coordinate_masses
    sq = np.sqrt(m)
    a3 = t3 / 6.0 / (sq[:, None, None] * sq[None, :, None] * sq[None, None, :])
    a4 = t4 / 24.0 / (sq[:, None, None, None] * sq[None, :, None, None]
                      * sq[None, None, :, None] * sq[None, None, None, :])
    return DerivativeTensors(A3=a3, A4=a4)


def mode_tensors(tensors: DerivativeTensors, spectrum: ModeSpectrum) -> ModeTensors:
    """Transform derivative tensors to the normal-mode basis (units J)."""
    e = spectrum.eigenvectors
    if tensors.A3.shape[0] != e.shape[0]:
        raise ValueError("tensor and spectrum dimensions do not match")
    sig = spectrum.sigma_prime
    g3 = np.einsum("ia,jb,kc,ijk->abc", e, e, e, tensors.A3, optimize=True)
    g3 *= sig[:, None, None] * sig[None, :, None] * sig[None, None, :]
    g4 = np.einsum("ia,jb,kc,ld,ijkl->abcd", e, e, e, e, tensors.A4, optimize=True)
    g4 *= (sig[:, None, None, None] * sig[None, :, None, None]
           * sig[None, None, :, None] * sig[None, None, None, :])
    return ModeTensors(G3=g3, G4=g4)


def detect_resonances(spectrum: ModeSpectrum, rel_tol: float = RESONANCE_HARD):
    """Flag perturbation-theory denominators below rel_tol * max(omega)^2.

    Covers two-phonon conversion (omega_Z ~ 2 omega_a) and sum/difference
    processes ((omega_b +- omega_a) ~ omega_Z).
    """
    w = spectrum.angular
    d = len(w)
    scale = float(np.max(w)) ** 2
    flags = []
    for z in range(d):
        for a in range(d):
            if a == z:
                continue
            val = 4 * w[a] ** 2 - w[z] ** 2
            if abs(val) < rel_tol * scale:
                flags.append(ResonanceFlag("2:1", (z, a), float(val),
                                           abs(val) / scale))
        for a in range(d):
            if a == z:
                continue
            for b in range(a + 1, d):
                if b == z:
                    continue
                for kind, val in (
                        ("difference", (w[b] - w[a]) ** 2 - w[z] ** 2),
                        ("sum", (w[b] + w[a]) ** 2 - w[z] ** 2)):
                    if abs(val) < rel_tol * scale:
                        flags.append(ResonanceFlag(kind, (z, a, b), float(val),
                                                   abs(val) / scale))
    return flags


def _resonance_guard(spectrum: ModeSpectrum):
    hard = detect_resonances(spectrum, RESONANCE_HARD)
    if hard:
        raise ResonanceError(
            "perturbation theory invalid near resonance(s): "
            + "; ".join(f"{f.kind} modes {f.modes} |den|/max(w)^2={f.normalized:.2e}"
                        for f in hard))
    soft = detect_resonances(spectrum, RESONANCE_SOFT)
    if soft:
        warnings.warn(
            f"{len(soft)} near-resonant denominator(s) in the "
            f"[{RESONANCE_HARD:g}, {RESONANCE_SOFT:g}] band; shifts may be inaccurate",
            RuntimeWarning, stacklevel=3)
    return tuple(soft)


def frequency_shift(tensors: ModeTensors, spectrum: ModeSpectrum,
                    occupations, z: int, _guard: bool = True) -> float:
    """Anharmonic shift of the n_Z <-> n_Z + 1 transition frequency (Hz).

    First-order quartic plus second-order cubic perturbation theory,
    evaluated for the given spectator occupations; exact in (is linear in)
    every occupation number.
    """
    g3, g4 = tensors.G3, tensors.G4
    w = spectrum.angular
    d = len(w)
    if not 0 <= z < d:
        raise IndexError(f"mode index {z} out of range")
    n = occupation_vector(occupations, d)
    if _guard:
        _resonance_guard(spectrum)
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


def chi_matrix(tensors: ModeTensors, spectrum: ModeSpectrum,
               provenance: dict | None = None) -> ChiMatrix:
    """Per-quantum cross-coupling matrix chi_Za (Hz).

    chi_Za is the shift of mode Z's transition frequency per quantum in mode
    a, obtained by unit occupation increments; the diagonal uses a unit
    increment of n_Z itself.  Both triangles are computed independently.
    """
    near = _resonance_guard(spectrum)
    d = spectrum.n_modes
    chi = np.zeros((d, d))
    zero = np.zeros(d, dtype=int)
    for z in range(d):
        base = frequency_shift(tensors, spectrum, zero, z, _guard=False)
        for a in range(d):
            occ = zero.copy()
            occ[a] = 1
            chi[z, a] = frequency_shift(tensors, spectrum, occ, z,
                                        _guard=False) - base
    return ChiMatrix(chi=chi, mode_frequencies=spectrum.frequencies.copy(),
                     provenance=provenance or {}, near_resonances=near)


def chi_from_configuration(cfg: ChainConfiguration,
                           spectrum: ModeSpectrum | None = None) -> ChiMatrix:
    """Full pipeline: derivative tensors -> mode tensors -> chi matrix."""
    from .modes import mode_spectrum

    if spectrum is None:
        spectrum = mode_spectrum(cfg)
    tens = derivative_tensors(cfg)
    gt = mode_tensors(tens, spectrum)
    axial = cfg.potential.axial
    prov = {
        "coulomb": cfg.n_ions > 1,
        "trap_cubic": bool(axial.kappa.get(3, 0.0)) or (
            isinstance(cfg.potential, TrapModel3D)
            and bool(np.any(cfg.potential.trap_cubic))),
        "trap_quartic": bool(axial.kappa.get(4, 0.0)) or (
            isinstance(cfg.potential, TrapModel3D)
            and bool(np.any(cfg.potential.trap_quartic))),
    }
    return chi_matrix(gt, spectrum, provenance=prov)
