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
chi_Za n_a.  A ChiMatrix carries that whole model, ``base`` and chi; one
guarded builder makes it for chi_matrix and chi_from_configuration, and
frequency_shift reads it.  The kernel reads the quartic only on its pair
diagonal G4_aaZZ (a = Z included), so chi_from_configuration contracts that
diagonal straight from the statics blocks and never forms A4 or G4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    near_resonances: tuple = ()
    base: np.ndarray | None = None  # Hz per mode; None when read from a file

    @property
    def n_modes(self) -> int:
        return len(self.mode_frequencies)


class ResonanceFlag(NamedTuple):
    kind: str          # "2:1", "sum", or "difference"
    modes: tuple       # (Z, alpha) or (Z, alpha, beta)
    value: float       # denominator value, rad^2/s^2
    normalized: float  # |value| / max(omega)^2


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


def detect_resonances(spectrum: ModeSpectrum, rel_tol: float = RESONANCE_HARD):
    """Flag perturbation-theory denominators below rel_tol * max(omega)^2.

    Covers two-phonon conversion (omega_Z ~ 2 omega_a) and sum/difference
    processes ((omega_b +- omega_a) ~ omega_Z).
    """
    w = spectrum.angular
    scale = float(np.max(w)) ** 2
    i = np.arange(len(w))
    z, a, b = i[:, None, None], i[None, :, None], i[None, None, :]
    two = (4 * w[a] ** 2 - w[z] ** 2)[..., 0]
    pair = np.stack(((w[b] - w[a]) ** 2 - w[z] ** 2,
                     (w[b] + w[a]) ** 2 - w[z] ** 2), axis=-1)
    near_two = (np.abs(two) < rel_tol * scale) & (z != a)[..., 0]
    near_pair = ((np.abs(pair) < rel_tol * scale)
                 & ((z != a) & (z != b) & (a < b))[..., None])
    flags = [("2:1", (zi, ai), two[zi, ai]) for zi, ai in np.argwhere(near_two)]
    flags += [(("difference", "sum")[k], (zi, ai, bi), pair[zi, ai, bi, k])
              for zi, ai, bi, k in np.argwhere(near_pair)]
    # per mode Z: its 2:1 flags, then each pair's difference and sum flags
    flags.sort(key=lambda f: (f[1][0], f[0] != "2:1"))
    return [ResonanceFlag(kind, tuple(map(int, modes)), float(val),
                          abs(val) / scale)
            for kind, modes, val in flags]


def _resonance_guard(spectrum: ModeSpectrum):
    soft = detect_resonances(spectrum, RESONANCE_SOFT)
    # the hard flags are the soft flags that pass detect_resonances' own test
    # at RESONANCE_HARD, in the same order
    bound = RESONANCE_HARD * float(np.max(spectrum.angular)) ** 2
    hard = [f for f in soft if abs(f.value) < bound]
    if hard:
        raise ResonanceError(
            "perturbation theory invalid near resonance(s): "
            + "; ".join(f"{f.kind} modes {f.modes} |den|/max(w)^2={f.normalized:.2e}"
                        for f in hard))
    if soft:
        _warn_caller(
            f"{len(soft)} near-resonant denominator(s) in the "
            f"[{RESONANCE_HARD:g}, {RESONANCE_SOFT:g}] band; shifts may be inaccurate")
    return tuple(soft)


def _ratio(num, den, mask):
    """num / den where mask holds, exactly 0.0 elsewhere (never divided)."""
    return np.divide(num, den, out=np.zeros(np.shape(mask)), where=mask)


def _shift_coefficients(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum):
    """Zero-occupation shifts ``base`` and per-quantum ``chi`` (Hz) of every
    mode from G3 and the quartic's pair diagonal q[Z, a] = G4_aaZZ, each
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
    t = (_ratio(2 * wa * g_aaz**2, 4 * wa**2 - wz**2, off)
         + _ratio(2 * wz * g_zza**2, 4 * wz**2 - wa**2, off)
         + _ratio(g_zzz[:, None] * g_aaz, wz, off)
         + _ratio(g_azz * g_zzz[None, :], wa, off))
    # self terms, weight n_Z + 1
    u = (10.0 * g_zzz**2 / w
         - 6.0 * _ratio(g_zza**2 * wa, 4 * wz**2 - wa**2, off).sum(1)
         + 12.0 * _ratio(g_azz**2, wa, off).sum(1))
    # sum/difference processes, weights n_a - n_b and n_a + n_b + 1
    zz, aa, bb = i[:, None, None], i[None, :, None], i[None, None, :]
    distinct = (zz != aa) & (zz != bb) & (aa != bb)
    g2 = g3[aa, bb, zz] ** 2
    dw, sw, wz2 = w[bb] - w[aa], w[bb] + w[aa], w[zz] ** 2
    vd = _ratio(g2 * dw, dw**2 - wz2, distinct)
    vs = _ratio(g2 * sw, sw**2 - wz2, distinct)
    # static cubic through mode a, weight 2 n_b + 1 (b != Z)
    x = np.where(off, _ratio(g_azz, wa, off) @ np.where(off, g3[z, a, a], 0.0), 0.0)

    g4_zzzz, g4_aazz = q[i, i], np.where(off, q, 0.0)
    base = (12.0 * (g4_zzzz + g4_aazz.sum(1))
            - 36.0 / HBAR * t.sum(1) - 6.0 / HBAR * u
            - 72.0 / HBAR * vs.sum((1, 2)) - 36.0 / HBAR * x.sum(1))
    chi = (24.0 * g4_aazz - 72.0 / HBAR * t
           - 72.0 / HBAR * ((vd + vs).sum(2) + (vs - vd).sum(1))
           - 36.0 / HBAR * 2 * x)
    chi[i, i] = 12.0 * g4_zzzz - 6.0 / HBAR * u
    return base / PLANCK, chi / PLANCK


def _chi(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum, near: tuple,
         provenance: dict) -> ChiMatrix:
    """ChiMatrix from G3 and q = G4_aaZZ once the guard passed (``near``)."""
    base, chi = _shift_coefficients(g3, q, spectrum)
    return ChiMatrix(chi=chi, mode_frequencies=spectrum.frequencies.copy(),
                     provenance=provenance, near_resonances=near, base=base)


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
    near = _resonance_guard(spectrum)
    i = np.arange(len(tensors.G4))
    q = tensors.G4[i[None, :], i[None, :], i[:, None], i[:, None]]  # G4_aaZZ
    return _chi(tensors.G3, q, spectrum, near, {})


def chi_from_configuration(cfg: ChainConfiguration,
                           spectrum: ModeSpectrum | None = None) -> ChiMatrix:
    """Full pipeline: resonance guard -> G3 and the quartic pair diagonal
    contracted from the chain's derivative blocks -> transition model.

    Equal to chi_matrix(mode_tensors(derivative_tensors(cfg), spectrum),
    spectrum) to rounding, in O(D^3) memory: no rank-4 tensor is built.
    """
    if spectrum is None:
        spectrum = mode_spectrum(cfg)
    near = _resonance_guard(spectrum)
    g3, q = _chi_tensors(cfg, spectrum)
    pot = cfg.potential
    return _chi(g3, q, spectrum, near,
                {"coulomb": cfg.n_ions > 1, "trap_cubic": pot.has_order(3),
                 "trap_quartic": pot.has_order(4)})
