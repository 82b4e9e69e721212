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
chi for chi_matrix and chi_from_configuration, and frequency_shift reads
it.  Second order holds only where each process's coupling W is small
against its detuning Delta, so the builder first applies Martin's test
(J. M. L. Martin et al., J. Chem. Phys. 103, 2589 (1995)) to its own pair
denominators: a process with (W / hbar Delta)^2 above RESONANCE_LIMIT
refuses chi.  The kernel reads the quartic only on its pair diagonal
G4_aaZZ (a = Z included), so chi_from_configuration contracts that
diagonal straight from the statics blocks and never forms A4 or G4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, PLANCK
from .modes import ModeSpectrum, _at_equilibrium, _index, _is_integer, \
    mode_spectrum
from .statics import ChainConfiguration

RESONANCE_LIMIT = 1e-2  # largest (W / hbar Delta)^2 of a process chi accepts


class ResonanceError(RuntimeError):
    """A process couples across a detuning too small for second order:
    its (W / hbar Delta)^2 exceeds RESONANCE_LIMIT."""


@dataclass(frozen=True, eq=False)
class DerivativeTensors:
    """Taylor coefficients A3 = d3U/3!, A4 = d4U/4! of the total potential
    at the positions of ``config``."""

    A3: np.ndarray  # (D, D, D),    J m^-3
    A4: np.ndarray  # (D, D, D, D), J m^-4
    config: ChainConfiguration


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
    return DerivativeTensors(A3=t3 / 6.0, A4=t4 / 24.0, config=cfg)


def mode_tensors(tensors: DerivativeTensors, spectrum: ModeSpectrum) -> ModeTensors:
    """Carry derivative tensors to the normal-mode basis by sigma_ion (J).
    The spectrum must be that of the tensors' configuration, else
    ValueError."""
    if spectrum.config is not tensors.config:
        raise ValueError("spectrum is of another configuration")
    u = spectrum.sigma_ion
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
    energy, (t3,) = _at_equilibrium(cfg, 3)
    q = energy.quartic_diagonal(cfg.positions, u)
    return _to_modes(t3 / 6.0, u), q / 24.0


def _shift_coefficients(g3: np.ndarray, q: np.ndarray, spectrum: ModeSpectrum,
                        provenance: dict) -> ChiMatrix:
    """Transition model (chi in Hz) from G3 and the quartic's pair diagonal
    q[Z, a] = G4_aaZZ, once Martin's test passes.

    The pair table den[Z, a, b] = (w_b -+ w_a)^2 - w_Z^2, difference then
    sum, vanishes on a resonance w_Z = |w_b -+ w_a|.  Its processes are
    Z not in {a, b}, with a < b for the difference and a <= b for the sum,
    whose a = b entry is the 2:1 one.  W is the zero-occupation coupling,
    6 |G3_Zab|, or 3 sqrt(2) |G3_aaZ| for a 2:1, and Delta =
    |den| / (|w_b -+ w_a| + w_Z) = ||w_b -+ w_a| - w_Z|.  Processes with
    (W / hbar Delta)^2 above RESONANCE_LIMIT raise ResonanceError naming
    their number and the worst.

    The static sum is S[Z, a] = sum_k G3_ZZk G3_aak / w_k and the resonant
    one R[Z, a] = sum_k G3_Zak^2 F[k, Z, a], where F[k, Z, a] = sum over the
    four signs of 1 / (w_k +- w_a +- w_Z)
    = 4 w_k (w_k^2 - w_a^2 - w_Z^2) / (den_-[k, Z, a] den_+[k, Z, a]).
    An exact zero of that product passed the test uncoupled: it adds 0.
    """
    w = spectrum.angular
    i = np.arange(len(w))
    wz = w[:, None, None]
    g2 = g3**2
    count, worst, prod = 0, [], 1.0
    for s, kind in enumerate(("difference", "sum")):
        comb = np.abs(w + (2 * s - 1) * w[:, None])  # |w_b -+ w_a| at [a, b]
        limit = comb - wz                             # +-Delta
        limit *= limit * (RESONANCE_LIMIT * HBAR**2)
        if np.any(36 * g2 > limit):  # 36 G3^2 bounds every process's W^2
            # (W / G3)^2 at [a, b]: 36 for a < b, 18 for the 2:1 a = b
            weight = 36.0 * (i[:, None] < i) + 18.0 * s * np.eye(len(w))
            over = weight * g2 > limit
            over[i, i] = over[i, :, i] = False        # Z = a, Z = b: none
            count += np.count_nonzero(over)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(over, weight * g2 / limit, 0) * RESONANCE_LIMIT
            z, a, b = map(int, np.unravel_index(np.argmax(ratio), ratio.shape))
            worst.append((ratio[z, a, b], f"2:1 modes {(z, a)}" if s and a == b
                          else f"{kind} modes {(z, a, b)}"))
        del limit  # before the pair table's next factor is formed
        prod = prod * (comb**2 - wz**2)
    if count:
        ratio, what = max(worst)
        raise ResonanceError(
            f"perturbation theory invalid near {count} coupled resonance(s), "
            f"worst {what} (W/hbar Delta)^2={ratio:.2e}")
    prod[prod == 0] = np.inf
    m = g3[i, i]                                   # m[Z, k] = G3_ZZk
    s = (m / w) @ m.T
    f = 4 * wz * (wz**2 - w[:, None]**2 - w**2) / prod
    r = (g2 * f).sum(0)
    x = 24.0 * q - 72.0 / HBAR * s - 36.0 / HBAR * r
    x[i, i] *= 0.5
    return ChiMatrix(chi=(x + x.T) / (2 * PLANCK),
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
    d = spectrum.n_modes
    if tensors.G3.shape != (d,) * 3 or tensors.G4.shape != (d,) * 4:
        raise ValueError("tensor and spectrum dimensions do not match")
    i = np.arange(d)
    q = tensors.G4[i[None, :], i[None, :], i[:, None], i[:, None]]  # G4_aaZZ
    return _shift_coefficients(tensors.G3, q, spectrum, {})


def chi_from_configuration(cfg: ChainConfiguration,
                           spectrum: ModeSpectrum | None = None) -> ChiMatrix:
    """Full pipeline: G3 and the quartic pair diagonal contracted from the
    chain's derivative blocks -> resonance test and transition model.

    Equal to chi_matrix(mode_tensors(derivative_tensors(cfg), spectrum),
    spectrum) to rounding, in O(D^3) memory: no rank-4 tensor is built.  A
    given ``spectrum`` must be cfg's own (``spectrum.config is cfg``), else
    ValueError.
    """
    if spectrum is None:
        spectrum = mode_spectrum(cfg)
    elif spectrum.config is not cfg:
        raise ValueError("spectrum is of another configuration")
    g3, q = _chi_tensors(cfg, spectrum)
    pot = cfg.potential
    return _shift_coefficients(
        g3, q, spectrum,
        {"coulomb": cfg.n_ions > 1, "trap_cubic": pot.has_order(3),
         "trap_quartic": pot.has_order(4)})
