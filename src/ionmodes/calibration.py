"""Ion-order shifts, anharmonicity nulling, gradient inference, sensitivity.

Odd-order axial anharmonicity shifts a mixed-species pair's mode frequencies
differently for the two ion orders, while even orders do not; the order
shift is therefore a clean handle for nulling odd terms with a trap
parameter.  A residual out-of-phase order shift at the in-phase null reveals
an axial pseudopotential gradient, whose strength scales inversely with ion
mass.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeSpectrum, _index, mode_spectrum
from .potentials import AxialPotential
from .species import IonSpecies
from .statics import solve_equilibrium

IN_PHASE = "in_phase"
OUT_OF_PHASE = "out_of_phase"
NULL_TOLERANCE_HZ = 1.0
MAX_ROOT_ITER = 60


class BracketError(RuntimeError):
    """Root bracket does not enclose a sign change."""


@dataclass(frozen=True)
class PotentialFamily:
    """One-parameter family of axial potentials, affine in the parameter.

    kappa_actions[n] is d kappa_n / dp and field_action is dE/dp; p = 0
    reproduces the base potential.
    """

    base: AxialPotential
    kappa_actions: dict[int, float] = field(default_factory=dict)
    field_action: float = 0.0

    def at(self, p: float) -> AxialPotential:
        kappa = dict(self.base.kappa)
        for n, slope in self.kappa_actions.items():
            kappa[n] = kappa.get(n, 0.0) + slope * p
        return dataclasses.replace(self.base, kappa=kappa,
                                   uniform_field=self.base.uniform_field
                                   + self.field_action * p)


@dataclass(frozen=True)
class OrderShiftReport:
    """Mode frequency for both orders of a two-species pair."""

    mode_label: str
    f_ab: float   # Hz, speciesA at lower z
    f_ba: float   # Hz, order reversed
    delta: float  # Hz, f_ab - f_ba


def _labelled_frequencies(spectrum: ModeSpectrum) -> dict[str, float]:
    """Frequency of each two-ion mode, keyed by its phase relation."""
    if spectrum.n_modes != 2:
        raise ValueError("in/out-of-phase labelling applies to two-ion spectra")
    freqs = {}
    for k in range(2):
        v = spectrum.eigenvectors[:, k]
        label = IN_PHASE if v[0] * v[1] > 0 else OUT_OF_PHASE
        freqs.setdefault(label, float(spectrum.frequencies[k]))
    return freqs


def _order_frequencies(pot: AxialPotential, species_a: IonSpecies,
                       species_b: IonSpecies) -> dict[str, tuple[float, float]]:
    """(f_ab, f_ba) for each mode label: one solve per ion order."""
    ab, ba = (_labelled_frequencies(mode_spectrum(solve_equilibrium(order, pot)))
              for order in ((species_a, species_b), (species_b, species_a)))
    return {label: (ab[label], ba[label]) for label in ab.keys() & ba.keys()}


def _check_label(mode_label: str):
    if mode_label not in (IN_PHASE, OUT_OF_PHASE):
        raise ValueError(f"unknown mode label {mode_label!r}")


def _delta(freqs: dict[str, tuple[float, float]], mode_label: str) -> float:
    """Order shift f_ab - f_ba of the labelled mode."""
    if mode_label not in freqs:
        raise ValueError(f"no mode with label {mode_label!r}")
    f_ab, f_ba = freqs[mode_label]
    return f_ab - f_ba


def order_shift(pot: AxialPotential, species_a: IonSpecies,
                species_b: IonSpecies, mode_label: str = IN_PHASE) -> OrderShiftReport:
    """Frequency difference of one mode between the AB and BA ion orders.

    The label is resolved by the eigenvector sign product, not by frequency
    order, so it survives mass-ratio changes.
    """
    _check_label(mode_label)
    freqs = _order_frequencies(pot, species_a, species_b)
    delta = _delta(freqs, mode_label)
    return OrderShiftReport(mode_label, *freqs[mode_label], delta=delta)


def null_parameter(family: PotentialFamily, species_a: IonSpecies,
                   species_b: IonSpecies, mode_label: str,
                   bracket: tuple[float, float]) -> float:
    """Parameter value nulling the order shift of the labelled mode.

    Bracketed root finding (Brent); requires a sign change over the bracket
    and verifies |delta(p*)| < NULL_TOLERANCE_HZ.
    """
    return _null(family, species_a, species_b, mode_label, bracket)[0]


def _null(family, species_a, species_b, mode_label, bracket):
    """null_parameter's root p* and the labelled frequencies solved there.

    Each parameter value is solved once per call: the bracket ends, Brent's
    iterates and the residual check at p* share one memo.
    """
    from scipy.optimize import brentq

    _check_label(mode_label)
    p_lo, p_hi = bracket

    @functools.cache
    def solved(p):
        return _order_frequencies(family.at(p), species_a, species_b)

    def delta(p):
        return _delta(solved(p), mode_label)

    d_lo, d_hi = delta(p_lo), delta(p_hi)
    if max(abs(d_lo), abs(d_hi)) < NULL_TOLERANCE_HZ:
        raise BracketError(
            "no sign change: order shift is already null across the bracket")
    if not (np.isfinite(d_lo) and np.isfinite(d_hi)) or d_lo * d_hi > 0:
        raise BracketError(
            f"order shift does not change sign over the bracket: "
            f"delta({p_lo}) = {d_lo:.3g} Hz, delta({p_hi}) = {d_hi:.3g} Hz")
    p_star = brentq(delta, p_lo, p_hi, maxiter=MAX_ROOT_ITER,
                    xtol=1e-14 * max(abs(p_lo), abs(p_hi), 1.0))
    residual = delta(p_star)
    if abs(residual) >= NULL_TOLERANCE_HZ:
        raise BracketError(
            f"root residual {residual:.3g} Hz exceeds {NULL_TOLERANCE_HZ} Hz")
    return float(p_star), solved(p_star)


def infer_pseudo_gradient(family: PotentialFamily, species_a: IonSpecies,
                          species_b: IonSpecies, measured_out_shift: float,
                          gradient_bracket: tuple[float, float],
                          param_bracket: tuple[float, float]) -> float:
    """Pseudopotential gradient (eV/m) explaining a residual order shift.

    Forward model: with trial gradient g, the family parameter is tuned to
    null the in-phase order shift (as in the experiment), and the remaining
    out-of-phase shift is compared with the measurement.  Root-finds g; a
    round trip through the forward model recovers the generating gradient.
    The out-of-phase shift is read from the null's own solves, and each
    trial gradient is nulled once per call.
    """
    from scipy.optimize import brentq

    if family.base.pseudo_reference is None:
        raise ValueError("family base must carry a pseudo_reference species")

    @functools.cache
    def residual(g):
        fam = dataclasses.replace(family,
                                  base=dataclasses.replace(family.base,
                                                           pseudo_gradient=g))
        _, freqs = _null(fam, species_a, species_b, IN_PHASE, param_bracket)
        return _delta(freqs, OUT_OF_PHASE) - measured_out_shift

    g_lo, g_hi = gradient_bracket
    r_lo, r_hi = residual(g_lo), residual(g_hi)
    if r_lo * r_hi > 0:
        raise BracketError(
            f"no gradient root in bracket: residual({g_lo}) = {r_lo:.3g} Hz, "
            f"residual({g_hi}) = {r_hi:.3g} Hz")
    return float(brentq(residual, g_lo, g_hi, maxiter=MAX_ROOT_ITER,
                        xtol=1e-10 * max(abs(g_lo), abs(g_hi), 1e-3)))


def _mode_pick(spectrum: ModeSpectrum, mode) -> int:
    """Resolve 'com' (lowest, all-in-phase) or a descending index."""
    if mode == "com":
        return spectrum.n_modes - 1  # lowest frequency
    return _index(mode, spectrum.n_modes, "mode")


def field_sensitivity(pot: AxialPotential, species, field: float,
                      mode="com") -> float:
    """Fractional squared-frequency (curvature) shift caused by a field.

    Re-solves the equilibrium with the uniform field added and returns
    (f(E)^2 - f(0)^2) / f(0)^2 for the selected mode: the relative change of
    the local curvature the displaced chain samples.  To first order in E
    this equals 3 E / (2 kappa2 lambda3) for a single ion in a cubic trap,
    and it vanishes for a purely harmonic potential.
    """
    species = tuple(species)
    f0 = _solved_frequency(pot, species, mode)
    shifted = dataclasses.replace(pot, uniform_field=pot.uniform_field + field)
    fe = _solved_frequency(shifted, species, mode)
    return float((fe**2 - f0**2) / f0**2)


def _solved_frequency(pot, species, mode):
    cfg = solve_equilibrium(species, pot)
    spec = mode_spectrum(cfg)
    return spec.frequencies[_mode_pick(spec, mode)]


@dataclass(frozen=True)
class ComScanResult:
    """Centre-of-mass frequency versus ion number, with a linear fit."""

    counts: tuple[int, ...]
    frequencies: tuple[float, ...]  # Hz
    slope: float                    # Hz per ion
    intercept: float                # Hz
    r_squared: float


def com_frequency_scan(pot: AxialPotential, species: IonSpecies,
                       counts) -> ComScanResult:
    """Lowest (in-phase) axial mode frequency for chains of N equal ions."""
    counts = [int(n) for n in counts]
    if not counts:
        raise ValueError("ion counts must be non-empty")
    if any(n < 1 for n in counts):
        raise ValueError("ion counts must be positive")
    freqs = [float(_solved_frequency(pot, (species,) * n, "com"))
             for n in counts]
    n_arr = np.array(counts, dtype=float)
    f_arr = np.array(freqs)
    if len(counts) >= 2:
        slope, intercept = np.polyfit(n_arr, f_arr, 1)
        pred = slope * n_arr + intercept
        ss_res = float(np.sum((f_arr - pred) ** 2))
        ss_tot = float(np.sum((f_arr - f_arr.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, intercept, r2 = 0.0, float(f_arr[0]), 1.0
    return ComScanResult(counts=tuple(counts), frequencies=tuple(freqs),
                         slope=float(slope), intercept=float(intercept),
                         r_squared=float(r2))
