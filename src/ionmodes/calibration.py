"""Ion-order shifts, anharmonicity nulling, gradient inference, sensitivity.

Odd-order axial anharmonicity shifts a mixed-species pair's mode frequencies
differently for the two ion orders, while even orders do not; the order
shift is therefore a clean handle for nulling odd terms with a trap
parameter.  A residual out-of-phase order shift at the in-phase null reveals
an axial pseudopotential gradient, whose strength scales inversely with ion
mass.

Both root finds are Newton's method.  The family parameter and the
pseudo-gradient act on the on-site terms of a potential affine in them, so
a solved chain gives the exact derivative of its mode frequencies from the
Hessian the solve carries and one third-derivative evaluation.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .modes import ModeSpectrum, _index, _is_integer, mode_spectrum
from .potentials import AxialPotential
from .species import IonSpecies
from .statics import UnconfinedPotentialError, _reordered, solve_equilibrium

IN_PHASE = "in_phase"
OUT_OF_PHASE = "out_of_phase"
NULL_TOLERANCE_HZ = 1.0
MAX_ROOT_ITER = 60
# an order shift's rounding, per unit of the larger frequency: a Newton
# step no larger than it could cause carries no information
_ROUNDING = 4 * sys.float_info.epsilon


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

    f_ab: float   # Hz, speciesA at lower z
    f_ba: float   # Hz, order reversed
    delta: float  # Hz, f_ab - f_ba


def _order_frequencies(pot: AxialPotential, species_a: IonSpecies,
                       species_b: IonSpecies):
    """Spectra of the AB and the BA order, and f[k, o], the frequency of
    mode k (descending) in order o (AB, then BA): one solve per ion order,
    or one for both when the statics cannot tell the orders apart."""
    cfg_ab = solve_equilibrium((species_a, species_b), pot)
    cfg_ba = _reordered(cfg_ab, (species_b, species_a))
    if cfg_ba is None:
        cfg_ba = solve_equilibrium((species_b, species_a), pot)
    spectra = [mode_spectrum(cfg) for cfg in (cfg_ab, cfg_ba)]
    return spectra, np.column_stack([spectrum.frequencies
                                     for spectrum in spectra])


def _check_axial(pot, name: str):
    if not isinstance(pot, AxialPotential):
        raise ValueError(f"{name} must be an AxialPotential, "
                         f"got {type(pot).__name__}")


def _mode(mode, n_modes: int) -> int:
    """Descending index among ``n_modes`` of the mode named by a non-bool
    index, 'com' (the lowest) or, of two modes, a label: the axial Hessian's
    off-diagonal Coulomb terms are negative for any masses, so by
    Perron-Frobenius the lower mode is in phase (OUT_OF_PHASE 0, IN_PHASE 1).
    """
    if mode == "com":
        return n_modes - 1
    if mode in (OUT_OF_PHASE, IN_PHASE):
        if n_modes != 2:
            raise ValueError(f"mode label {mode!r} names one of two modes, "
                             f"not of {n_modes}")
        return (OUT_OF_PHASE, IN_PHASE).index(mode)
    if isinstance(mode, str):
        raise ValueError(f"unknown mode label {mode!r}")
    return _index(mode, n_modes, "mode")


def order_shift(pot: AxialPotential, species_a: IonSpecies,
                species_b: IonSpecies, mode_label=IN_PHASE) -> OrderShiftReport:
    """Frequency difference of one mode (``_mode``) between the AB and BA
    ion orders."""
    _check_axial(pot, "pot")
    k = _mode(mode_label, 2)
    _, f = _order_frequencies(pot, species_a, species_b)
    f_ab, f_ba = f[k].tolist()
    return OrderShiftReport(f_ab, f_ba, delta=f_ab - f_ba)


def _frequency_derivatives(spectrum: ModeSpectrum, family: PotentialFamily,
                           t3: np.ndarray) -> np.ndarray:
    """d f_k / d(p, g) of every mode k of a solved axial chain, shape (K, 2).

    p is the family parameter and g the base's pseudo-gradient (no gradient
    acts without a pseudo_reference, and d f / dg is 0).  Both act on the
    on-site terms alone, so the equilibrium moves by dz = -H^-1 d(grad U)
    and mode k by d omega_k^2 = u_k^T (dH + T3 dz) u_k, with u_k = M^-1/2 v_k
    and T3 the chain's third derivative (Lancaster's eigenvalue derivative).
    """
    cfg = spectrum.config
    base, actions = family.base, family.kappa_actions.items()
    charge, masses = cfg._energy.charge, cfg.masses
    s = cfg.positions - base.expansion_origin
    dgrad = np.zeros((len(s), 2))
    dgrad[:, 0] = charge * (sum(n * a * s**(n - 1) for n, a in actions)
                            - family.field_action)
    if base.pseudo_reference is not None:
        dgrad[:, 1] = charge * base.pseudo_reference.mass / masses
    dh = t3 @ -np.linalg.solve(cfg._hessian, dgrad)
    dh[np.diag_indices(len(s)) + (0,)] += charge * sum(
        n * (n - 1) * a * s**(n - 2) for n, a in actions)
    u = spectrum.eigenvectors / np.sqrt(masses)[:, None]
    dw2 = np.einsum("ik,ijt,jk->kt", u, dh, u)
    return dw2 / (8 * math.pi**2 * spectrum.frequencies[:, None])


def _shift_jacobian(spectra, family: PotentialFamily) -> np.ndarray:
    """Exact derivatives of the order shifts f_ab - f_ba along (p, g), one
    row per mode (descending), from the solved spectra of the AB and the BA
    order at ``family.at(p)``, with g the base's pseudo-gradient.

    A shared solve (``_reordered``) shares its third derivative, the one
    energy evaluation the derivatives add per solve.
    """
    derivs, energy = [], None
    for spectrum in spectra:
        cfg = spectrum.config
        if cfg._energy is not energy:
            energy = cfg._energy
            (t3,) = energy(cfg.positions, 3)
        derivs.append(_frequency_derivatives(spectrum, family, t3))
    return derivs[0] - derivs[1]


def _check_bracket(bracket, name: str):
    if not all(map(math.isfinite, bracket)):
        raise ValueError(f"{name} ends must be finite, got {tuple(bracket)!r}")


def null_parameter(family: PotentialFamily, species_a: IonSpecies,
                   species_b: IonSpecies, mode_label,
                   bracket: tuple[float, float]) -> float:
    """Parameter value nulling the order shift of one mode (``_mode``).

    Requires a sign change over the bracket.  The first iterate is the
    secant point of the bracket ends; from there Newton steps on the exact
    derivative of the shift (``_shift_jacobian``) stay inside the part of
    the bracket that keeps the sign change, bisecting it where a step would
    leave.  Returns the first iterate whose shift is below NULL_TOLERANCE_HZ
    and within 4 ulps of the frequencies (no derivative is then taken) or
    whose Newton point lies within xtol = 1e-14 max(|p_lo|, |p_hi|, 1).  Each
    parameter value solves each ion order once, or once for both orders
    when their statics agree.  The shift jumps at a fold of the equilibrium:
    an iterate past it (no stable chain) raises BracketError naming its p,
    chained to the solver's verdict, and one on its stable side (a Newton
    point within xtol, a shift not null) raises one naming its p and shift.
    """
    _check_axial(family.base, "family.base")
    _check_bracket(bracket, "bracket")
    k = _mode(mode_label, 2)

    def shift(p):
        spectra, f = _order_frequencies(family.at(p), species_a, species_b)
        f_ab, f_ba = f[k].tolist()
        return spectra, f_ab - f_ba, max(f_ab, f_ba)

    p_lo, p_hi = bracket
    d_lo, d_hi = shift(p_lo)[1], shift(p_hi)[1]
    if max(abs(d_lo), abs(d_hi)) < NULL_TOLERANCE_HZ:
        raise BracketError(
            "no sign change: order shift is already null across the bracket")
    if not (np.isfinite(d_lo) and np.isfinite(d_hi)) or d_lo * d_hi > 0:
        raise BracketError(
            f"order shift does not change sign over the bracket: "
            f"delta({p_lo}) = {d_lo:.3g} Hz, delta({p_hi}) = {d_hi:.3g} Hz")
    xtol = 1e-14 * max(abs(p_lo), abs(p_hi), 1.0)
    ends = [p_lo, p_hi]  # the sign-change bracket; ends[0] has d_lo's sign
    p = p_lo - d_lo * (p_hi - p_lo) / (d_hi - d_lo)
    for _ in range(MAX_ROOT_ITER):
        try:
            spectra, d, scale = shift(p)
        except UnconfinedPotentialError as exc:
            raise BracketError(f"no stable chain at p = {p:.10g} inside the "
                               f"bracket: {exc}") from exc
        null = abs(d) < NULL_TOLERANCE_HZ
        if null and abs(d) <= _ROUNDING * scale:
            return p
        slope, _ = _shift_jacobian(spectra, family)[k].tolist()
        newton = p - d / slope if slope else math.nan
        if abs(newton - p) <= xtol:
            if null:
                return p
            raise BracketError(f"order shift jumps at p = {p:.10g}: {d:.3g} "
                               f"Hz there, with a vanishing Newton step")
        ends[(d < 0) != (d_lo < 0)] = p
        p = newton if min(ends) < newton < max(ends) else sum(ends) / 2
    raise BracketError(f"no root after {MAX_ROOT_ITER} steps: stopped at "
                       f"p = {p:.6g}")


def infer_pseudo_gradient(family: PotentialFamily, species_a: IonSpecies,
                          species_b: IonSpecies, measured_out_shift: float,
                          gradient_bracket: tuple[float, float],
                          param_bracket: tuple[float, float]) -> float:
    """Pseudopotential gradient (eV/m) explaining a residual order shift.

    Forward model: with gradient g, the family parameter p nulls the
    in-phase order shift (as in the experiment), and the out-of-phase order
    shift left there equals the measurement.  Both conditions are solved
    together for (p, g) by Newton's method on their exact Jacobian
    (``_shift_jacobian``), started at the bracket midpoints; each iterate
    solves each ion order once and reads both shifts and their derivatives
    from those solves.  A step whose p would leave param_bracket is cut
    back to half the way to the end it would cross.  The iteration stops
    when the g step is within max(1e-10 max(|g_lo|, |g_hi|, 1e-3), the step
    4 ulps of the frequencies could cause) and the in-phase shift is below
    NULL_TOLERANCE_HZ, and returns g plus that step.  A zero-width bracket,
    a second step in a row out of the same param_bracket end, a step whose
    g leaves gradient_bracket, a non-finite shift, a singular Jacobian or
    MAX_ROOT_ITER steps without convergence raise BracketError.
    """
    _check_axial(family.base, "family.base")
    if family.base.pseudo_reference is None:
        raise ValueError("family base must carry a pseudo_reference species")
    if not np.isfinite(measured_out_shift):
        raise ValueError("measured_out_shift must be finite")
    _check_bracket(gradient_bracket, "gradient_bracket")
    _check_bracket(param_bracket, "param_bracket")
    brackets = {"param_bracket": tuple(param_bracket),
                "gradient_bracket": tuple(gradient_bracket)}
    lo, hi = np.sort(list(brackets.values()), axis=1).T
    for name, width in zip(brackets, hi - lo):
        if width == 0:
            raise BracketError(f"{name} {brackets[name]!r} has zero width")

    rows = [_mode(IN_PHASE, 2), _mode(OUT_OF_PHASE, 2)]  # null, measurement

    def evaluate(x):
        p, g = map(float, x)
        fam = dataclasses.replace(family,
                                  base=dataclasses.replace(family.base,
                                                           pseudo_gradient=g))
        spectra, f = _order_frequencies(fam.at(p), species_a, species_b)
        f = f[rows]
        r = f[:, 0] - f[:, 1] - (0.0, measured_out_shift)
        if not np.all(np.isfinite(r)):
            raise BracketError(f"non-finite order shift residual {r} Hz at "
                               f"(p, g) = ({p:.6g}, {g:.6g})")
        return r, _shift_jacobian(spectra, fam)[rows], f.max(axis=1)

    def left(name, k, x):
        return BracketError(f"step {k} left {name} {brackets[name]!r}: "
                            f"(p, g) = ({x[0]:.6g}, {x[1]:.6g})")

    x = (lo + hi) / 2
    xtol = 1e-10 * max(abs(gradient_bracket[0]), abs(gradient_bracket[1]),
                       1e-3)
    crossed = None  # the param_bracket end the last step was cut back from
    for k in range(1, MAX_ROOT_ITER + 1):
        f, jac, scale = evaluate(x)
        try:
            inverse = np.linalg.inv(jac)
        except np.linalg.LinAlgError:
            raise BracketError(f"singular Jacobian at step {k}, (p, g) = "
                               f"({x[0]:.6g}, {x[1]:.6g})") from None
        step = -inverse @ f
        floor = _ROUNDING * np.abs(inverse[1]) @ scale
        if abs(f[0]) < NULL_TOLERANCE_HZ and abs(step[1]) <= max(xtol, floor):
            return float(x[1] + step[1])
        if lo[0] <= x[0] + step[0] <= hi[0]:
            crossed = None
        else:
            end = hi[0] if step[0] > 0 else lo[0]
            if end == crossed:
                raise left("param_bracket", k, x + step)
            crossed = end
            step *= 0.5 * (end - x[0]) / step[0]
        x = x + step
        if not lo[1] <= x[1] <= hi[1]:
            raise left("gradient_bracket", k, x)
    raise BracketError(f"no root after {MAX_ROOT_ITER} steps: stopped at "
                       f"(p, g) = ({x[0]:.6g}, {x[1]:.6g})")


def field_sensitivity(pot: AxialPotential, species, field: float,
                      mode="com") -> float:
    """Fractional squared-frequency (curvature) shift caused by a field.

    Re-solves the equilibrium with the uniform field added and returns
    (f(E)^2 - f(0)^2) / f(0)^2 for the axial mode ``_mode`` names: the
    relative change of the local curvature the displaced chain samples.  To
    first order in E this equals 3 E / (2 kappa2 lambda3) for a single ion
    in a cubic trap, and it vanishes for a purely harmonic potential.
    """
    _check_axial(pot, "pot")
    if isinstance(field, bool) or not isinstance(field, Real) \
            or not math.isfinite(field):
        raise ValueError(f"field must be a finite number in V/m, got {field!r}")
    species = tuple(species)
    k = _mode(mode, len(species))
    f0 = _solved_frequency(pot, species, k)
    shifted = dataclasses.replace(pot, uniform_field=pot.uniform_field + field)
    fe = _solved_frequency(shifted, species, k)
    return float((fe**2 - f0**2) / f0**2)


def _solved_frequency(pot, species, k: int):
    return mode_spectrum(solve_equilibrium(species, pot)).frequencies[k]


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
    """Lowest (in-phase) axial mode frequency for chains of N equal ions.

    The line is fitted when the counts hold at least two distinct values;
    otherwise the slope is 0, the intercept the frequency and r^2 1.
    """
    counts = list(counts)
    if not all(map(_is_integer, counts)):
        raise ValueError(f"ion counts must be integers, got {counts!r}")
    if not counts:
        raise ValueError("ion counts must be non-empty")
    if any(n < 1 for n in counts):
        raise ValueError("ion counts must be positive")
    freqs = [float(_solved_frequency(pot, (species,) * n, _mode("com", n)))
             for n in counts]
    n_arr = np.array(counts, dtype=float)
    f_arr = np.array(freqs)
    if len(set(counts)) >= 2:
        slope, intercept = np.polyfit(n_arr, f_arr, 1)
        pred = slope * n_arr + intercept
        ss_res = float(np.sum((f_arr - pred) ** 2))
        ss_tot = float(np.sum((f_arr - f_arr.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, intercept, r2 = 0.0, float(f_arr[0]), 1.0
    return ComScanResult(counts=tuple(map(int, counts)),
                         frequencies=tuple(freqs),
                         slope=float(slope), intercept=float(intercept),
                         r_squared=float(r2))
