import dataclasses
import itertools
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq, root

from ionmodes import BE9, MG24, MGH25, BracketError, ChainConfiguration, \
    CutoffError, OrderShiftReport, StateMatchError, axial_from_lambdas, \
    harmonic_axial, mode_spectrum, solve_equilibrium
from ionmodes import anharmonic, modes, statics
from ionmodes.calibration import IN_PHASE, MAX_ROOT_ITER, NULL_TOLERANCE_HZ, \
    OUT_OF_PHASE
from ionmodes.constants import EPSILON_0, HBAR, PLANCK


def pytest_configure(config):
    """Let CLI tests' ``python -m ionmodes.cli`` subprocesses import the
    package from this checkout, as ``pythonpath`` does for pytest itself."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


# ------------------------------------------------------------ approx guard
# pytest.approx falls back to abs=1e-12 when no abs is given, so an
# approx comparison of SI quantities far below 1e-12 (energies near 1e-25 J,
# tensors near 1e-30 J) passes whatever its rel says.  Every approx made
# without an explicit abs therefore also checks its own rel with abs=0 and
# fails, naming its call site, when only the default abs let it pass.

_approx = pytest.approx
_guarded_types = {}


def _guarded_eq(self, actual):
    __tracebackhide__ = True
    ok = super(type(self), self).__eq__(actual)
    if ok and not self.strict == actual:
        pytest.fail(f"{self.site}: pytest.approx passes only through its "
                    "default abs=1e-12; give abs explicitly", pytrace=False)
    return ok


def guarded_approx(expected, rel=None, abs=None, nan_ok=False):
    """pytest.approx whose comparisons fail when they pass only through
    the default absolute tolerance."""
    approx = _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)
    if abs is None:
        base = type(approx)
        if base not in _guarded_types:
            _guarded_types[base] = type(base.__name__, (base,),
                                        {"__eq__": _guarded_eq})
        approx.__class__ = _guarded_types[base]
        approx.strict = _approx(expected, rel=1e-6 if rel is None else rel,
                                abs=0, nan_ok=nan_ok)
        caller = sys._getframe(1)
        approx.site = (f"{Path(caller.f_code.co_filename).name}:"
                       f"{caller.f_lineno}")
    return approx


pytest.approx = guarded_approx


KAPPA2 = 1.3e7  # V/m^2, the two-layer-trap working point (2.655 MHz for Be+)
LAMBDA3 = -230e-6
LAMBDA4 = 250e-6


@pytest.fixture
def be():
    return BE9


@pytest.fixture
def mg():
    return MG24


@pytest.fixture
def mgh():
    return MGH25


@pytest.fixture
def pot_harmonic():
    return harmonic_axial(KAPPA2)


@pytest.fixture
def pot_cubic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3})


@pytest.fixture
def pot_anharmonic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})


@pytest.fixture
def energy_calls(monkeypatch):
    """Counter of ``statics._Energy`` builds ("build") and evaluations
    ("evaluate": calls and quartic diagonals) made in the test."""
    counts = Counter()

    class Recorder(statics._Energy):
        def __init__(self, *args):
            counts["build"] += 1
            super().__init__(*args)

        def __call__(self, *args):
            counts["evaluate"] += 1
            return super().__call__(*args)

        def quartic_diagonal(self, *args):
            counts["evaluate"] += 1
            return super().quartic_diagonal(*args)

    for module in (statics, modes, anharmonic):
        if hasattr(module, "_Energy"):
            monkeypatch.setattr(module, "_Energy", Recorder)
    return counts


def total_energy(positions, species, potential) -> float:
    """Total potential energy (J) at arbitrary positions: (N,) axial for an
    AxialPotential, (N, 3) for a TrapModel3D."""
    return statics._Energy(species, potential)(positions, 0)[0]


def energy_gradient(positions, species, potential) -> np.ndarray:
    """Analytic gradient dU/dz_k (J/m), flattened over coordinates."""
    return statics._Energy(species, potential)(positions, 1)[0]


def energy_hessian(positions, species, potential) -> np.ndarray:
    """Analytic Hessian d2U/dz_k dz_l (J/m^2) over flattened coordinates."""
    return statics._Energy(species, potential)(positions, 2)[0]


def make_cfg(species, potential, positions) -> ChainConfiguration:
    """Configuration at arbitrary positions (for derivative tests)."""
    pos = np.asarray(positions, dtype=float)
    g = energy_gradient(pos, tuple(species), potential)
    return ChainConfiguration(species=tuple(species), positions=pos,
                              potential=potential,
                              residual_gradient=float(np.max(np.abs(g))))


def symmetric_tensor(rng, shape, scale):
    """A random tensor averaged over all permutations of its axes."""
    t = rng.standard_normal(shape)
    perms = list(itertools.permutations(range(len(shape))))
    return sum(np.transpose(t, p) for p in perms) / len(perms) * scale


def richardson_derivative(f, x, h):
    """Richardson-extrapolated central difference of a scalar function."""
    def central(step):
        return (f(x + step) - f(x - step)) / (2 * step)

    return (4 * central(h / 2) - central(h)) / 3


def rel_err(a, b, floor=0.0):
    """Elementwise relative error with a significance floor."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    scale[scale == 0] = 1.0
    return np.abs(a - b) / scale


def chain_oracle(kappa, mass, charge, n):
    """Axial positions (m) and mode frequencies (Hz, descending) of n equal
    ions in V(z) = sum_k kappa[k] z^k, independent of ionmodes' solver.

    Roots the force balance q V'(z_i) = sum_j k sign(z_i - z_j)/(z_i - z_j)^2
    (k = q^2/4 pi eps0) with the analytic 1D Hessian as its Jacobian, then
    diagonalises that Hessian over the mass.
    """
    kc = charge**2 / (4 * math.pi * EPSILON_0)
    unit = (charge / (8 * math.pi * EPSILON_0 * kappa[2])) ** (1 / 3)

    def dv(z, m):
        return sum(math.perm(k, m) * c * z ** (k - m)
                   for k, c in kappa.items() if k >= m)

    def pairs(z, power):
        d = z[:, None] - z[None, :] + np.diag(np.full(len(z), np.inf))
        return np.sign(d) / np.abs(d) ** power

    def hessian(z):
        h = -2 * kc * np.abs(pairs(z, 3))
        return h + np.diag(charge * dv(z, 2) - h.sum(1))

    def force(u):  # positions in units of l, forces in units of k/l^2
        z = u * unit
        return (charge * dv(z, 1) - kc * pairs(z, 2).sum(1)) * unit**2 / kc

    sol = root(force, np.linspace(-1, 1, n) * n ** 0.6,
               jac=lambda u: hessian(u * unit) * unit**3 / kc, tol=1e-14)
    assert np.max(np.abs(sol.fun)) < 1e-12, sol.message
    z = sol.x * unit
    w2 = np.linalg.eigvalsh(hessian(z) / mass)[::-1]
    return z, np.sqrt(w2) / (2 * math.pi)


def onsite_oracle(potential, species, pos, m, axial):
    """Trap terms d^m(q V_t)/dr^m of each ion, shape (N,) + (k,) * m, one
    order at a time: each ion's radial curvatures from ``radial_for``, one
    term per transverse axis, and each nonzero trap tensor broadcast over the
    ions and contracted with v = r - (0, 0, z0) by one einsum per index.

    The per-order, per-term form of ``statics._Energy._onsite``, which runs
    every on-site tensor through one contraction chain shared between the
    orders of a call.
    """
    n, k = pos.shape
    if k == 1:
        return axial.reshape((n,) + (1,) * m)
    charge = np.array([sp.charge_si for sp in species])
    blk = np.zeros((n,) + (3,) * m)
    blk[(slice(None),) + (2,) * m] = axial
    if m <= 2:
        radial = np.array([potential.radial_for(sp) for sp in species])
        for a in (0, 1):
            c = math.perm(2, m) * charge * radial[:, a]
            blk[(slice(None),) + (a,) * m] += c * pos[:, a] ** (2 - m)
    v = pos - np.array([0.0, 0.0, potential.axial.expansion_origin])
    q = charge.reshape((n,) + (1,) * m)
    for rank, coeffs in ((3, potential.trap_cubic),
                         (4, potential.trap_quartic)):
        if m > rank or not coeffs.any():
            continue
        t = np.broadcast_to(coeffs, (n,) + coeffs.shape)
        for _ in range(rank - m):
            t = np.einsum("n...a,na->n...", t, v)
        blk += math.perm(rank, m) * q * t
    return blk


def shift_oracle(tensors, spectrum, occupations, z):
    """Anharmonic shift (Hz) of the n_Z <-> n_Z + 1 transition, summed term
    by term over modes and mode pairs with no resonance guard.

    The loop form of the library's closed-form kernel: the same first-order
    quartic and second-order cubic expression, evaluated at the given
    occupations, so chi_Za is oracle(n + e_a) - oracle(n).
    """
    g3, g4 = tensors.G3, tensors.G4
    w = spectrum.angular
    d = len(w)
    n = np.asarray(occupations)
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


class ResonanceFlag(NamedTuple):
    kind: str          # "2:1", "sum", or "difference"
    modes: tuple       # (Z, alpha) or (Z, alpha, beta)
    value: float       # denominator value, rad^2/s^2
    normalized: float  # |value| / max(omega)^2


def detect_resonances(spectrum, rel_tol=anharmonic.RESONANCE_HARD):
    """Flag perturbation-theory denominators below rel_tol * max(omega)^2:
    two-phonon conversion (omega_Z ~ 2 omega_a, Z != a) and sum/difference
    processes ((omega_b +- omega_a) ~ omega_Z, Z, a, b distinct, a < b).

    The library's resonance guard before it read the kernel's own
    denominators; per mode Z, its 2:1 flags, then each pair's difference
    and sum flags.
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
    flags.sort(key=lambda f: (f[1][0], f[0] != "2:1"))
    return [ResonanceFlag(kind, tuple(map(int, modes)), float(val),
                          abs(val) / scale)
            for kind, modes, val in flags]


def oracle_chi(tensors, spectrum):
    """Zero-occupation shifts and chi from unit-occupation differences of
    :func:`shift_oracle`."""
    d = len(spectrum.angular)
    zero = np.zeros(d, dtype=int)
    base = np.array([shift_oracle(tensors, spectrum, zero, z) for z in range(d)])
    chi = np.array([[shift_oracle(tensors, spectrum, np.eye(d, dtype=int)[a], z)
                     for a in range(d)] for z in range(d)]) - base[:, None]
    return base, chi


def mode_operators(n_modes: int, cutoff: int):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    eye = np.eye(cutoff)
    ops = []
    for k in range(n_modes):
        factors = [eye] * n_modes
        factors[k] = a
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full)
    return ops


def dense_hamiltonian(omega, g3=None, g4=None, cutoff: int = 10) -> np.ndarray:
    """Dense Hamiltonian (J) in the truncated product Fock basis: one product
    of full-space x operators per nonzero tensor entry, multiplied as sparse
    matrices (the library works per mode and per diagonal instead)."""
    from scipy import sparse

    omega = np.asarray(omega, dtype=float)
    nm = len(omega)
    a_ops = mode_operators(nm, cutoff)
    dim = cutoff**nm
    h = np.zeros((dim, dim))
    for k in range(nm):
        nk = a_ops[k].T @ a_ops[k]
        h += HBAR * omega[k] * (nk + 0.5 * np.eye(dim))
    xs = [sparse.csr_matrix(op + op.T) for op in a_ops]
    for g in (g3, g4):
        if g is not None:
            g = np.asarray(g, dtype=float)
            for idx in np.ndindex(*g.shape):
                if g[idx]:
                    product = xs[idx[0]]
                    for i in idx[1:]:
                        product = product @ xs[i]
                    h += g[idx] * product.toarray()
    return h


def dense_transition_frequency(omega, g3, g4, occupations, z, cutoff,
                               refuse=False):
    """n_Z -> n_Z + 1 transition frequency (Hz) from a full dense eigh of
    :func:`dense_hamiltonian`, each level the eigenstate of largest overlap
    with its label.  Also returns each level's squared overlap.

    With ``refuse``, raises where the library must: StateMatchError when a
    label's largest squared overlap is below 1/4, then CutoffError when a
    matched eigenvector puts more than 1e-6 on the last level of any mode.
    """
    h = dense_hamiltonian(omega, g3, g4, cutoff)
    evals, evecs = eigh(h)
    dims = (cutoff,) * len(omega)
    upper = list(occupations)
    upper[z] += 1
    energies, weights, vectors = [], [], []
    for label in (occupations, upper):
        row = evecs[np.ravel_multi_index(tuple(label), dims)] ** 2
        energies.append(evals[np.argmax(row)])
        weights.append(row.max())
        vectors.append(evecs[:, np.argmax(row)])
    if refuse:
        if min(weights) < 0.25:
            raise StateMatchError(f"largest squared overlap {min(weights)}")
        edge = np.any(np.indices(dims) == cutoff - 1, axis=0).ravel()
        if max(np.sum(v[edge] ** 2) for v in vectors) > 1e-6:
            raise CutoffError("population on the last Fock level")
    return (energies[1] - energies[0]) / PLANCK, weights


def dense_flop_populations(eta1, eta2, initial, omega0, t):
    """Exact joint populations of the two-spin/shared-mode blue sideband.

    Returns (pops, a_oper, a_steady): ``pops[k, b]`` is the population of
    basis state b = (s1, s2, n) at time t[k]; ``a_oper`` maps populations to
    the fluorescence observable; ``a_steady`` is its diagonal-ensemble
    (infinite-time average) value.
    """
    if eta1 < 0 or eta2 < 0:
        raise ValueError("Lamb-Dicke parameters must be non-negative")
    if isinstance(initial, (int, np.integer)):
        weights = {int(initial): 1.0}
        nmax = int(initial) + max(30, 4 * int(initial))
    else:
        nb = float(initial)
        if nb < 0:
            raise ValueError("thermal nbar must be non-negative")
        # the same weights as the code under test: every n below the point
        # where the thermal tail mass q^N falls under 1e-12
        q = nb / (1 + nb)
        nmax = math.ceil(math.log(1e-12) / math.log(q)) if q else 1
        ns = np.arange(nmax)
        w = q ** ns / (1 + nb)
        weights = {int(n): float(wn) for n, wn in zip(ns, w)}
        # the sideband moves n by at most 2, so this pad is exact and ample
        nmax += 30

    dim = 4 * nmax
    # basis: |s1 s2 n> with s in {down=0, up=1}
    def idx(s1, s2, n):
        return (s1 * 2 + s2) * nmax + n

    h = np.zeros((dim, dim))
    for n in range(nmax - 1):
        g = math.sqrt(n + 1) / 2.0
        for (s1, s2, s1p, s2p, eta) in (
                (0, 0, 1, 0, eta1), (0, 1, 1, 1, eta1),
                (0, 0, 0, 1, eta2), (1, 0, 1, 1, eta2)):
            i, j = idx(s1, s2, n), idx(s1p, s2p, n + 1)
            h[i, j] += omega0 * eta * g
            h[j, i] += omega0 * eta * g
    evals, evecs = eigh(h)

    a_oper = np.zeros(dim)
    for n in range(nmax):
        a_oper[idx(1, 1, n)] = 1.0
        a_oper[idx(1, 0, n)] = 0.5
        a_oper[idx(0, 1, n)] = 0.5

    pops = np.zeros((len(t), dim))
    a_steady = 0.0
    # |sum_k e^{-i E_k t} m[b, k]|^2 with real m, as two real products
    cos_et, sin_et = np.cos(np.outer(t, evals)), np.sin(np.outer(t, evals))
    # the infinite-time average keeps the coherence inside each degenerate
    # eigenspace (every block has a double zero at eta1 = eta2), so sum m
    # over each run of equal ascending eigenvalues before squaring
    same = np.diff(evals) <= 1e-9 * np.max(np.abs(evals))
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    for n0, wgt in weights.items():
        c0 = evecs[idx(0, 0, n0), :]     # <k|psi0> for the real eigenbasis
        m = evecs * c0[None, :]          # m[b, k] = <b|k><k|psi0>
        pops += wgt * ((cos_et @ m.T) ** 2 + (sin_et @ m.T) ** 2)
        projected = np.add.reduceat(m, starts, axis=1)
        a_steady += wgt * float((projected ** 2).sum(axis=1) @ a_oper)
    return pops, a_oper, a_steady


# ------------------------------------------------------------ gate oracle
# The ideal phase-space loop of the geometric phase gate (Leibfried et al.,
# Nature 422, 412 (2003)); thermal_gate_infidelity is its thermal average
# to leading order in the detuning error.

@dataclasses.dataclass(frozen=True)
class GateParams:
    """Drive parameters of the geometric phase gate."""

    omega_drive: float  # rad/s, state-dependent-force strength
    delta: float        # rad/s, detuning from the gate mode

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("detuning must be nonzero")

    @property
    def duration(self) -> float:
        """One phase-space loop, 2 pi / |delta| (s)."""
        return 2 * math.pi / abs(self.delta)


def gate_trajectory(params: GateParams, t):
    """Phase-space displacement alpha(t) and geometric phase Phi(t).

    alpha(t) = -(Omega/delta) e^(-i delta t / 2) sin(delta t / 2),
    Phi(t)   = (Omega/delta)^2 [sin(delta t) - delta t] / 4.
    """
    t = np.asarray(t, dtype=float)
    om, de = params.omega_drive, params.delta
    alpha = -(om / de) * np.exp(-1j * de * t / 2) * np.sin(de * t / 2)
    phi = (om / de) ** 2 / 4.0 * (np.sin(de * t) - de * t)
    if t.shape:
        return alpha, phi
    return complex(alpha), float(phi)


def gate_fidelity(alpha, phi) -> float:
    """Bell-state fidelity after the spin-echo gate sequence.

    F = 3/8 + (1/8) e^(-2|alpha|^2) + (1/2) e^(-|alpha|^2/2) sin |Phi|.
    Only |Phi| = pi/2 is constrained by the ideal outcome, so the magnitude
    of the geometric phase is used.
    """
    a2 = abs(alpha) ** 2
    return float(3 / 8 + np.exp(-2 * a2) / 8
                 + np.exp(-a2 / 2) * np.sin(abs(phi)) / 2)


# ----------------------------------------------------- calibration oracle
# The unshared root finds: every evaluation solves both ion orders afresh.
# The library shares solves within a call and must return the same floats.

def _labelled_frequency_oracle(spectrum, mode_label):
    if spectrum.n_modes != 2:
        raise ValueError("in/out-of-phase labelling applies to two-ion spectra")
    for k in range(2):
        v = spectrum.eigenvectors[:, k]
        in_phase = v[0] * v[1] > 0
        if (mode_label == IN_PHASE) == in_phase:
            return float(spectrum.frequencies[k])
    raise ValueError(f"no mode with label {mode_label!r}")


def order_shift_oracle(pot, species_a, species_b, mode_label=IN_PHASE):
    if mode_label not in (IN_PHASE, OUT_OF_PHASE):
        raise ValueError(f"unknown mode label {mode_label!r}")
    f = {}
    for tag, order in (("ab", (species_a, species_b)),
                       ("ba", (species_b, species_a))):
        cfg = solve_equilibrium(order, pot)
        f[tag] = _labelled_frequency_oracle(mode_spectrum(cfg), mode_label)
    return OrderShiftReport(mode_label=mode_label, f_ab=f["ab"], f_ba=f["ba"],
                            delta=f["ab"] - f["ba"])


def null_parameter_oracle(family, species_a, species_b, mode_label, bracket,
                          tol_hz=NULL_TOLERANCE_HZ):
    p_lo, p_hi = bracket

    def delta(p):
        return order_shift_oracle(family.at(p), species_a, species_b,
                                  mode_label).delta

    d_lo, d_hi = delta(p_lo), delta(p_hi)
    if max(abs(d_lo), abs(d_hi)) < tol_hz:
        raise BracketError(
            "no sign change: order shift is already null across the bracket")
    if not (np.isfinite(d_lo) and np.isfinite(d_hi)) or d_lo * d_hi > 0:
        raise BracketError(
            f"order shift does not change sign over the bracket: "
            f"delta({p_lo}) = {d_lo:.3g} Hz, delta({p_hi}) = {d_hi:.3g} Hz")
    p_star = brentq(delta, p_lo, p_hi, maxiter=MAX_ROOT_ITER,
                    xtol=1e-14 * max(abs(p_lo), abs(p_hi), 1.0))
    residual = delta(p_star)
    if abs(residual) >= tol_hz:
        raise BracketError(
            f"root residual {residual:.3g} Hz exceeds {tol_hz} Hz")
    return float(p_star)


def infer_pseudo_gradient_oracle(family, species_a, species_b,
                                 measured_out_shift, gradient_bracket,
                                 param_bracket):
    if family.base.pseudo_reference is None:
        raise ValueError("family base must carry a pseudo_reference species")

    def residual(g):
        fam = dataclasses.replace(family,
                                  base=dataclasses.replace(family.base,
                                                           pseudo_gradient=g))
        p_star = null_parameter_oracle(fam, species_a, species_b, IN_PHASE,
                                       param_bracket)
        out = order_shift_oracle(fam.at(p_star), species_a, species_b,
                                 OUT_OF_PHASE)
        return out.delta - measured_out_shift

    g_lo, g_hi = gradient_bracket
    r_lo, r_hi = residual(g_lo), residual(g_hi)
    if r_lo * r_hi > 0:
        raise BracketError(
            f"no gradient root in bracket: residual({g_lo}) = {r_lo:.3g} Hz, "
            f"residual({g_hi}) = {r_hi:.3g} Hz")
    return float(brentq(residual, g_lo, g_hi, maxiter=MAX_ROOT_ITER,
                        xtol=1e-10 * max(abs(g_lo), abs(g_hi), 1e-3)))
