import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq, root

from ionmodes import BE9, MG24, MGH25, BracketError, ChainConfiguration, \
    OrderShiftReport, axial_from_lambdas, energy_gradient, harmonic_axial, \
    mode_spectrum, solve_equilibrium
from ionmodes.calibration import IN_PHASE, MAX_ROOT_ITER, NULL_TOLERANCE_HZ, \
    OUT_OF_PHASE
from ionmodes.constants import EPSILON_0, HBAR, PLANCK


def pytest_configure(config):
    """Let CLI tests' ``python -m ionmodes.cli`` subprocesses import the
    package from this checkout, as ``pythonpath`` does for pytest itself."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


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


def onsite_oracle(energy, pos, m, axial):
    """Trap terms d^m(q V_t)/dr^m of each ion, shape (N,) + (k,) * m, one
    order at a time: each trap tensor broadcast over the ions and
    contracted with v = r - (0, 0, z0) by one einsum per index.

    The per-order form of ``statics._Energy._onsite``, which shares one
    contraction chain between the orders of a call.
    """
    n, k = pos.shape
    if k == 1:
        return axial.reshape((n,) + (1,) * m)
    blk = np.zeros((n,) + (3,) * m)
    blk[(slice(None),) + (2,) * m] = axial
    if energy.trap is None:
        return blk
    if m <= 2:
        for a in (0, 1):
            c = math.perm(2, m) * energy.charge * energy.radial[:, a]
            blk[(slice(None),) + (a,) * m] += c * pos[:, a] ** (2 - m)
    if energy.trap.has_tensors:
        v = pos - np.array([0.0, 0.0, energy.axial.expansion_origin])
        q = energy.charge.reshape((n,) + (1,) * m)
        for rank, coeffs in ((3, energy.trap.trap_cubic),
                             (4, energy.trap.trap_quartic)):
            if m > rank:
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
    """Dense Hamiltonian (J) in the truncated product Fock basis: one matrix
    product chain per nonzero tensor entry (the library builds it sparse)."""
    omega = np.asarray(omega, dtype=float)
    nm = len(omega)
    a_ops = mode_operators(nm, cutoff)
    dim = cutoff**nm
    h = np.zeros((dim, dim))
    for k in range(nm):
        nk = a_ops[k].T @ a_ops[k]
        h += HBAR * omega[k] * (nk + 0.5 * np.eye(dim))
    xs = [op + op.T for op in a_ops]
    if g3 is not None:
        g3 = np.asarray(g3, dtype=float)
        for idx in np.ndindex(*g3.shape):
            if g3[idx]:
                h += g3[idx] * (xs[idx[0]] @ xs[idx[1]] @ xs[idx[2]])
    if g4 is not None:
        g4 = np.asarray(g4, dtype=float)
        for idx in np.ndindex(*g4.shape):
            if g4[idx]:
                h += g4[idx] * (xs[idx[0]] @ xs[idx[1]] @ xs[idx[2]] @ xs[idx[3]])
    return h


def dense_transition_frequency(omega, g3, g4, occupations, z, cutoff):
    """n_Z -> n_Z + 1 transition frequency (Hz) from a full dense eigh of
    :func:`dense_hamiltonian`, each level the eigenstate of largest overlap
    with its label.  Also returns each level's squared overlap."""
    h = dense_hamiltonian(omega, g3, g4, cutoff)
    evals, evecs = eigh(h)
    dims = (cutoff,) * len(omega)
    upper = list(occupations)
    upper[z] += 1
    energies, weights = [], []
    for label in (occupations, upper):
        row = evecs[np.ravel_multi_index(tuple(label), dims)] ** 2
        energies.append(evals[np.argmax(row)])
        weights.append(row.max())
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
    for n0, wgt in weights.items():
        c0 = evecs[idx(0, 0, n0), :]     # <k|psi0> for the real eigenbasis
        m = evecs * c0[None, :]          # m[b, k] = <b|k><k|psi0>
        pops += wgt * ((cos_et @ m.T) ** 2 + (sin_et @ m.T) ** 2)
        a_steady += wgt * float((np.abs(m) ** 2).sum(axis=1) @ a_oper)
    return pops, a_oper, a_steady


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
