import dataclasses
import functools
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
    AxialPotential, CutoffError, OrderShiftReport, StateMatchError, \
    axial_from_lambdas, mode_spectrum, solve_equilibrium
from ionmodes import anharmonic, modes, statics
from ionmodes.calibration import IN_PHASE, MAX_ROOT_ITER, NULL_TOLERANCE_HZ, \
    OUT_OF_PHASE
from ionmodes.constants import EPSILON_0, HBAR, PLANCK
from ionmodes.fockspace import exact_transition_frequency


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
    return AxialPotential(kappa={2: KAPPA2})


@pytest.fixture
def pot_cubic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3})


@pytest.fixture
def pot_anharmonic():
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})


class EnergyCalls(Counter):
    """Counter of ``statics._Energy`` builds ("build") and evaluations
    ("evaluate": calls and quartic diagonals), with the derivative orders of
    each call, in turn, in ``orders``."""

    def __init__(self):
        super().__init__()
        self.orders = []

    def clear(self):
        super().clear()
        self.orders.clear()


@pytest.fixture
def energy_calls(monkeypatch):
    """The ``EnergyCalls`` made in the test."""
    counts = EnergyCalls()

    class Recorder(statics._Energy):
        def __init__(self, *args):
            counts["build"] += 1
            super().__init__(*args)

        def __call__(self, positions, *orders):
            counts["evaluate"] += 1
            counts.orders.append(orders)
            return super().__call__(positions, *orders)

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


def inv_r_oracle(r, rn, order):
    """d^m(1/|r|) for m = 0 to 4 with each Kronecker-delta placement written
    out as its own broadcast term, given |r| of shape r.shape[:-1].

    The term-by-term form of ``coulomb._derivative``, which sums the delta
    placements of orders 3 and 4 by tables set up once per component count;
    its order-3 grouping is the same, so orders 0 to 3 agree bit for bit.
    """
    k = r.shape[-1]
    eye = np.eye(k)
    if order == 0:
        return 1.0 / rn
    rn = rn[(...,) + (None,) * order]  # broadcast to the result's rank
    if order == 1:
        return -r / rn**3
    if order == 2:
        return (3.0 * (r[..., :, None] * r[..., None, :]) - rn**2 * eye) / rn**5
    # r with its component axis on each derivative axis in turn
    ra = [r[(...,) + (None,) * a + (slice(None),) + (None,) * (order - 1 - a)]
          for a in range(order)]

    def v(*axes):  # r_a r_b ... on the given derivative axes
        out = ra[axes[0]]
        for ax in axes[1:]:
            out = out * ra[ax]
        return out

    def d(a, b):  # Kronecker delta on derivative axes a and b
        shape = [1] * order
        shape[a] = shape[b] = k
        return eye.reshape(shape)

    if order == 3:
        deltas = d(0, 1) * v(2) + d(0, 2) * v(1) + d(1, 2) * v(0)
        return -3.0 * (5.0 * v(0, 1, 2) - rn**2 * deltas) / rn**7
    pair = (d(0, 1) * v(2, 3) + d(0, 2) * v(1, 3) + d(0, 3) * v(1, 2)
            + d(1, 2) * v(0, 3) + d(1, 3) * v(0, 2) + d(2, 3) * v(0, 1))
    dd = d(0, 1) * d(2, 3) + d(0, 2) * d(1, 3) + d(0, 3) * d(1, 2)
    return (105.0 * v(0, 1, 2, 3) - 15.0 * rn**2 * pair
            + 3.0 * rn**4 * dd) / rn**9


@functools.lru_cache(maxsize=None)
def ladder_words(d, order, closed=False):
    """Every product of ``order`` ladder operators a_k or a_k^dag on d modes,
    so that a product of ``order`` x = a + a^dag is the sum of its words;
    with ``closed``, only the words that restore every occupation.

    Returns each word's mode indices and signs (+1 raise, -1 lower), one
    column per factor from left to right, its group (the row of ``delta``
    holding the word's change of the occupations) and ``delta``.
    """
    words = np.array(list(itertools.product(range(d), repeat=order)))
    idx = np.repeat(words, 2**order, axis=0)
    sgn = np.tile(np.array(list(itertools.product((1, -1), repeat=order))),
                  (d**order, 1))
    change = np.zeros((len(idx), d), dtype=np.int8)
    np.add.at(change, (np.arange(len(idx))[:, None], idx), sgn)
    if closed:
        kept = ~change.any(axis=1)
        idx, sgn, change = idx[kept], sgn[kept], change[kept]
    delta, group = np.unique(change, axis=0, return_inverse=True)
    return idx, sgn, group.ravel(), delta.astype(int)


def word_amplitudes(idx, sgn, n):
    """<n + change| word |n> of every ladder word, its rightmost factor
    applied first: sqrt(n + 1) per raise and sqrt(n) per lower."""
    rows = np.arange(len(idx))
    occ = np.tile(np.asarray(n), (len(idx), 1))
    amp = np.ones(len(idx))
    for k, s in zip(idx.T[::-1], sgn.T[::-1]):
        now = occ[rows, k]
        amp *= np.sqrt(np.maximum(now + (s > 0), 0))
        occ[rows, k] = now + s
    return amp


def shift_oracle(tensors, spectrum, occupations, z):
    """Anharmonic shift (Hz) of the n_Z <-> n_Z + 1 transition by
    Rayleigh-Schroedinger perturbation theory in the Fock basis, with no
    resonance guard: <n|V4|n> + sum_m |<m|V3|n>|^2 / (E_n - E_m), upper
    level minus lower, for V3 = sum G3_abc x_a x_b x_c and V4 likewise.

    Each matrix element is summed over the ladder words of the tensor's
    entries, independent of the library's closed-form kernel.  The two
    levels are differenced per word and per final state before any sum, so
    a term they share cancels exactly.
    """
    w = spectrum.angular
    d = len(w)
    lower = np.asarray(occupations)
    levels = (lower + np.eye(d, dtype=int)[z], lower)
    idx, sgn, group, delta = ladder_words(d, 3)
    g3 = tensors.G3[tuple(idx.T)]
    up, lo = (np.bincount(group, g3 * word_amplitudes(idx, sgn, n), len(delta))
              for n in levels)
    second = np.sum((up**2 - lo**2) / (-HBAR * (delta @ w)))
    idx, sgn, _, _ = ladder_words(d, 4, closed=True)
    up, lo = (word_amplitudes(idx, sgn, n) for n in levels)
    first = np.sum(tensors.G4[tuple(idx.T)] * (up - lo))
    return (first + second) / PLANCK


class ResonanceFlag(NamedTuple):
    kind: str          # "2:1", "sum", or "difference"
    modes: tuple       # (Z, alpha) or (Z, alpha, beta)
    value: float       # denominator value, rad^2/s^2
    normalized: float  # |value| / max(omega)^2


def detect_resonances(spectrum, rel_tol=1e-3):
    """Frequency-only screen: flag perturbation-theory denominators below
    rel_tol * max(omega)^2, two-phonon conversion (omega_Z ~ 2 omega_a,
    Z != a) and sum/difference processes ((omega_b +- omega_a) ~ omega_Z,
    Z, a, b distinct, a < b); per mode Z, its 2:1 flags, then each pair's
    difference and sum flags.  It asks nothing about coupling, which
    martin_resonances weighs in.
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


class MartinFlag(NamedTuple):
    kind: str      # "2:1", "sum", or "difference"
    modes: tuple   # (Z, alpha) or (Z, alpha, beta)
    ratio: float   # (W / hbar Delta)^2, inf on an exact resonance


def martin_resonances(g3, spectrum, limit):
    """Martin's test (J. Chem. Phys. 103, 2589 (1995)) as two scans of
    processes, the differences and then the sums: each process whose
    zero-occupation coupling W and detuning Delta = |w_Z - |w_b -+ w_a||
    have (W / hbar Delta)^2 above ``limit``.

    A process has Z not in {a, b} and a < b, or a = b for the 2:1 sum
    w_Z ~ 2 w_a.  W is 6 |G3_Zab| for three distinct modes and
    3 sqrt(2) |G3_aaZ| for a 2:1: the matrix element of V3 between one
    quantum of Z and one each of a and b (two of a), nothing else excited.
    """
    w = spectrum.angular
    flags = []
    for kind, sign in (("difference", -1), ("sum", 1)):
        for z, a, b in itertools.product(range(len(w)), repeat=3):
            if z in (a, b) or a > b or (a == b and sign < 0):
                continue
            if a == b:
                label, process, coupling = \
                    "2:1", (z, a), 3 * math.sqrt(2) * abs(g3[a, a, z])
            else:
                label, process, coupling = kind, (z, a, b), 6 * abs(g3[z, a, b])
            detuning = HBAR * abs(w[z] - abs(w[b] + sign * w[a]))
            if coupling**2 > limit * detuning**2:
                flags.append(MartinFlag(label, process, (coupling / detuning)**2
                                        if detuning else math.inf))
    return flags


def oracle_chi(tensors, spectrum):
    """Zero-occupation shifts and chi from unit-occupation differences of
    :func:`shift_oracle`."""
    d = len(spectrum.angular)
    zero = np.zeros(d, dtype=int)
    base = np.array([shift_oracle(tensors, spectrum, zero, z) for z in range(d)])
    chi = np.array([[shift_oracle(tensors, spectrum, np.eye(d, dtype=int)[a], z)
                     for a in range(d)] for z in range(d)]) - base[:, None]
    return base, chi


def weak_coupling_instances(rng, count, n_modes=None):
    """Yield ``count`` random weak-coupling instances as (spectrum, tensors,
    eps, residual): the distance (Hz) between ``frequency_shift`` and exact
    Fock-space diagonalisation for one random transition.  Each instance
    draws 1 or 2 modes when ``n_modes`` is None.

    Couplings follow the physical hierarchy of a single anharmonicity
    length: cubic ~ eps, quartic ~ eps^2 in units of the mean mode quantum
    (a quartic drawn at order eps would contribute an O(eps^2) second-order
    energy absent from the first-order-in-quartic shift formula, swamping
    the cubic third-order residual).  Instances keep all perturbation
    denominators away from zero, including the inter-mode gaps that control
    phonon-exchange mixing at higher orders: the formula presumes detuning
    from all such resonances.
    """
    checked = 0
    while checked < count:
        d = int(rng.integers(1, 3)) if n_modes is None else n_modes
        f = np.sort(rng.uniform(1.5e6, 8e6, size=d))[::-1]
        if d == 2:
            # keep every combination frequency |a w1 - b w2| reachable
            # by three cubic vertices (|a| + |b| <= 9) at least ~7% of
            # the top mode: ratios in [1.72, 1.78] sit between 5/3 and
            # 9/5 and the in-band rational 7/4 needs |a| + |b| = 11
            ratio = f[0] / f[1]
            if not 1.72 <= ratio <= 1.78:
                continue
        if d == 3 and min(abs(np.dot(c, f)) for c in itertools.product(
                range(-3, 4), repeat=3) if 0 < sum(map(abs, c)) <= 5) \
                < 0.05 * f[0]:
            continue  # every combination of up to five quanta >= 5% of f[0]
        spec = modes.ModeSpectrum(frequencies=f, eigenvectors=np.eye(d),
                                  sigma_ion=np.zeros((d, d)), config=None)
        if detect_resonances(spec, rel_tol=3e-2):
            continue
        eps = 10 ** rng.uniform(-5, math.log10(3e-5))
        hw = HBAR * 2 * math.pi * np.mean(f)
        g3 = symmetric_tensor(rng, (d,) * 3, 1.0)
        g3 *= eps * hw / np.max(np.abs(g3))
        g4 = symmetric_tensor(rng, (d,) * 4, 1.0)
        g4 *= eps**2 * hw / np.max(np.abs(g4))
        occ = rng.integers(0, 2, size=d)
        z = int(rng.integers(0, d))
        tens = anharmonic.ModeTensors(G3=g3, G4=g4)
        pt = anharmonic.frequency_shift(tens, spec, occ, z)
        exact = exact_transition_frequency(2 * math.pi * f, g3, g4, occ, z,
                                           cutoff=12)
        yield spec, tens, eps, abs(pt - (exact - f[z]))
        checked += 1


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
    return OrderShiftReport(f_ab=f["ab"], f_ba=f["ba"], delta=f["ab"] - f["ba"])


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
