"""Chain statics: total potential energy, analytic derivatives, equilibria.

The total energy of an ordered chain is the per-ion trap energy plus the
pairwise Coulomb repulsion,

    U = sum_i q V_t(r_i, m_i) + (1/2) sum_{i != j} q_i q_j / (4 pi eps0 r_ij).

Equilibria are found by Newton's method with the analytic gradient and
Hessian and a backtracking line search; ion order (increasing axial
coordinate) is preserved during iteration and a crossing step is an error,
since ion order is physically meaningful for mixed-species chains.  A solved
configuration carries the solver's energy object and the gradient and Hessian
it evaluated at the returned positions, so the spectrum and tensor stages
evaluate neither again.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import coulomb
from .constants import COULOMB, EPSILON_0
from .potentials import AxialPotential, TrapModel3D
from .species import IonSpecies

COINCIDENCE_LIMIT = 1e-12  # m
MAX_NEWTON_ITER = 200
GRAD_TOL_FACTOR = 1e-10    # of the characteristic force scale 2 q kappa2 l


class EquilibriumError(RuntimeError):
    """Base class for equilibrium-solver failures."""


class ConvergenceError(EquilibriumError):
    pass


class IonCrossingError(EquilibriumError):
    pass


class UnconfinedPotentialError(EquilibriumError):
    pass


class LinearChainInstabilityError(UnconfinedPotentialError):
    """The linear chain is a saddle: a radial (zigzag) mode is soft."""


def _warn_caller(message: str):
    """Issue a RuntimeWarning attributed to the first caller outside the
    module that issues it."""
    home = sys._getframe(1).f_globals
    level = 2
    while sys._getframe(level).f_globals is home:
        level += 1
    warnings.warn(message, RuntimeWarning, stacklevel=level + 1)


def characteristic_length(species: IonSpecies, kappa2: float) -> float:
    """Coulomb length scale l = (q / 8 pi eps0 kappa2)^(1/3).

    Two ions in the harmonic well sit 2^(1/3) l apart; the formula is
    mass-independent.
    """
    if not kappa2 > 0:
        raise ValueError("kappa2 must be positive")
    return (species.charge_si / (8 * math.pi * EPSILON_0 * kappa2)) ** (1.0 / 3.0)


def _as_positions(positions) -> np.ndarray:
    """Positions as an (N, k) array: k = 1 on the axis, k = 3 in 3D."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        return pos[:, None]
    if pos.ndim == 2 and pos.shape[1] == 3:
        return pos
    raise ValueError("positions must have shape (N,) or (N, 3)")


def _diagonal_contraction(blocks, w) -> np.ndarray:
    """sum over the leading axes of blocks[w^a, w^a, w^Z, w^Z] at (Z, a),
    for blocks (..., k, k, k, k) and displacement columns w (..., k, D): one
    batched matmul over the (k^2, k^2) blocks, one tensordot over the rest."""
    k, d = w.shape[-2:]
    lead = w.shape[:-2]
    ww = (w[..., :, None, :] * w[..., None, :, :]).reshape(lead + (k * k, d))
    bw = np.matmul(blocks.reshape(lead + (k * k, k * k)), ww)
    axes = tuple(range(ww.ndim - 1))
    return np.tensordot(bw, ww, axes=(axes, axes))


class _Energy:
    """The chain energy U and its derivatives for fixed species and potential.

    Per-chain constants (charges, pseudopotential slopes, pair couplings,
    on-site trap tensors) are set up once; each call evaluates the on-site trap
    terms and the Coulomb pair terms of every requested order at once, with
    a linear chain as the one-component case of the pair kernel.
    """

    def __init__(self, species, potential):
        self.axial = potential.axial
        self.trap = potential if isinstance(potential, TrapModel3D) else None
        self.charge = np.array([sp.charge_si for sp in species])
        self.slope = np.array([self.axial.gradient_slope(sp) for sp in species])
        self.coupling = COULOMB * self.charge[:, None] * self.charge[None, :]
        np.fill_diagonal(self.coupling, 0.0)
        ions = np.arange(len(species))
        self.ion_pairs = (ions[:, None], ions[None, :])  # every (i, j)
        self.diag = np.diag_indices(len(species))
        if self.trap is not None:
            # on-site Taylor tensors, leading axis over ions: the radial
            # curvatures diag(kx, ky, 0), then the nonzero trap tensors
            radial = np.zeros((len(species), 3, 3))
            radial[:, (0, 1), (0, 1)] = [self.trap.radial_for(sp) for sp in species]
            self.tensors = [radial] + [t[None] for t in (
                self.trap.trap_cubic, self.trap.trap_quartic) if t.any()]

    def __call__(self, positions, *orders):
        """[d^m U for m in orders]: U as a float, then arrays over the
        flattened coordinates (ion-major, x, y, z within an ion in 3D)."""
        return [self._assemble(onsite, pair)
                for onsite, pair in zip(*self._blocks(positions, orders))]

    def quartic_diagonal(self, positions, u) -> np.ndarray:
        """d^4U[u^a, u^a, u^Z, u^Z] at (Z, a) for every pair of columns of
        ``u`` (flattened coordinates by D), without a rank-4 array over the
        coordinates.

        The Coulomb part sums each unordered ion pair's block against
        delta = u_i - u_j (the sign flips cancel at even order); the on-site
        part sums each ion's block against u_i.
        """
        (onsite,), (pair,) = self._blocks(positions, (4,))
        n, k = onsite.shape[:2]
        u = u.reshape(n, k, -1)
        i, j = np.triu_indices(n, 1)
        return (_diagonal_contraction(pair[i, j], u[i] - u[j])
                + _diagonal_contraction(onsite, u))

    def _blocks(self, positions, orders):
        """On-site blocks d^m(q V_t), shape (N,) + (k,) * m, and pair blocks
        C_ij d^m(1/|r|)(r_i - r_j), shape (N, N) + (k,) * m, of each order."""
        pos = _as_positions(positions)
        if pos.shape[1] != (1 if self.trap is None else 3):
            raise ValueError("positions must be (N,) for an AxialPotential "
                             "and (N, 3) for a TrapModel3D")
        n = len(pos)
        sep = pos[:, None, :] - pos[None, :, :]
        sep[self.diag] = 1.0  # self-pairs carry no coupling
        r2 = np.add.reduce(sep * sep, axis=-1)
        close = r2 < COINCIDENCE_LIMIT**2
        if close.any():
            raise ValueError("ions {} and {} are coincident".format(
                *np.argwhere(close)[0]))
        axial = self.axial.derivatives(pos[:, -1], orders, self.charge,
                                       self.slope)
        coul = coulomb.inv_r_derivatives(sep, r2, orders)
        return (self._onsite(pos, orders, axial),
                [self.coupling.reshape((n, n) + (1,) * m) * c
                 for m, c in zip(orders, coul)])

    def _onsite(self, pos, orders, axial):
        """Trap terms d^m(q V_t)/dr^m of each ion, shape (N,) + (k,) * m, for
        each m in ``orders``, given the axial polynomial's terms ``axial``."""
        n, k = pos.shape
        if k == 1:
            return [a.reshape((n,) + (1,) * m) for m, a in zip(orders, axial)]
        blocks = []
        for m, a in zip(orders, axial):
            blk = np.zeros((n,) + (3,) * m)
            blk[(slice(None),) + (2,) * m] = a
            blocks.append(blk)
        v = (pos - np.array([0.0, 0.0, self.axial.expansion_origin]))[:, :, None]
        for coeffs in self.tensors:
            rank = coeffs.ndim - 1
            # T v^j for j = 0, 1, ...: one chain serves every order, each
            # step contracting the last axis of every ion's tensor with v
            chain = [coeffs]
            for _ in range(rank - min(orders)):
                chain.append(np.matmul(chain[-1].reshape(len(chain[-1]), -1, 3), v))
            for m, blk in zip(orders, blocks):
                if m <= rank:
                    q = self.charge.reshape((n,) + (1,) * m)
                    blk += math.perm(rank, m) * q * chain[rank - m].reshape(
                        (-1,) + (3,) * m)
        return blocks

    def _assemble(self, onsite, pair):
        """Rank-m derivative from on-site blocks and the pair blocks
        C_ij d^m(1/|r|)(r_i - r_j) of shape (N, N) + (k,) * m.

        Ion i's diagonal block sums its pair blocks over all partners j.  An
        index on ion j of an ordered pair (i, j) flips the sign once; every
        off-diagonal entry has its first index on some ion i, so it is set
        exactly once.  Each sign pattern writes all (i, j) at once, the
        self-pairs i = j included; the diagonal, written last, overwrites
        those.
        """
        m = onsite.ndim - 1
        if m == 0:
            return float(np.add.reduce(onsite) + 0.5 * np.add.reduce(pair, None))
        diagonal = onsite + np.add.reduce(pair, axis=1)
        if m == 1:
            return diagonal.reshape(-1)
        n, k = onsite.shape[:2]
        t = np.zeros((n, k) * m)
        ions, every = self.ion_pairs, slice(None)
        for rest in product((0, 1), repeat=m - 1):
            if any(rest):
                idx = (ions[0], every) + sum(((ions[o], every)
                                              for o in rest), ())
                t[idx] = (-1.0) ** sum(rest) * pair
        t[(self.diag[0], every) * m] = diagonal
        return t.reshape((n * k,) * m)


def total_energy(positions, species, potential) -> float:
    """Total potential energy (J) of a candidate configuration.

    Positions are (N,) axial for an AxialPotential and (N, 3) for a
    TrapModel3D.
    """
    return _Energy(species, potential)(positions, 0)[0]


def energy_gradient(positions, species, potential) -> np.ndarray:
    """Analytic gradient dU/dz_k (J/m), flattened over coordinates."""
    return _Energy(species, potential)(positions, 1)[0]


def energy_hessian(positions, species, potential) -> np.ndarray:
    """Analytic Hessian d2U/dz_k dz_l (J/m^2) over flattened coordinates."""
    return _Energy(species, potential)(positions, 2)[0]


@dataclass(frozen=True, eq=False)
class ChainConfiguration:
    """An ordered chain with solved equilibrium positions.

    A configuration returned by ``solve_equilibrium`` also carries, privately,
    the solver's ``_Energy`` and the gradient and Hessian it evaluated at
    ``positions``; those arrays and ``positions`` are read-only, so no edit
    can leave a stale Hessian behind.  A configuration built by hand carries
    none of them, and ``modes`` evaluates and checks its derivatives anew.
    """

    species: tuple[IonSpecies, ...]
    positions: np.ndarray            # (N,) axial or (N, 3)
    potential: AxialPotential | TrapModel3D
    residual_gradient: float         # J/m, max component at the solution

    # set by solve_equilibrium; not fields, so not in __init__ or repr
    _energy = None
    _gradient = None
    _hessian = None

    @property
    def n_ions(self) -> int:
        return len(self.species)

    @property
    def is_3d(self) -> bool:
        return self.positions.ndim == 2

    @property
    def axial_positions(self) -> np.ndarray:
        return self.positions[:, 2] if self.is_3d else self.positions

    @property
    def masses(self) -> np.ndarray:
        return np.array([s.mass for s in self.species])

    @property
    def coordinate_masses(self) -> np.ndarray:
        """Mass of the ion owning each flattened coordinate."""
        m = self.masses
        return np.repeat(m, 3) if self.is_3d else m


@lru_cache(maxsize=64)
def _harmonic_chain_scaled(n: int) -> tuple[float, ...]:
    """Equal-mass harmonic chain equilibrium in units of l."""
    if n == 1:
        return (0.0,)
    unit = IonSpecies("unit", 1.0)
    pot = AxialPotential(kappa={2: unit.charge_si / (8 * math.pi * EPSILON_0)})
    l = characteristic_length(unit, pot.kappa2)
    guess = l * np.linspace(-0.8, 0.8, n) * n**0.56
    cfg = solve_equilibrium((unit,) * n, pot, initial_guess=guess)
    return tuple(cfg.positions / l)


def _initial_guess(species, axial: AxialPotential) -> np.ndarray:
    l = characteristic_length(species[0], axial.kappa2)
    xi = np.array(_harmonic_chain_scaled(len(species)))
    return axial.expansion_origin + l * xi


def _descent_step(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Newton step, shifted past negative curvature until it descends."""
    reg = 0.0
    for _ in range(12):
        try:
            step = np.linalg.solve(h + reg * np.eye(len(g)) if reg else h, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and g @ step < 0:
            return step
        if reg == 0.0:
            # shift past the most negative curvature (Levenberg style)
            eig_min = float(np.linalg.eigvalsh(h)[0])
            reg = max(-1.1 * eig_min, 1e-12 * np.abs(h).max(), 1e-300)
        else:
            reg *= 10
    raise ConvergenceError("could not produce a descent direction")


def _instability(h: np.ndarray, is3d: bool) -> UnconfinedPotentialError:
    """The error for a stationary point whose Hessian is not positive."""
    w, v = np.linalg.eigh(h)
    if is3d:
        weight = (v[:, 0].reshape(-1, 3) ** 2).sum(axis=0)
        axis = int(np.argmax(weight))
        if axis < 2:
            return LinearChainInstabilityError(
                f"linear chain is unstable (zigzag): softest Hessian mode "
                f"(index 0 of {len(w)}, ascending) is {weight[axis]:.0%} "
                f"{'xy'[axis]}, eigenvalue {w[0]:.3e} J/m^2; "
                f"{int(np.sum(w <= 0))} non-positive mode(s)")
    return UnconfinedPotentialError(
        "Hessian is not positive definite at the solution")


def solve_equilibrium(species, potential, initial_guess=None) -> ChainConfiguration:
    """Find the equilibrium configuration of an ordered chain.

    Newton iteration with analytic Hessian and a backtracking (Armijo) line
    search, started from the equal-mass harmonic chain at the characteristic
    length scale (or from ``initial_guess``: one finite position per ion,
    shape (N,) axial or (N, 3) in 3D, in increasing axial order).  The
    Hessian at the solution must admit a Cholesky factorisation (be positive
    definite).  Raises ValueError for malformed inputs, before any energy
    evaluation; ConvergenceError (also when MAX_NEWTON_ITER steps do not
    converge), IonCrossingError, UnconfinedPotentialError, or its subclass
    LinearChainInstabilityError when a radial mode is soft.

    The returned configuration carries this solve's ``_Energy`` and its last
    gradient and Hessian, all evaluated at the returned positions, for
    ``modes`` and ``anharmonic`` to reuse; its arrays are read-only.
    """
    species = tuple(species)
    n = len(species)
    if not n:
        raise ValueError("species must hold at least one ion")
    axial = potential.axial
    energy = _Energy(species, potential)
    want3d = energy.trap is not None
    if initial_guess is None:
        guess = _initial_guess(species, axial)
    else:
        guess = np.array(initial_guess, dtype=float)
        if guess.shape not in ((n,), (n, 3)):
            raise ValueError(f"initial_guess must have shape ({n},) or "
                             f"({n}, 3) for {n} ions, got {guess.shape}")
        if guess.ndim == 2 and not want3d:
            raise ValueError("3D guess supplied for a 1D axial potential")
        if not np.isfinite(guess).all():
            raise ValueError("initial_guess must be finite")
    if want3d and guess.ndim == 1:
        guess = np.column_stack([np.zeros(len(guess)), np.zeros(len(guess)), guess])

    shape = guess.shape
    x = guess.ravel().copy()
    l = characteristic_length(species[0], axial.kappa2)
    force_scale = 2 * species[0].charge_si * axial.kappa2 * l
    tol = GRAD_TOL_FACTOR * force_scale

    def ordered(vec):
        z = vec.reshape(shape)[:, 2] if want3d else vec
        return bool((z[1:] > z[:-1]).all())

    if not ordered(x):
        raise ValueError("initial guess must have strictly increasing axial order")

    u, g, h = energy(x.reshape(shape), 0, 1, 2)
    for it in range(MAX_NEWTON_ITER + 1):
        if np.abs(g).max() < tol:
            break
        if it == MAX_NEWTON_ITER:
            raise ConvergenceError(
                f"no convergence in {MAX_NEWTON_ITER} Newton steps "
                f"(max |grad| = {np.abs(g).max():.3e} J/m)")
        step = _descent_step(g, h)
        t = 1.0
        crossing_only = True
        pred = g @ step
        # near the floating-point floor of the energy the Armijo test is
        # pure noise; fall back to requiring a gradient-norm decrease
        grad_test = abs(pred) < 1e-12 * max(abs(u), 1e-300)
        while t > 1e-14:
            trial = x + t * step
            if ordered(trial):
                crossing_only = False
                u_t, g_t, h_t = energy(trial.reshape(shape), 0, 1, 2)
                if grad_test:
                    ok = np.abs(g_t).max() < np.abs(g).max()
                else:
                    ok = u_t <= u + 1e-4 * t * pred
                if ok:
                    x, u, g, h = trial, u_t, g_t, h_t
                    break
            t *= 0.5
        else:
            if crossing_only:
                raise IonCrossingError("ion ordering would be violated during iteration")
            raise ConvergenceError("line search failed to reduce the energy")
    # polish with full Newton steps: quadratic convergence drives the
    # residual to the floating-point floor, making the solution
    # guess-independent far below the convergence tolerance
    for _ in range(3):
        if not np.abs(g).max():
            break
        try:
            trial = x + np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        if not ordered(trial):
            break
        g_t, h_t = energy(trial.reshape(shape), 1, 2)
        if np.abs(g_t).max() >= np.abs(g).max():
            break
        x, g, h = trial, g_t, h_t
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise _instability(h, want3d) from None
    positions = x.reshape(shape)
    for a in (positions, g, h):
        a.flags.writeable = False
    cfg = ChainConfiguration(species=species, positions=positions,
                             potential=potential,
                             residual_gradient=float(np.abs(g).max()))
    for name, value in (("_energy", energy), ("_gradient", g), ("_hessian", h)):
        object.__setattr__(cfg, name, value)
    return cfg


def chain_length(cfg: ChainConfiguration) -> float:
    """Outermost ion separation (m); requires at least two ions."""
    if cfg.n_ions < 2:
        raise ValueError("chain length requires N >= 2")
    z = cfg.axial_positions
    return float(z[-1] - z[0])

