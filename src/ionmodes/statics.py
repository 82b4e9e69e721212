"""Chain statics: total potential energy, analytic derivatives, equilibria.

The total energy of an ordered chain is the per-ion trap energy plus the
pairwise Coulomb repulsion,

    U = sum_i q V_t(r_i, m_i) + (1/2) sum_{i != j} q_i q_j / (4 pi eps0 r_ij).

Equilibria are found by Newton's method with the analytic gradient and
Hessian and a backtracking line search; ion order (increasing axial
coordinate) is preserved during iteration and a crossing step is an error,
since ion order is physically meaningful for mixed-species chains (in 3D,
where ions pass only off the axis, the linear chain's instability).  A solved
configuration carries the solver's energy object and the Hessian it
evaluated at the returned positions, which the spectrum and tensor stages
reuse.  Masses enter no equilibrium, so a reordering of the ions that keeps
every ion's charge, pseudopotential slope and radial curvatures in place
shares the solve (``_reordered``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
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


def characteristic_length(species: IonSpecies, kappa2: float) -> float:
    """Coulomb length scale l = (q / 8 pi eps0 kappa2)^(1/3).

    Two ions in the harmonic well sit 2^(1/3) l apart; the formula is
    mass-independent.  A harmonic well confines positive charges only.
    """
    if not kappa2 > 0:
        raise ValueError("kappa2 must be positive")
    if species.charge < 0:
        raise ValueError(f"characteristic length needs a positive charge, "
                         f"got {species.charge} e ({species.label})")
    return (species.charge_si / (8 * math.pi * EPSILON_0 * kappa2)) ** (1.0 / 3.0)


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


@lru_cache(maxsize=64)
def _assembly_indices(n: int, m: int) -> tuple:
    """``_assemble``'s indices for rank m and N ions, the same for every chain
    of N ions: the (index, sign) write of the pair blocks for each sign
    pattern, and the index of the diagonal blocks."""
    ions = np.arange(n)
    ions.flags.writeable = False
    pair, every = (ions[:, None], ions[None, :]), slice(None)  # every (i, j)
    writes = tuple(((pair[0], every) + sum(((pair[o], every) for o in rest), ()),
                    (-1.0) ** sum(rest))
                   for rest in product((0, 1), repeat=m - 1) if any(rest))
    return writes, (ions, every) * m


def _per_ion(species, potential) -> tuple:
    """All the chain energy reads of each ion: its charge, pseudopotential
    slope and, for a TrapModel3D, radial curvatures as diag(kx, ky, 0)."""
    axial = potential.axial
    charge = np.array([sp.charge_si for sp in species])
    slope = np.array([axial.gradient_slope(sp) for sp in species])
    if not isinstance(potential, TrapModel3D):
        return charge, slope
    radial = np.zeros((len(species), 3, 3))
    radial[:, (0, 1), (0, 1)] = [potential.radial_for(sp) for sp in species]
    return charge, slope, radial


class _Energy:
    """The chain energy U and its derivatives for fixed species and potential.

    Per-chain constants (charges, pseudopotential slopes, the pair coupling
    matrix and, in 3D, each ion's on-site trap tensors weighted by its
    charge) are set up once, so each call evaluates, with no further set-up,
    the on-site trap terms and the Coulomb pair terms of every requested
    order at once, with a linear chain as the one-component case of the pair
    kernel.
    """

    def __init__(self, species, potential):
        self.axial = potential.axial
        self.trap = potential if isinstance(potential, TrapModel3D) else None
        self.per_ion = _per_ion(species, potential)
        self.charge, self.slope = self.per_ion[:2]
        self.coupling = COULOMB * self.charge[:, None] * self.charge[None, :]
        np.fill_diagonal(self.coupling, 0.0)
        self.diag = np.diag_indices(len(species))
        if self.trap is not None:
            # on-site Taylor tensors times each ion's charge, leading axis
            # over ions: the radial curvatures, then the nonzero trap tensors
            self.tensors = [self.charge[:, None, None] * self.per_ion[2]] + [
                np.multiply.outer(self.charge, t) for t in (
                    self.trap.trap_cubic, self.trap.trap_quartic) if t.any()]
            self.origin = np.array([0.0, 0.0, self.axial.expansion_origin])

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
        delta = u_i - u_j (the sign flips cancel at even order), evaluating
        only the pairs i < j; the on-site part sums each ion's block against
        u_i.
        """
        i, j = np.triu_indices(len(self.charge), 1)
        (onsite,), (pair,) = self._blocks(positions, (4,), (i, j))
        n, k = onsite.shape[:2]
        u = u.reshape(n, k, -1)
        return (_diagonal_contraction(pair, u[i] - u[j])
                + _diagonal_contraction(onsite, u))

    def _blocks(self, positions, orders, pairs=None):
        """On-site blocks d^m(q V_t), shape (N,) + (k,) * m, and pair blocks
        C_ij d^m(1/|r|)(r_i - r_j) of each order: of every (i, j), shape
        (N, N) + (k,) * m, or of the index arrays ``pairs`` = (i, j) only,
        shape (P,) + (k,) * m."""
        pos = np.asarray(positions, dtype=float)
        if self.trap is None and pos.ndim == 1:
            pos = pos[:, None]  # (N, k) with k = 1 on the axis, 3 in 3D
        elif self.trap is None or pos.shape[1:] != (3,):
            raise ValueError("positions must be (N,) for an AxialPotential "
                             "and (N, 3) for a TrapModel3D")
        if pairs is None:
            sep = pos[:, None, :] - pos[None, :, :]
            sep[self.diag] = 1.0  # self-pairs carry no coupling
        else:
            sep = pos[pairs[0]] - pos[pairs[1]]
        r2 = np.add.reduce(sep * sep, axis=-1)
        close = r2 < COINCIDENCE_LIMIT**2
        if close.any():
            first = np.argwhere(close)[0]
            if pairs is not None:
                first = [p[first[0]] for p in pairs]
            raise ValueError("ions {} and {} are coincident".format(*first))
        axial = self.axial.derivatives(pos[:, -1], orders, self.charge,
                                       self.slope)
        coul = coulomb.inv_r_derivatives(sep, r2, orders)
        coupling = self.coupling if pairs is None else self.coupling[pairs]
        return (self._onsite(pos, orders, axial),
                [coupling.reshape(coupling.shape + (1,) * m) * c
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
        v = (pos - self.origin)[:, :, None]
        for coeffs in self.tensors:
            rank = coeffs.ndim - 1
            # q T v^j for j = 0, 1, ...: one chain serves every order, each
            # step contracting the last axis of every ion's tensor with v
            chain = [coeffs]
            for _ in range(rank - min(orders)):
                chain.append(np.matmul(chain[-1].reshape(n, -1, 3), v))
            for m, blk in zip(orders, blocks):
                if m <= rank:
                    blk += math.perm(rank, m) * chain[rank - m].reshape(blk.shape)
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
        writes, diag = _assembly_indices(n, m)
        t = np.zeros((n, k) * m)
        for idx, sign in writes:
            t[idx] = sign * pair
        t[diag] = diagonal
        return t.reshape((n * k,) * m)


@dataclass(frozen=True, eq=False)
class ChainConfiguration:
    """An ordered chain with solved equilibrium positions.

    A configuration returned by ``solve_equilibrium`` also carries, privately,
    the solver's ``_Energy`` and the Hessian it evaluated at ``positions``;
    both arrays are read-only, so no edit can leave a stale Hessian behind.
    A configuration built by hand carries neither, and ``modes`` evaluates
    and checks its derivatives anew.
    """

    species: tuple[IonSpecies, ...]
    positions: np.ndarray            # (N,) axial or (N, 3)
    potential: AxialPotential | TrapModel3D
    residual_gradient: float         # J/m, max component at the solution

    # set by solve_equilibrium; not fields, so not in __init__ or repr
    _energy = None
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
def _harmonic_chain_scaled(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-charge harmonic chain equilibrium in units of l, and the inverse
    of its Hessian in units of q kappa2 (both read-only)."""
    if n == 1:
        xi, k = np.zeros(1), np.full((1, 1), 2.0)
    else:
        unit = IonSpecies("unit", 1.0)
        pot = AxialPotential(kappa={2: unit.charge_si / (8 * math.pi * EPSILON_0)})
        l = characteristic_length(unit, pot.kappa2)
        guess = l * np.linspace(-0.8, 0.8, n) * n**0.56
        cfg = solve_equilibrium((unit,) * n, pot, initial_guess=guess)
        xi, k = cfg.positions / l, cfg._hessian / (unit.charge_si * pot.kappa2)
    k_inv = np.linalg.inv(k)
    for a in (xi, k_inv):
        a.flags.writeable = False
    return xi, k_inv


def _initial_guess(species, energy: _Energy) -> np.ndarray:
    """The harmonic chain corrected to first order in the on-site forces
    beyond the harmonic one, or the harmonic chain itself when the corrected
    start is not finite or not ordered."""
    axial = energy.axial
    kappa2, origin = axial.kappa2, axial.expansion_origin
    xi, k_inv = _harmonic_chain_scaled(len(species))
    z = origin + characteristic_length(species[0], kappa2) * xi
    (force,) = axial.derivatives(z, (1,), energy.charge, energy.slope)
    # the pair forces balance the harmonic ones here for equal charges, so
    # what is left is the field, pseudopotential and anharmonic force
    beyond = force - 2 * kappa2 * (z - origin) * energy.charge
    corrected = z - k_inv @ beyond / (species[0].charge_si * kappa2)
    if np.isfinite(corrected).all() and (corrected[1:] > corrected[:-1]).all():
        return corrected
    return z


def _descent_step(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Newton step or, when it does not descend, the step with the
    Hessian shifted past its most negative curvature (Levenberg style)."""
    for shifted in (False, True):
        if shifted:
            reg = max(-1.1 * float(np.linalg.eigvalsh(h)[0]),
                      1e-12 * np.abs(h).max(), 1e-300)
            h = h + reg * np.eye(len(g))
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            continue
        if g @ step < 0:
            return step
    raise ConvergenceError("could not produce a descent direction")


def _instability(h: np.ndarray, is3d: bool) -> UnconfinedPotentialError:
    """The verdict on a stationary point whose Hessian ``h`` (J/m^2) is not
    positive definite: LinearChainInstabilityError when its softest mode is
    mostly radial, else UnconfinedPotentialError; both name that mode."""
    w, v = np.linalg.eigh(h)
    mode = f"softest Hessian mode (index 0 of {len(w)}, ascending)"
    rest = (f"eigenvalue {w[0]:.3e} J/m^2; {int(np.sum(w <= 0))} "
            f"non-positive mode(s)")
    if is3d:
        weight = (v[:, 0].reshape(-1, 3) ** 2).sum(axis=0)
        axis = int(np.argmax(weight))
        if axis < 2:
            return LinearChainInstabilityError(
                f"linear chain is unstable (zigzag): {mode} is "
                f"{weight[axis]:.0%} {'xy'[axis]}, {rest}")
    return UnconfinedPotentialError(
        f"stationary point is not a minimum: {mode} has {rest}")


def _failed_search(positions: np.ndarray, kept: list) -> EquilibriumError:
    """The verdict on a line search that found no step and met no overflow,
    from whether each trial ``kept`` the ion order: ConvergenceError if all
    did, else IonCrossingError in 1D and the closest pair's instability in 3D."""
    if all(kept):
        return ConvergenceError("line search failed to reduce the energy")
    if positions.ndim == 1:
        return IonCrossingError("ion ordering would be violated during iteration")
    z = positions[:, 2]
    i = int(np.argmin(np.diff(z)))
    xy = ", ".join(f"({x:.3e}, {y:.3e})" for x, y in positions[i:i + 2, :2])
    return LinearChainInstabilityError(
        f"linear chain is unstable: ions {i} and {i + 1} closed their axial "
        f"gap to {z[i + 1] - z[i]:.3e} m at radial offsets {xy} m, and every "
        f"step would reorder them" + (" or fail to lower the energy"
                                      if any(kept) else ""))


def solve_equilibrium(species, potential, initial_guess=None) -> ChainConfiguration:
    """Find the equilibrium configuration of an ordered chain.

    Newton iteration with analytic Hessian, started from the equal-charge
    harmonic chain at the characteristic length scale, moved by one
    harmonic-chain Newton step against the non-harmonic on-site forces (or
    from ``initial_guess``: one finite position per ion, shape (N,) axial or
    (N, 3) in 3D, in increasing axial order).  Steps are backtracked
    (Armijo) on U while the largest gradient component is above
    GRAD_TOL_FACTOR * 2 q kappa2 l, and at U's rounding floor must lower the
    gradient or pass Armijo on U's change read from the end slopes; below
    it a full step must lower the gradient, and the iteration ends on a
    zero gradient, a step within 4 ulps of the positions or a rejected step.
    Raises ValueError for malformed inputs and UnconfinedPotentialError for
    a negatively charged ion, before any energy evaluation; then
    ConvergenceError (no descent direction, MAX_NEWTON_ITER steps or a step
    within 4 ulps above the tolerance), ``_failed_search``'s verdict on a
    line search that finds no step and meets no overflow,
    UnconfinedPotentialError when two searches in a row meet an overflow, or
    ``_instability``'s verdict on a solution that is not a minimum.

    The returned configuration carries this solve's ``_Energy`` and its last
    Hessian, evaluated at the returned positions, for ``modes`` and
    ``anharmonic`` to reuse; its arrays are read-only.
    """
    species = tuple(species)
    n = len(species)
    if not n:
        raise ValueError("species must hold at least one ion")
    for i, sp in enumerate(species):
        if sp.charge < 0:
            raise UnconfinedPotentialError(
                f"ion {i} ({sp.label}) has charge {sp.charge} e, and a trap "
                f"with kappa2 > 0 anti-confines a negative charge")
    axial = potential.axial
    energy = _Energy(species, potential)
    want3d = energy.trap is not None
    if initial_guess is None:
        guess = _initial_guess(species, energy)
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
    g_max = np.abs(g).max()  # of the current iterate
    # a trial far out in a potential that does not confine overflows: it is
    # rejected like any other, and two line searches in a row that meet one
    # (or one that finds no step) blame the potential
    overflowed = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_ITER):
            if not g_max:
                break
            step = _descent_step(g, h)
            # running on below the tolerance to the rounding floor makes the
            # solution start-independent: a full step must lower the gradient,
            # as it must where Armijo on U is noise, and U is not evaluated.
            # There a step within a few ulps could move x only by rounding.
            below = g_max < tol
            pred = g @ step
            grad_test = below or abs(pred) < 1e-12 * max(abs(u), 1e-300)
            if grad_test and np.abs(step).max() \
                    <= 4 * sys.float_info.epsilon * np.abs(x).max():
                stop = "Newton steps fell below the rounding of the positions"
                break
            t, overflow, kept = 1.0, False, []  # kept: each trial ordered
            while t >= (1.0 if below else 1e-14):
                trial = x + t * step
                kept.append(ordered(trial))
                if kept[-1]:
                    at = trial.reshape(shape)
                    u_t, g_t, h_t = ((u, *energy(at, 1, 2)) if below
                                     else energy(at, 0, 1, 2))
                    g_t_max = np.abs(g_t).max()
                    finite = math.isfinite(u_t + g_t_max)
                    if not grad_test:
                        lower = u_t <= u + 1e-4 * t * pred
                    else:
                        # past a fold, above the tolerance, no step may lower
                        # the gradient: read U's change from the end slopes
                        lower = g_t_max < g_max or not below and \
                            t * (pred + g_t @ step) / 2 <= 1e-4 * t * pred
                    if finite and lower:
                        x, u, g, h, g_max = trial, u_t, g_t, h_t, g_t_max
                        break
                    overflow = overflow or not finite
                t *= 0.5
            else:
                if below:
                    break
                if not overflow:
                    raise _failed_search(x.reshape(shape), kept)
                overflowed = True
            if overflow and overflowed:
                raise UnconfinedPotentialError(
                    f"the potential does not confine the chain: the energy "
                    f"kept falling while an ion ran {np.abs(x).max():.3e} m "
                    f"out, until it overflowed")
            overflowed = overflow
        else:
            stop = f"no convergence in {MAX_NEWTON_ITER} Newton steps"
    if g_max >= tol:  # only the two exits that set ``stop`` end above it
        raise ConvergenceError(f"{stop}: max |grad| = {g_max:.3e} J/m, above "
                               f"the tolerance {tol:.3e} J/m")
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise _instability(h, want3d) from None
    positions = x.reshape(shape)
    for a in (positions, h):
        a.flags.writeable = False
    cfg = ChainConfiguration(species, positions, potential,
                             residual_gradient=float(g_max))
    for name, value in (("_energy", energy), ("_hessian", h)):
        object.__setattr__(cfg, name, value)
    return cfg


def _reordered(cfg: ChainConfiguration, species) -> ChainConfiguration | None:
    """The solved ``cfg`` with its ions relabelled as ``species``, when the
    statics cannot tell the two apart; else None.

    An equilibrium depends on the species only through each ion's charge,
    pseudopotential slope and, in 3D, radial curvatures (``_per_ion``);
    masses enter only the mode problem.  When those agree ion by ion, as for
    the reversed order of an equal-charge pair with no pseudopotential
    gradient, ``solve_equilibrium(species, cfg.potential)`` from cfg's start
    would repeat cfg's solve operation for operation.  The result holds
    ``species`` and cfg's read-only positions and Hessian and its
    ``_Energy``.  A configuration not from ``solve_equilibrium`` gets None.
    """
    species = tuple(species)
    energy = cfg._energy
    if energy is None or len(species) != cfg.n_ions:
        return None
    if not all(map(np.array_equal, energy.per_ion,
                   _per_ion(species, cfg.potential))):
        return None
    out = replace(cfg, species=species)
    for name in ("_energy", "_hessian"):
        object.__setattr__(out, name, getattr(cfg, name))
    return out


def chain_length(cfg: ChainConfiguration) -> float:
    """Outermost ion separation (m); requires at least two ions."""
    if cfg.n_ions < 2:
        raise ValueError("chain length requires N >= 2")
    z = cfg.axial_positions
    return float(z[-1] - z[0])

