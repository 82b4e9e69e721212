"""Truncated-Fock-space exact diagonalization.

Independent oracle for the perturbation-theory frequency shifts: builds
H = sum hbar w_a (n_a + 1/2) + U3 + U4 for up to three modes in a product
Fock basis, with U3 = sum G3_abc x_a x_b x_c (x = a + a^dag) and the quartic
analog, then reads transition frequencies off eigenvalue differences between
eigenstates matched to unperturbed labels by maximal overlap.

H is a sparse matrix assembled by index arithmetic: the harmonic part is one
diagonal, and each anharmonic term is the outer product, over modes, of the
nonzero band entries of that mode's x^p, placed at the flat basis index
sum_m n_m cutoff^(nm-1-m).  Operators on different modes commute, so G3 and
G4 enter once per sorted index multiset with their permutation-summed
coefficient.  All terms are concatenated and converted to CSC once.  Each
target level is found by shift-invert Lanczos (a few eigenpairs near the
unperturbed level): H - sigma I is factorized once by SuperLU with the
MMD_AT_PLUS_A ordering in symmetric mode, and ARPACK applies that
factorization as its OPinv.  An eigenvector whose squared overlap with the
label exceeds 1/2 is certified: the eigenvectors are orthonormal, so no
other eigenstate can overlap the label more, and it is the state a full
diagonalization would match.  When a level is not certified, or Lanczos
fails, the transition is computed by dense diagonalization of the same H.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import eigh

from .anharmonic import occupation_vector
from .constants import HBAR, PLANCK
from .modes import _index, _is_integer

MAX_MODES = 3
MAX_CUTOFF = 16
BOUNDARY_POPULATION_LIMIT = 1e-6
MIN_OVERLAP = 0.5
NEAR_LEVELS = 6       # eigenpairs per shift-invert solve
SHIFT_FRACTION = 0.1  # shift below the unperturbed level, x hbar min(omega)


class CutoffError(RuntimeError):
    """Truncated basis too small for the requested state."""


class StateMatchError(RuntimeError):
    """No eigenstate has a dominant overlap with the requested label."""


def _x_bands(cutoff: int):
    """(row, col, value) of the nonzero entries of x^p, p = 0..4, on one
    truncated mode."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    x = a + a.T
    bands = []
    for p in range(5):
        xp = np.linalg.matrix_power(x, p)
        rows, cols = np.nonzero(xp)
        bands.append((rows, cols, xp[rows, cols]))
    return bands


def build_hamiltonian(omega, g3=None, g4=None, cutoff: int = 10):
    """Sparse (CSC) Hamiltonian (J) in the truncated product Fock basis."""
    from scipy import sparse

    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or not omega.size \
            or not np.all(np.isfinite(omega) & (omega > 0)):
        raise ValueError("omega must be a non-empty 1D array of finite "
                         f"positive angular frequencies, got {omega!r}")
    nm = len(omega)
    if nm > MAX_MODES:
        raise ValueError(f"at most {MAX_MODES} modes supported, got {nm}")
    if not _is_integer(cutoff):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff must be <= {MAX_CUTOFF}")
    dim = cutoff**nm
    diag = np.arange(dim)
    n = np.indices((cutoff,) * nm).reshape(nm, -1)
    rows, cols, vals = [diag], [diag], [HBAR * (omega @ (n + 0.5))]
    bands = _x_bands(cutoff)
    for name, rank, g in (("g3", 3, g3), ("g4", 4, g4)):
        if g is None:
            continue
        g = np.asarray(g, dtype=float)
        if g.shape != (nm,) * rank:
            raise ValueError(
                f"{name} must have shape {(nm,) * rank}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"{name} must be finite")
        for idx in itertools.combinations_with_replacement(range(nm), rank):
            coeff = sum(g[p] for p in set(itertools.permutations(idx)))
            if not coeff:
                continue
            # Horner over modes: flat index = sum_m n_m cutoff^(nm-1-m)
            r = c = np.zeros(1, dtype=np.intp)
            v = np.ones(1)
            for count in np.bincount(idx, minlength=nm):
                br, bc, bv = bands[count]
                r = np.add.outer(r * cutoff, br).ravel()
                c = np.add.outer(c * cutoff, bc).ravel()
                v = np.multiply.outer(v, bv).ravel()
            rows.append(r)
            cols.append(c)
            vals.append(coeff * v)
    # duplicate (row, col) entries are summed by the conversion
    return sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def _match(evecs: np.ndarray, dims, label) -> int:
    flat = np.ravel_multi_index(tuple(label), dims)
    overlaps = np.abs(evecs[flat, :])
    k = int(np.argmax(overlaps))
    if overlaps[k] < MIN_OVERLAP:
        raise StateMatchError(
            f"ambiguous eigenstate match for label {tuple(map(int, label))} "
            f"(max overlap {overlaps[k]:.3f} < {MIN_OVERLAP})")
    return k


def _certified_level(h, omega: np.ndarray, dims, label):
    """(energy, eigenvector) of the state ``_match`` picks for ``label``,
    from a few shift-invert eigenpairs, or None if none is certified."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    flat = np.ravel_multi_index(tuple(label), dims)
    hw = HBAR * float(np.min(omega))
    sigma = HBAR * float(omega @ (label + 0.5)) - SHIFT_FRACTION * hw
    # a fixed start vector (ARPACK's default is random): half the label's
    # state, half uniform, so no Krylov space is invariant when H is diagonal
    v0 = np.ones(h.shape[0])
    v0[flat] += np.sqrt(h.shape[0])
    try:
        # H - sigma I is symmetric: a fill-reducing ordering of A^T + A and
        # preference for diagonal pivots, factorized once per level
        lu = splu(h - sigma * identity(h.shape[0], format="csc"),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options=dict(SymmetricMode=True))
        evals, evecs = eigsh(h, k=min(NEAR_LEVELS, h.shape[0] - 1),
                             sigma=sigma, v0=v0,
                             OPinv=LinearOperator(h.shape, lu.solve,
                                                  dtype=h.dtype))
    except RuntimeError:
        # ARPACK non-convergence and an exactly singular factorization;
        # the dense path answers these
        return None
    weights = evecs[flat, :] ** 2
    k = int(np.argmax(weights))
    if weights[k] <= 0.5:
        return None
    return evals[k], evecs[:, k]


def _check_boundary(vec: np.ndarray, dims):
    grid = vec.reshape(dims)
    pop = 0.0
    for axis in range(grid.ndim):
        sl = [slice(None)] * grid.ndim
        sl[axis] = -1
        pop += float(np.sum(np.abs(grid[tuple(sl)]) ** 2))
    if pop > BOUNDARY_POPULATION_LIMIT:
        raise CutoffError(
            f"boundary-state population {pop:.2e} exceeds "
            f"{BOUNDARY_POPULATION_LIMIT:g}; increase the cutoff")


def exact_transition_frequency(omega, g3, g4, occupations, z: int,
                               cutoff: int = 10) -> float:
    """Exact n_Z -> n_Z + 1 transition frequency (Hz) for <=3 coupled modes.

    Raises CutoffError when the matched eigenvectors leak into the last Fock
    level, StateMatchError when overlap matching is ambiguous, and ValueError
    naming omega, g3, g4, cutoff or z when that argument is malformed.
    """
    h = build_hamiltonian(omega, g3, g4, cutoff)
    omega = np.asarray(omega, dtype=float)
    nm = len(omega)
    occ = occupation_vector(occupations, nm)
    z = _index(z, nm, "z")
    if max(occ) + 2 >= cutoff:
        raise CutoffError("cutoff too small for the requested occupations")
    dims = (cutoff,) * nm
    upper = occ.copy()
    upper[z] += 1
    labels = (occ, upper)
    levels = [_certified_level(h, omega, dims, label) for label in labels]
    if None in levels:
        evals, evecs = eigh(h.toarray())
        matched = [_match(evecs, dims, label) for label in labels]
        levels = [(evals[k], evecs[:, k]) for k in matched]
    (e_lo, v_lo), (e_hi, v_hi) = levels
    _check_boundary(v_lo, dims)
    _check_boundary(v_hi, dims)
    return float((e_hi - e_lo) / PLANCK)
