"""Truncated-Fock-space exact diagonalization.

Independent oracle for the perturbation-theory frequency shifts: builds
H = sum hbar w_a (n_a + 1/2) + U3 + U4 for up to three modes in a product
Fock basis, with U3 = sum G3_abc x_a x_b x_c (x = a + a^dag) and the quartic
analog, then reads transition frequencies off eigenvalue differences between
eigenstates matched to unperturbed labels by maximal overlap.  A level whose
population on the boundary (the states with any mode on its last level, each
counted once) exceeds BOUNDARY_POPULATION_LIMIT raises CutoffError.

H is a sparse matrix assembled by index arithmetic: the harmonic part is one
diagonal, and each anharmonic term is the outer product, over modes, of the
nonzero band entries of that mode's x^p, placed at the flat basis index
sum_m n_m cutoff^(nm-1-m).  Operators on different modes commute, so G3 and
G4 enter once per sorted index multiset with their permutation-summed
coefficient.  All terms are concatenated and converted to CSC once.

Each target level is found by Davidson iteration from its label.  The
subspace starts at the label's unit vector; each step takes the Ritz pair
whose vector overlaps the label most and stops when its residual
|Hx - rho x| is at most RESIDUAL_EPS machine epsilons times max|diag H|.
Otherwise the diagonal-preconditioned residual r / (rho - diag H), its
denominator clamped away from zero and the label entry of r set to zero
(r is orthogonal to the subspace, so that entry is rounding, which the
small rho - H_nn would amplify), is orthogonalized twice against the
subspace and added to it.  The unperturbed label is nearly the
eigenvector, so a few matrix-vector products suffice, and H is never
factorized.  A converged vector whose squared overlap with the label
exceeds 1/2 is certified: eigenvectors are orthonormal, so no other
eigenstate can overlap the label more, and it is the state a full
diagonalization would match.  A level that is not certified (the step cap
is reached, the correction vanishes, or the overlap is at most 1/2) is
never returned; the transition is then computed by dense diagonalization of
the same H.
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
MAX_STEPS = 40          # Davidson expansions per level
RESIDUAL_EPS = 10       # stop at |Hx - rho x| <= this x eps x max|diag H|
CORRECTION_FLOOR = 1e-8  # orthogonalized correction norm that counts as none


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


def _match(evecs: np.ndarray, flat: int, label) -> int:
    overlaps = np.abs(evecs[flat, :])
    k = int(np.argmax(overlaps))
    if overlaps[k] < MIN_OVERLAP:
        raise StateMatchError(
            f"ambiguous eigenstate match for label {tuple(map(int, label))} "
            f"(max overlap {overlaps[k]:.3f} < {MIN_OVERLAP})")
    return k


def _certified_level(h, flat: int):
    """(energy, eigenvector) of the state ``_match`` picks at basis index
    ``flat``, found by Davidson iteration, or None if none is certified."""
    diag = h.diagonal()
    tol = RESIDUAL_EPS * np.finfo(float).eps * np.max(np.abs(diag))
    basis = np.zeros((MAX_STEPS + 1, h.shape[0]))  # orthonormal rows
    images = np.zeros_like(basis)                  # H times each row
    basis[0, flat] = 1.0
    for k in range(1, MAX_STEPS + 1):
        images[k - 1] = h @ basis[k - 1]
        v, hv = basis[:k], images[:k]
        theta, s = np.linalg.eigh(v @ hv.T)
        # the Ritz pair that overlaps the label most
        j = int(np.argmax(np.abs(v[:, flat] @ s)))
        x, rho = s[:, j] @ v, theta[j]
        r = s[:, j] @ hv - rho * x
        if np.linalg.norm(r) <= tol:
            return (rho, x) if x[flat] ** 2 > 0.5 else None
        # diagonal-preconditioned residual, orthogonalized twice
        r[flat] = 0.0  # rounding only: r is orthogonal to the first row
        denom = rho - diag
        t = r / np.copysign(np.maximum(np.abs(denom), tol), denom)
        t /= np.linalg.norm(t)
        for _ in range(2):
            t -= (v @ t) @ v
        norm = np.linalg.norm(t)
        if not norm > CORRECTION_FLOOR:
            return None
        basis[k] = t / norm
    return None


def exact_transition_frequency(omega, g3, g4, occupations, z: int,
                               cutoff: int = 10) -> float:
    """Exact n_Z -> n_Z + 1 transition frequency (Hz) for <=3 coupled modes.

    Raises CutoffError when a matched eigenvector leaks onto the boundary,
    StateMatchError when overlap matching is ambiguous, and ValueError
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
    flats = [np.ravel_multi_index(tuple(label), dims) for label in labels]
    levels = [_certified_level(h, flat) for flat in flats]
    if None in levels:
        evals, evecs = eigh(h.toarray())
        matched = [_match(evecs, f, label) for f, label in zip(flats, labels)]
        levels = [(evals[k], evecs[:, k]) for k in matched]
    edge = np.any(np.indices(dims) == cutoff - 1, axis=0).ravel()
    for _, vec in levels:
        pop = float(np.sum(vec[edge] ** 2))
        if pop > BOUNDARY_POPULATION_LIMIT:
            raise CutoffError(
                f"boundary-state population {pop:.2e} exceeds "
                f"{BOUNDARY_POPULATION_LIMIT:g}; increase the cutoff")
    return float((levels[1][0] - levels[0][0]) / PLANCK)
