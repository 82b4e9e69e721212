"""Truncated-Fock-space exact diagonalization.

Independent oracle for the perturbation-theory frequency shifts: builds
H = sum hbar w_a (n_a + 1/2) + U3 + U4 for up to three modes in a product
Fock basis, with U3 = sum G3_abc x_a x_b x_c (x = a + a^dag) and the quartic
analog, then reads transition frequencies off eigenvalue differences between
eigenstates matched to unperturbed labels by maximal overlap.  A level whose
population on the boundary (the states with any mode on its last level, each
counted once) exceeds BOUNDARY_POPULATION_LIMIT raises CutoffError.

H is a sparse matrix assembled by index arithmetic in the flat basis index
sum_m n_m cutoff^(nm-1-m).  Operators on different modes commute, so G3 and
G4 enter once per sorted index multiset with their permutation-summed
coefficient, and each term (a multiset, or one mode's n + 1/2) is a product
over modes of one-mode operators.  Such a product is a sum of pieces, one
per choice of a diagonal of each one-mode operator; a piece's entries are
the outer product of those diagonals and lie on one diagonal of H, at
offset sum_m d_m cutoff^(nm-1-m).  The pieces of each (modes, cutoff) shape
are tabulated once, sorted by offset (a private cache of at most
MAX_MODES x MAX_CUTOFF small tables).  Per call, the pieces of terms with a
nonzero coefficient are evaluated and summed per offset by one matrix
product into a dense (basis state x offset) array, whose nonzero entries
are already in CSC order: there is no sparse duplicate summing and no sort,
and H stores exactly its nonzero entries.

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

import functools
import itertools

import numpy as np
from numpy.linalg import eigh

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


@functools.lru_cache(maxsize=MAX_MODES * MAX_CUTOFF)
def _terms(n_modes: int, cutoff: int):
    """What every H of one shape shares, as read-only (diagonals, rows,
    term, offset, perms).

    ``diagonals[9 op + d + 4, n] = <n - d| op |n>`` on one truncated mode,
    for op = x^0 .. x^4 and then n + 1/2.  The terms of H are each mode's
    n + 1/2, then the rank-3 and the rank-4 sorted index multisets.  A term
    is a sum of pieces, one per choice of a diagonal d of its operator on
    every mode: piece j is the outer product over modes m of
    ``diagonals[rows[j, m]]``, scaled by the coefficient of term
    ``term[j]``, and sits ``offset[j] = sum_m d_m cutoff^(n_modes-1-m)``
    above the diagonal of H.  Pieces are sorted by decreasing offset.
    ``perms[rank]`` is (flat, starts): the flat G index of every distinct
    permutation of each multiset, grouped by multiset.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    ops = [np.linalg.matrix_power(a + a.T, p) for p in range(5)]
    ops.append(np.diag(np.arange(cutoff) + 0.5))
    n = np.arange(cutoff)
    row = n - np.arange(-4, 5)[:, None]
    inside = (row >= 0) & (row < cutoff)
    diagonals = np.where(inside, np.stack(ops)[:, row.clip(0, cutoff - 1), n],
                         0.0).reshape(-1, cutoff)
    # each term's operator per mode: x^power, or 5 for n + 1/2
    powers = [[5 * (m == k) for m in range(n_modes)] for k in range(n_modes)]
    perms = {}
    for rank in (3, 4):
        flat, starts = [], []
        for idx in itertools.combinations_with_replacement(range(n_modes),
                                                           rank):
            starts.append(len(flat))
            flat += sorted(np.ravel_multi_index(p, (n_modes,) * rank)
                           for p in set(itertools.permutations(idx)))
            powers.append(np.bincount(idx, minlength=n_modes).tolist())
        perms[rank] = (np.array(flat), np.array(starts))
    stride = cutoff ** np.arange(n_modes - 1, -1, -1)
    pieces = sorted(
        ((int(stride @ ds), k, [9 * p + d + 4 for p, d in zip(power, ds)])
         for k, power in enumerate(powers)
         for ds in itertools.product(*(range(-p, p + 1, 2) if p < 5 else (0,)
                                       for p in power))),
        key=lambda piece: -piece[0])
    offset, term, rows = (np.array(col) for col in zip(*pieces))
    shared = (diagonals, rows, term, offset, *perms[3], *perms[4])
    for array in shared:
        array.flags.writeable = False
    return diagonals, rows, term, offset, perms


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
    diagonals, rows, term, offset, perms = _terms(nm, int(cutoff))
    coeff = [HBAR * omega]
    for name, rank, g in (("g3", 3, g3), ("g4", 4, g4)):
        flat, starts = perms[rank]
        if g is None:
            coeff.append(np.zeros(len(starts)))
            continue
        g = np.asarray(g, dtype=float)
        if g.shape != (nm,) * rank:
            raise ValueError(
                f"{name} must have shape {(nm,) * rank}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"{name} must be finite")
        # operators on different modes commute: a multiset's coefficient is
        # the sum of G over its distinct permutations
        coeff.append(np.add.reduceat(g.ravel()[flat], starts))
    coeff = np.concatenate(coeff)[term]
    keep = coeff != 0
    rows, offset, coeff = rows[keep], offset[keep], coeff[keep]
    # v[j, n]: kept piece j in column n of H (Horner over modes)
    v = coeff[:, None] * diagonals[rows[:, 0]]
    for m in range(1, nm):
        v = (v[:, :, None] * diagonals[rows[:, m]][:, None, :]).reshape(
            len(v), -1)
    # sum the pieces at each offset: h_by_offset[n, k] = H[n - offset_k, n]
    new = np.diff(offset, prepend=offset[0] + 1) != 0
    group = np.cumsum(new) - 1
    h_by_offset = v.T @ (group[:, None] == np.arange(group[-1] + 1))
    nonzero = h_by_offset != 0
    dim = cutoff**nm
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    indices = (np.arange(dim, dtype=np.int32)[:, None]
               - offset[new].astype(np.int32))[nonzero]
    return sparse.csc_matrix((h_by_offset[nonzero], indices, indptr),
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
