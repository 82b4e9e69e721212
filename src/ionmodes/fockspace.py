"""Truncated-Fock-space exact diagonalization.

Independent oracle for the perturbation-theory frequency shifts: builds
H = sum hbar w_a (n_a + 1/2) + U3 + U4 for up to three modes in a product
Fock basis, with U3 = sum G3_abc x_a x_b x_c (x = a + a^dag) and the quartic
analog, then reads transition frequencies off eigenvalue differences between
eigenstates matched to unperturbed labels by maximal overlap.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from .anharmonic import occupation_vector
from .constants import HBAR, PLANCK

MAX_MODES = 3
MAX_CUTOFF = 16
BOUNDARY_POPULATION_LIMIT = 1e-6
MIN_OVERLAP = 0.5


class CutoffError(RuntimeError):
    """Truncated basis too small for the requested state."""


class StateMatchError(RuntimeError):
    """No eigenstate has a dominant overlap with the requested label."""


def _mode_operators(n_modes: int, cutoff: int):
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


def build_hamiltonian(omega, g3=None, g4=None, cutoff: int = 10) -> np.ndarray:
    """Dense Hamiltonian (J) in the truncated product Fock basis."""
    omega = np.asarray(omega, dtype=float)
    nm = len(omega)
    if nm > MAX_MODES:
        raise ValueError(f"at most {MAX_MODES} modes supported, got {nm}")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff must be <= {MAX_CUTOFF}")
    a_ops = _mode_operators(nm, cutoff)
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


def _match(evecs: np.ndarray, dims, label) -> int:
    flat = np.ravel_multi_index(tuple(label), dims)
    overlaps = np.abs(evecs[flat, :])
    k = int(np.argmax(overlaps))
    if overlaps[k] < MIN_OVERLAP:
        raise StateMatchError(
            f"ambiguous eigenstate match for label {tuple(label)} "
            f"(max overlap {overlaps[k]:.3f} < {MIN_OVERLAP})")
    return k


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
    level and StateMatchError when overlap matching is ambiguous.
    """
    omega = np.asarray(omega, dtype=float)
    nm = len(omega)
    occ = occupation_vector(occupations, nm)
    if not 0 <= z < nm:
        raise IndexError("probed mode index out of range")
    if max(occ) + 2 >= cutoff:
        raise CutoffError("cutoff too small for the requested occupations")
    h = build_hamiltonian(omega, g3, g4, cutoff)
    evals, evecs = eigh(h)
    dims = (cutoff,) * nm
    upper = occ.copy()
    upper[z] += 1
    i_lo = _match(evecs, dims, occ)
    i_hi = _match(evecs, dims, upper)
    _check_boundary(evecs[:, i_lo], dims)
    _check_boundary(evecs[:, i_hi], dims)
    return float((evals[i_hi] - evals[i_lo]) / PLANCK)
