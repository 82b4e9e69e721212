import itertools

import numpy as np
import pytest

from ionmodes import CutoffError, StateMatchError, exact_transition_frequency
from ionmodes import fockspace
from ionmodes.constants import HBAR, PLANCK

from conftest import dense_hamiltonian, dense_transition_frequency


def symmetric(rng, shape, scale):
    t = rng.standard_normal(shape)
    perms = list(itertools.permutations(range(len(shape))))
    return sum(np.transpose(t, p) for p in perms) / len(perms) * scale


class TestExactTransitionFrequency:
    def test_uncoupled_transitions(self):
        omega = 2 * np.pi * np.array([4.9e6, 1.7e6])
        for z in (0, 1):
            f = exact_transition_frequency(omega, None, None, [0, 0], z,
                                            cutoff=8)
            assert f == pytest.approx(omega[z] / (2 * np.pi), rel=1e-12)

    def test_single_mode_quartic_first_order(self):
        omega = 2 * np.pi * np.array([1.9e6])
        hw = HBAR * omega[0]
        residuals = []
        for eps in (2e-4, 4e-4):
            g4 = np.full((1, 1, 1, 1), eps * hw)
            for n in (0, 2):
                f = exact_transition_frequency(omega, None, g4, [n], 0,
                                                cutoff=14)
                pt = omega[0] / (2 * np.pi) + 12 * (n + 1) * g4[0, 0, 0, 0] / PLANCK
                if n == 0:
                    residuals.append(abs(f - pt))
                assert f == pytest.approx(pt, abs=3e3 * eps**2 * omega[0])
        # first-order agreement with residual scaling as the coupling squared
        assert residuals[1] / residuals[0] == pytest.approx(4.0, rel=0.05)

    def test_two_mode_cubic_spectator_shift(self):
        """A G_aaZ coupling shifts mode Z per spectator quantum."""
        omega = 2 * np.pi * np.array([5.1e6, 1.9e6])
        hw = HBAR * np.mean(omega)
        g = 2e-4 * hw
        g3 = np.zeros((2, 2, 2))
        for p in set(itertools.permutations((0, 0, 1))):
            g3[p] = g
        z = 1
        shifts = []
        for n_a in (0, 1, 2):
            f = exact_transition_frequency(omega, g3, None, [n_a, 0], z,
                                            cutoff=12)
            shifts.append(f)
        per_quantum = np.diff(shifts)
        expected = -(72.0 / HBAR) * 2 * omega[0] * g**2 / (
            4 * omega[0] ** 2 - omega[1] ** 2) / PLANCK
        assert per_quantum == pytest.approx([expected, expected], rel=2e-3)

    def test_cutoff_convergence(self):
        omega = 2 * np.pi * np.array([5.1e6, 1.9e6])
        hw = HBAR * np.mean(omega)
        g3 = symmetric(np.random.default_rng(2), (2, 2, 2), 3e-4 * hw)
        f10 = exact_transition_frequency(omega, g3, None, [0, 0], 1, cutoff=10)
        f14 = exact_transition_frequency(omega, g3, None, [0, 0], 1, cutoff=14)
        assert f14 == pytest.approx(f10, abs=1e-6)

    def test_occupation_beyond_cutoff_rejected(self):
        omega = 2 * np.pi * np.array([1.9e6])
        with pytest.raises(CutoffError):
            exact_transition_frequency(omega, None, None, [7], 0, cutoff=8)

    def test_boundary_population_detected(self):
        omega = 2 * np.pi * np.array([1.9e6])
        g3 = np.full((1, 1, 1), 0.3 * HBAR * omega[0])  # far from perturbative
        with pytest.raises((CutoffError, StateMatchError)):
            exact_transition_frequency(omega, g3, None, [0], 0, cutoff=6)

    def test_resonant_mixing_is_ambiguous(self):
        omega = 2 * np.pi * np.array([3.8e6, 1.9e6])  # exact 2:1 resonance
        g3 = np.zeros((2, 2, 2))
        for p in set(itertools.permutations((0, 1, 1))):
            g3[p] = 0.2 * HBAR * omega[1]
        with pytest.raises(StateMatchError, match=r"label \(0, 2\)"):
            exact_transition_frequency(omega, g3, None, [0, 2], 1, cutoff=12)

    def test_non_integer_occupations_rejected(self):
        omega = 2 * np.pi * np.array([4.9e6, 1.7e6])
        with pytest.raises(ValueError, match="integers"):
            exact_transition_frequency(omega, None, None, [0.7, 1.9], 0,
                                       cutoff=8)

    def test_too_many_modes_rejected(self):
        with pytest.raises(ValueError):
            exact_transition_frequency(2 * np.pi * np.ones(4) * 1e6, None,
                                       None, [0, 0, 0, 0], 0)


def random_couplings(seed, n_modes, cubic, quartic):
    """Mode frequencies (rad/s) and random symmetric G3, G4 (J) scaled to
    hbar times the lowest frequency."""
    rng = np.random.default_rng(seed)
    omega = 2 * np.pi * rng.uniform(1e6, 5e6, n_modes)
    hw = HBAR * omega.min()
    return (omega, symmetric(rng, (n_modes,) * 3, cubic * hw),
            symmetric(rng, (n_modes,) * 4, quartic * hw))


def eigensolver_floor(omega, cutoff):
    """The benchmark oracle's eigensolver floor (Hz)."""
    return 100 * np.finfo(float).eps * cutoff * np.sum(omega) / (2 * np.pi)


class TestSparseSolver:
    @pytest.mark.parametrize("n_modes,cutoff",
                             [(1, 4), (1, 12), (2, 5), (2, 12), (3, 4), (3, 6)])
    def test_hamiltonian_matches_dense_oracle(self, n_modes, cutoff):
        omega, g3, g4 = random_couplings(n_modes + cutoff, n_modes, 1e-2, 1e-3)
        h = fockspace.build_hamiltonian(omega, g3, g4, cutoff)
        dense = dense_hamiltonian(omega, g3, g4, cutoff)
        assert h.format == "csc"
        assert np.max(np.abs(h.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_modes,occupations,z,cutoff", [
        (1, [2], 0, 12), (2, [1, 0], 1, 10), (2, [0, 2], 0, 12),
        (3, [0, 1, 0], 0, 7), (3, [1, 0, 1], 2, 8)])
    def test_certified_levels_match_dense_eigh(self, monkeypatch, n_modes,
                                               occupations, z, cutoff):
        omega, g3, g4 = random_couplings(7 * n_modes + z, n_modes, 2e-3, 2e-4)
        expected, weights = dense_transition_frequency(omega, g3, g4,
                                                       occupations, z, cutoff)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense fallback taken")

        monkeypatch.setattr(fockspace, "eigh", no_dense)
        f = exact_transition_frequency(omega, g3, g4, occupations, z, cutoff)
        assert min(weights) > 0.5
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, cutoff))

    def test_three_way_mixing_takes_dense_fallback(self, monkeypatch):
        """|010> sits between |100> and |001>, each h x 1 kHz away and
        coupled to it by h x 1 kHz, so it spreads about equally over three
        eigenstates: no eigenvector has squared overlap above 1/2."""
        delta = 2 * np.pi * 1e3
        omega = 2 * np.pi * 2e6 + np.array([delta, 0.0, -delta])
        g4 = np.zeros((3, 3, 3, 3))
        for idx in ((0, 1, 2, 2), (1, 2, 0, 0)):
            for p in set(itertools.permutations(idx)):
                g4[p] = HBAR * delta / 12
        expected, weights = dense_transition_frequency(omega, None, g4,
                                                       [0, 0, 0], 1, 6)
        assert 0.25 < weights[1] <= 0.5
        calls = []
        dense_eigh = fockspace.eigh

        def counted_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return dense_eigh(*args, **kwargs)

        monkeypatch.setattr(fockspace, "eigh", counted_eigh)
        f = exact_transition_frequency(omega, None, g4, [0, 0, 0], 1, cutoff=6)
        assert calls == [(216, 216)]
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, 6))
