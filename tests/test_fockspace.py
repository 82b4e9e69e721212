import itertools

import numpy as np
import pytest

from ionmodes import CutoffError, StateMatchError, exact_transition_frequency
from ionmodes.constants import HBAR, PLANCK

from conftest import rel_err


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
        with pytest.raises(StateMatchError):
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
