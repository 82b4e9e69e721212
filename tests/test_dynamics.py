import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionmodes import FockSuperposition, ThermalEnvironment, fock_coherence, \
    sideband_flop, thermal_gate_infidelity, thermal_occupation
from ionmodes.anharmonic import ChiMatrix
from ionmodes.constants import BOLTZMANN, PLANCK
from ionmodes.dynamics import _flop_populations

from conftest import GateParams, dense_flop_populations, gate_fidelity, \
    gate_trajectory

DOPPLER = ThermalEnvironment(temperature=0.7e-3)


def chi_single_ion():
    return ChiMatrix(chi=np.array([[-2.9, -2.7, 0.04],
                                   [-2.7, -0.9, 0.2],
                                   [0.04, 0.2, -0.1]]),
                     mode_frequencies=np.array([7e6, 5e6, 1.8e6]),
                     provenance={"source": "surface-trap reference"})


def chi_two_ion():
    return ChiMatrix(chi=np.array([
        [-1.4, -3.2, -1.3, -1.6, 0.03, 0.03],
        [-3.2, -0.4, -2.2, -2.1, -9.4, 0.03],
        [-1.3, -2.2, -0.4, -1.1, 0.2, 0.1],
        [-1.6, -2.1, -1.1, 1.6, -13.5, 0.3],
        [0.03, -9.4, 0.2, -13.5, 6.5, -0.4],
        [0.03, 0.03, 0.1, 0.3, -0.4, -0.1]]),
        mode_frequencies=np.array([7e6, 6.8e6, 5e6, 4.67e6, 3.12e6, 1.8e6]),
        provenance={"source": "surface-trap reference"})


class TestThermalOccupation:
    def test_five_megahertz(self):
        assert thermal_occupation(5e6, 0.7e-3) == pytest.approx(2.44, abs=0.01)

    def test_axial_mode(self):
        assert thermal_occupation(1.8e6, 0.7e-3) == pytest.approx(7.62, abs=0.01)

    def test_zero_temperature_limit(self):
        assert thermal_occupation(5e6, 1e-6) < 1e-100

    def test_cold_mode_past_exp_overflow(self):
        """h f / k_B T beyond about 709.78 overflows exp; nbar is then
        exp(-h f / k_B T), which 1 / expm1 equals to the last bit there."""
        assert thermal_occupation(1e6, 1e-9) == 0.0
        f = 1e6
        t = PLANCK * f / (BOLTZMANN * 710.0)
        assert thermal_occupation(f, t) == pytest.approx(math.exp(-710.0),
                                                         rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 0.7e-3)
        with pytest.raises(ValueError):
            thermal_occupation(5e6, 0.0)


class TestEnvironment:
    def test_exactly_one_spec(self):
        with pytest.raises(ValueError):
            ThermalEnvironment()
        with pytest.raises(ValueError):
            ThermalEnvironment(temperature=1e-3, nbar=(1.0,))

    @pytest.mark.parametrize("kwargs", [
        {"temperature": math.nan}, {"temperature": math.inf},
        {"nbar": [math.nan]}, {"nbar": [0.1, math.inf]}],
        ids=["nan_temperature", "inf_temperature", "nan_nbar", "inf_nbar"])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ThermalEnvironment(**kwargs)

    def test_nbar_equivalence(self):
        freqs = np.array([7e6, 5e6, 1.8e6])
        temp_env = ThermalEnvironment(temperature=0.7e-3)
        nbar_env = ThermalEnvironment(nbar=tuple(temp_env.occupations(freqs)))
        assert nbar_env.occupations(freqs) == pytest.approx(
            temp_env.occupations(freqs), rel=1e-14)


class TestFockSuperposition:
    @pytest.mark.parametrize("n_upper", [1.5, 2.0, math.nan])
    def test_non_integer_n_upper_rejected(self, n_upper):
        with pytest.raises(ValueError):
            FockSuperposition(mode=0, n_upper=n_upper)

    @pytest.mark.parametrize("mode", [1.5, True, -1])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode must be"):
            FockSuperposition(mode=mode)


class TestFockCoherence:
    def test_starts_at_unity(self):
        c = fock_coherence(chi_single_ion(), FockSuperposition(0, 1),
                           DOPPLER, 0.0)
        assert c == pytest.approx(1.0, abs=1e-14)

    def test_half_coherence_time(self):
        t = np.linspace(0, 0.06, 6001)
        c = fock_coherence(chi_single_ion(), FockSuperposition(0, 1),
                           DOPPLER, t)
        t_half = t[np.argmax(c <= 0.5)]
        assert t_half == pytest.approx(0.040, abs=0.006)

    def test_recovery_near_inverse_coupling(self):
        t_rev = 1.0 / 2.7
        c = fock_coherence(chi_single_ion(), FockSuperposition(0, 1),
                           DOPPLER, t_rev)
        assert c >= 0.75

    def test_ten_quanta_faster_decay(self):
        t = np.linspace(0, 0.01, 4001)
        c = fock_coherence(chi_single_ion(), FockSuperposition(0, 10),
                           DOPPLER, t)
        t_half = t[np.argmax(c <= 0.5)]
        assert 0.0025 <= t_half <= 0.0055

    def test_unit_when_uncoupled(self):
        chi = ChiMatrix(chi=np.diag([1.0, 2.0, 3.0]),
                        mode_frequencies=np.array([7e6, 5e6, 1.8e6]),
                        provenance={})
        t = np.linspace(0, 1.0, 50)
        assert fock_coherence(chi, FockSuperposition(0, 1), DOPPLER, t) \
            == pytest.approx(np.ones(50), abs=1e-14)

    def test_single_spectator_periodicity(self):
        chi = ChiMatrix(chi=np.array([[0.0, -3.3], [-3.3, 0.0]]),
                        mode_frequencies=np.array([5e6, 1.8e6]),
                        provenance={})
        sup = FockSuperposition(0, 1)
        t = np.linspace(0, 0.2, 64)
        period = 1.0 / 3.3
        c1 = fock_coherence(chi, sup, DOPPLER, t)
        c2 = fock_coherence(chi, sup, DOPPLER, t + period)
        assert c2 == pytest.approx(c1, rel=1e-10)

    @given(chi_val=st.floats(-20, 20), n_z=st.integers(1, 12),
           t=st.floats(0, 10))
    @settings(max_examples=60)
    def test_bounded(self, chi_val, n_z, t):
        chi = ChiMatrix(chi=np.array([[0.0, chi_val], [chi_val, 0.0]]),
                        mode_frequencies=np.array([5e6, 1.8e6]),
                        provenance={})
        c = fock_coherence(chi, FockSuperposition(0, n_z), DOPPLER, t)
        assert 0.0 <= c <= 1.0 + 1e-12


class TestGateTrajectory:
    def test_closed_loop(self):
        p = GateParams(omega_drive=2 * math.pi * 1e3, delta=2 * math.pi * 1e3)
        for k in (1, 2, 5):
            alpha, _ = gate_trajectory(p, k * 2 * math.pi / p.delta)
            assert abs(alpha) < 1e-12

    def test_maximum_excursion(self):
        p = GateParams(omega_drive=2 * math.pi * 1e3, delta=2 * math.pi * 1e3)
        alpha, _ = gate_trajectory(p, math.pi / p.delta)
        assert abs(alpha) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_phase_at_loop_closure(self):
        p = GateParams(omega_drive=2 * math.pi * 1e3, delta=2 * math.pi * 1e3)
        _, phi = gate_trajectory(p, p.duration)
        assert abs(phi) == pytest.approx(math.pi / 2, rel=1e-12)
        assert phi < 0  # sign convention of the closed-form phase

    def test_zero_drive(self):
        p = GateParams(omega_drive=0.0, delta=2 * math.pi * 1e3)
        alpha, phi = gate_trajectory(p, 1e-3)
        assert alpha == 0 and phi == 0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            GateParams(omega_drive=1.0, delta=0.0)

    def test_default_duration_one_loop(self):
        p = GateParams(omega_drive=1.0, delta=2 * math.pi * 5e3)
        assert p.duration == pytest.approx(2 * math.pi / p.delta, rel=1e-14)


class TestGateFidelity:
    def test_ideal(self):
        assert gate_fidelity(0.0, math.pi / 2) == pytest.approx(1.0, rel=1e-14)

    def test_phase_error_series(self):
        eps = 1e-3
        f = gate_fidelity(0.0, math.pi / 2 * (1 - 2 * eps))
        assert f == pytest.approx(0.5 + 0.5 * math.cos(math.pi * eps),
                                  rel=1e-12)
        assert 1 - f == pytest.approx((math.pi * eps) ** 2 / 4, rel=1e-4)

    def test_residual_displacement(self):
        eps = 0.01
        a2 = (math.pi * eps) ** 2
        expected = 3 / 8 + math.exp(-2 * a2) / 8 + math.exp(-a2 / 2) / 2
        assert gate_fidelity(math.pi * eps, math.pi / 2) == pytest.approx(
            expected, rel=1e-14)

    def test_negative_phase_uses_magnitude(self):
        assert gate_fidelity(0.0, -math.pi / 2) == pytest.approx(1.0, rel=1e-14)


class TestThermalGateInfidelity:
    def test_reference_detuning(self):
        inf = thermal_gate_infidelity(chi_two_ion(), 1, 2 * math.pi * 1e3,
                                      DOPPLER)
        assert inf == pytest.approx(4e-2, rel=0.3)

    def test_fault_tolerance_detuning(self):
        inf = thermal_gate_infidelity(chi_two_ion(), 1, 2 * math.pi * 20e3,
                                      DOPPLER)
        assert inf <= 1e-4

    def test_zero_occupation(self):
        env = ThermalEnvironment(nbar=(0.0,) * 6)
        assert thermal_gate_infidelity(chi_two_ion(), 1, 2 * math.pi * 1e3,
                                       env) == 0.0

    def test_inverse_square_detuning(self):
        i1 = thermal_gate_infidelity(chi_two_ion(), 1, 2 * math.pi * 1e3,
                                     DOPPLER)
        i2 = thermal_gate_infidelity(chi_two_ion(), 1, 2 * math.pi * 2e3,
                                     DOPPLER)
        assert i2 == pytest.approx(i1 / 4, rel=1e-12)

    def test_vanishes_with_occupation(self):
        base = DOPPLER.occupations(chi_two_ion().mode_frequencies)
        values = []
        for s in (1.0, 0.1, 0.01):
            env = ThermalEnvironment(nbar=tuple(s * base))
            values.append(thermal_gate_infidelity(chi_two_ion(), 1,
                                                  2 * math.pi * 1e3, env))
        assert values[1] < values[0] and values[2] < values[1]
        assert values[2] < 0.02 * values[0]

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            thermal_gate_infidelity(chi_two_ion(), 1, 0.0, DOPPLER)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, delta):
        with pytest.raises(ValueError, match="detuning must be finite"):
            thermal_gate_infidelity(chi_two_ion(), 1, delta, DOPPLER)

    def test_thermal_average_of_ideal_loop(self):
        # With Omega = delta the unperturbed loop closes at T = 2 pi/delta
        # with |Phi| = pi/2.  A thermal draw n detunes it by
        # eps = 2 pi sum_a chi_Za n_a; each mode's geometric distribution is
        # enumerated exactly up to a tail weight of 1e-12.
        chi = ChiMatrix(chi=np.array([[-3.0, 1.7, 0.0],
                                      [1.7, -0.5, 0.2],
                                      [0.0, 0.2, -0.1]]),
                        mode_frequencies=np.array([5e6, 3e6, 1e6]),
                        provenance={})
        env = ThermalEnvironment(nbar=(2.0, 4.0, 0.5))
        eps, weight = np.zeros(1), np.ones(1)
        for c, nb in zip(chi.chi[0], env.nbar):
            q = nb / (1 + nb)
            n = np.arange(math.ceil(math.log(1e-12) / math.log(q)))
            eps = (eps[:, None] + 2 * math.pi * c * n).ravel()
            weight = (weight[:, None] * q ** n / (1 + nb)).ravel()
        eps, inverse = np.unique(eps, return_inverse=True)
        weight = np.bincount(inverse, weight)
        rel = {}
        for khz in (20, 100):
            delta = 2 * math.pi * khz * 1e3
            loss = [1 - gate_fidelity(*gate_trajectory(
                GateParams(omega_drive=delta, delta=delta + e),
                2 * math.pi / delta)) for e in eps]
            oracle = float(weight @ loss)
            rel[khz] = abs(thermal_gate_infidelity(chi, 0, delta, env)
                           / oracle - 1)
        assert rel[20] < 1e-3
        assert rel[100] < rel[20] / 3


class TestSidebandFlop:
    T = np.linspace(0.0, 300e-6, 601)
    OMEGA0 = 2 * math.pi * 30e3

    def test_zero_drive_constant(self):
        a = sideband_flop(0.18, 0.18, 0, 0.0, None, self.T)
        assert a == pytest.approx(np.zeros_like(self.T), abs=1e-14)

    def test_symmetric_case_swap_invariant(self):
        a12 = sideband_flop(0.18, 0.1125, 0, self.OMEGA0, None, self.T)
        a21 = sideband_flop(0.1125, 0.18, 0, self.OMEGA0, None, self.T)
        assert a12 == pytest.approx(a21, abs=1e-12)

    def test_oscillation_amplitude(self):
        a = sideband_flop(0.18, 0.18, 0, self.OMEGA0, None, self.T)
        assert a.max() > 0.5 and a.min() >= -1e-12

    def test_decay_damps_oscillation(self):
        tau = 60e-6
        a_live = sideband_flop(0.18, 0.18, 0, self.OMEGA0, None, self.T)
        a_dead = sideband_flop(0.18, 0.18, 0, self.OMEGA0, tau, self.T)
        tail = slice(-100, None)
        assert np.std(a_dead[tail]) < 0.3 * np.std(a_live[tail])
        assert a_dead[0] == pytest.approx(a_live[0], abs=1e-12)

    def test_unequal_amplitudes_produce_beating(self):
        """Distinguishable Rabi rates spread A(t) over several frequencies."""
        t = np.linspace(0.0, 2e-3, 2048)
        a_eq = sideband_flop(0.18, 0.18, 0, self.OMEGA0, None, t)
        a_uneq = sideband_flop(0.18, 0.18 * 0.625, 0, self.OMEGA0, None, t)

        def concentration(a):
            s2 = np.abs(np.fft.rfft(a - a.mean())) ** 2
            return s2.max() / s2.sum()

        c_eq, c_uneq = concentration(a_eq), concentration(a_uneq)
        assert c_eq > 0.75          # symmetric drive: one dominant line
        assert c_uneq < c_eq - 0.2  # beating spreads the spectrum

    def test_thermal_initial_state(self):
        a = sideband_flop(0.18, 0.18, 1.5, self.OMEGA0, None, self.T)
        assert np.all(a >= -1e-12) and np.all(a <= 1 + 1e-12)
        # thermal averaging washes out the coherent oscillation contrast
        a_fock = sideband_flop(0.18, 0.18, 0, self.OMEGA0, None, self.T)
        assert a.max() < a_fock.max()

    # Fock 0 and thermal starts: a thermal start must keep all but 1e-12 of
    # its weight, so populations still sum to one
    @pytest.mark.parametrize("initial", [0, 1.5, 4.7, 100.0])
    def test_unitarity_is_preserved(self, initial):
        pops, steady = _flop_populations(0.22, 0.11, initial, self.OMEGA0,
                                         self.T)
        assert pops.sum(axis=1) == pytest.approx(np.ones(len(self.T)),
                                                 abs=1e-10)
        assert steady.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(pops >= -1e-12)
        a = sideband_flop(0.22, 0.11, initial, self.OMEGA0, None, self.T)
        assert np.all(a <= 1.0 + 1e-10) and np.all(a >= -1e-10)

    @pytest.mark.parametrize("eta1,eta2,initial", [
        (0.22, 0.11, 0), (0.18, 0.1125, 3), (0.2, 0.05, 1.5), (0.05, 0.25, 4.7)])
    def test_block_populations_match_dense_oracle(self, eta1, eta2, initial):
        """The spin populations, each summed over the motional state."""
        pops, steady = _flop_populations(eta1, eta2, initial, self.OMEGA0,
                                         self.T)
        ref, ref_oper, ref_steady = dense_flop_populations(
            eta1, eta2, initial, self.OMEGA0, self.T)
        # the oracle lays out basis state (s1, s2, n) at (2 s1 + s2) * nmax + n
        spins = ref.reshape(len(self.T), 4, -1).sum(axis=2)
        expected = np.stack([spins[:, 0], spins[:, 1] + spins[:, 2],
                             spins[:, 3]], axis=1)
        assert np.max(np.abs(pops - expected)) <= 1e-12
        assert np.array_equal(ref_oper.reshape(4, -1)[:, 0], [0, 0.5, 0.5, 1])
        assert steady @ [0, 0.5, 1] == pytest.approx(ref_steady, abs=1e-12)

    # the benchmark's range: eta 0.05-0.25, nbar 1-5, omega0 up to
    # 2 pi x 50 kHz over 400 us, equal and unequal couplings, with and
    # without decay
    @pytest.mark.parametrize("eta1,eta2,initial,decay_time", [
        (0.05, 0.25, 1.0, None), (0.25, 0.05, 5.0, 120e-6),
        (0.13, 0.13, 3.0, None), (0.2, 0.2, 2.2, 60e-6),
        (0.11, 0.19, 4.0, 500e-6), (0.25, 0.25, 1.0, 50e-6)])
    def test_signal_matches_dense_oracle(self, eta1, eta2, initial,
                                         decay_time):
        omega0, t = 2 * math.pi * 50e3, np.linspace(0.0, 400e-6, 21)
        pops, a_oper, a_steady = dense_flop_populations(eta1, eta2, initial,
                                                        omega0, t)
        expected = pops @ a_oper
        if decay_time is not None:
            expected = a_steady + (expected - a_steady) * np.exp(-t / decay_time)
        a = sideband_flop(eta1, eta2, initial, omega0, decay_time, t)
        assert np.max(np.abs(a - expected)) <= 1e-12

    def test_infinite_decay_time_is_undamped(self):
        a = sideband_flop(0.22, 0.11, 1.5, self.OMEGA0, math.inf, self.T)
        assert np.array_equal(
            a, sideband_flop(0.22, 0.11, 1.5, self.OMEGA0, None, self.T))

    # every case is refused before any block is built
    @pytest.mark.parametrize("name,bad", [
        ("initial", {"initial": True}), ("initial", {"initial": -1}),
        ("initial", {"initial": -0.5}), ("initial", {"initial": math.inf}),
        ("initial", {"initial": math.nan}), ("initial", {"initial": 1e17}),
        ("omega0", {"omega0": math.nan}), ("omega0", {"omega0": -math.inf}),
        ("eta1", {"eta1": math.inf}), ("eta1", {"eta1": -0.1}),
        ("eta2", {"eta2": math.nan}),
        ("decay_time", {"decay_time": math.nan}),
        ("decay_time", {"decay_time": -math.inf}),
        ("decay_time", {"decay_time": 0.0}),
        ("t_grid", {"t_grid": [0.0, math.nan]}),
        ("t_grid", {"t_grid": [0.0, math.inf]}),
        ("t_grid", {"t_grid": [[0.0, 1e-6]]})],
        ids=lambda v: v if isinstance(v, str) else repr(next(iter(v.values()))))
    def test_bad_inputs_rejected(self, name, bad):
        args = {"eta1": 0.2, "eta2": 0.1, "initial": 1.5,
                "omega0": self.OMEGA0, "decay_time": None, "t_grid": self.T,
                **bad}
        with pytest.raises(ValueError, match=rf"^{name} "):
            sideband_flop(**args)

    def test_equal_couplings_steady_state(self):
        """At eta1 = eta2 zero is a double eigenvalue of every block; from
        |00, 0> the infinite-time average of A is exactly 5/12."""
        a = sideband_flop(0.18, 0.18, 0, self.OMEGA0, 60e-6, [0.0, 1.0])
        assert a[-1] == pytest.approx(5 / 12, abs=1e-12)

    @pytest.mark.parametrize("initial", [0, 2])
    def test_steady_state_is_the_long_time_average(self, initial):
        t = np.linspace(0.0, 0.2, 80001)
        undamped = sideband_flop(0.22, 0.11, initial, self.OMEGA0, None, t)
        _, steady = _flop_populations(0.22, 0.11, initial, self.OMEGA0, t[:1])
        assert steady @ [0, 0.5, 1] == pytest.approx(undamped.mean(), abs=1e-3)
