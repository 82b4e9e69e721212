import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from ionmodes import ChainConfiguration, ChiMatrix, NotAtEquilibriumError, \
    ThermalEnvironment, amplitude_ratio, axial_from_lambdas, \
    carrier_matrix_element, characteristic_length, field_sensitivity, \
    frequency_shift, ground_state_size, hessian, lamb_dicke, mode_spectrum, \
    UnconfinedPotentialError, solve_equilibrium, thermal_gate_infidelity
from ionmodes.anharmonic import ModeTensors
from ionmodes.constants import EPSILON_0, HBAR

from conftest import KAPPA2

DELTA_K = 2 * math.pi * math.sqrt(2) / 313e-9  # counter-propagating Raman pair


def carrier_matrix_element_numeric(eta: float, n: int) -> float:
    """Same matrix element from the truncated-Fock-space matrix exponential."""
    cutoff = max(4 * (n + 4), 40)
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    u = expm(1j * eta * (a + a.T))
    return float(np.real(u[n, n]))


@pytest.fixture
def bmmb_harmonic(be, mg, pot_harmonic):
    cfg = solve_equilibrium([be, mg, mg, be], pot_harmonic)
    return mode_spectrum(cfg)


@pytest.fixture
def bmmb_cubic(be, mg, pot_cubic):
    cfg = solve_equilibrium([be, mg, mg, be], pot_cubic)
    return mode_spectrum(cfg)


class TestHessian:
    def test_single_ion(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        h = hessian(cfg)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(2 * be.charge_si * KAPPA2 / be.mass,
                                        rel=1e-12)

    def test_two_equal_ions_eigenvalues(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        w2 = np.linalg.eigvalsh(hessian(cfg))
        unit = 2 * be.charge_si * KAPPA2 / be.mass
        assert w2 == pytest.approx([unit, 3 * unit], rel=1e-10)

    def test_coulomb_off_diagonal(self, be, mg, pot_harmonic):
        cfg = solve_equilibrium([be, mg], pot_harmonic)
        d = cfg.positions[1] - cfg.positions[0]
        h = hessian(cfg)
        expected = -be.charge_si**2 / (
            2 * math.pi * EPSILON_0 * d**3 * math.sqrt(be.mass * mg.mass))
        assert h[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_equilibrium(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        off = ChainConfiguration(species=cfg.species,
                                 positions=cfg.positions * 1.05,
                                 potential=cfg.potential,
                                 residual_gradient=cfg.residual_gradient)
        with pytest.raises(NotAtEquilibriumError):
            hessian(off)

    def test_replaced_positions_are_checked_anew(self, be, pot_harmonic):
        # a copy with new positions carries no Hessian of the old ones
        cfg = solve_equilibrium([be, be], pot_harmonic)
        off = dataclasses.replace(cfg, positions=cfg.positions * 1.05)
        with pytest.raises(NotAtEquilibriumError):
            hessian(off)


def fix_signs_loop(vecs):
    """Reference sign convention: flip a column whose first entry with
    |v| >= 1e-12 is negative (the loop ``modes._fix_signs`` replaced)."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        for comp in out[:, k]:
            if abs(comp) >= 1e-12:
                if comp < 0:
                    out[:, k] = -out[:, k]
                break
    return out


class TestModeSpectrum:
    def test_sign_convention_matches_loop(self):
        from ionmodes.modes import _fix_signs

        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(9, 40))
        # leading entries below the 1e-12 threshold, of either sign
        vecs[:3, ::2] = rng.normal(size=(3, 20)) * 1e-13
        vecs[:, 7] = 0.0
        vecs[:, 9] = -1e-13  # no entry reaches the threshold
        assert np.array_equal(_fix_signs(vecs), fix_signs_loop(vecs))

    def test_stationary_maximum_refused(self, be):
        """One ion placed by hand on the cubic's maximum z* = -2 kappa2 /
        (3 kappa3) passes the equilibrium check, and its one mode has a
        negative eigenvalue: the verdict the solver gives the same point."""
        pot = axial_from_lambdas(1.3e7, {3: 300e-6})
        z = np.array([-2 * pot.kappa[2] / (3 * pot.kappa[3])])
        (g,) = pot.derivatives(z, (1,), be.charge_si)
        cfg = ChainConfiguration(species=(be,), positions=z, potential=pot,
                                 residual_gradient=float(abs(g[0])))
        with pytest.raises(UnconfinedPotentialError,
                           match=r"^stationary point is not a minimum: "
                                 r"softest Hessian mode \(index 0 of 1, "
                                 r"ascending\) has eigenvalue -\S+ J/m\^2; "
                                 r"1 non-positive mode\(s\)$"):
            mode_spectrum(cfg)

    def test_single_ion_frequency(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        spec = mode_spectrum(cfg)
        expected = math.sqrt(2 * be.charge_si * KAPPA2 / be.mass) / (2 * math.pi)
        assert spec.frequencies[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.655e6, rel=1e-3)

    def test_stretch_to_com_ratio(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        spec = mode_spectrum(cfg)
        assert spec.frequencies[0] / spec.frequencies[1] == pytest.approx(
            math.sqrt(3), rel=1e-12)
        assert spec.eigenvectors[:, 1] == pytest.approx(
            np.array([1, 1]) / math.sqrt(2), rel=1e-12)

    def test_orthonormality(self, bmmb_cubic):
        e = bmmb_cubic.eigenvectors
        assert np.max(np.abs(e.T @ e - np.eye(4))) < 1e-10

    def test_reconstruction(self, bmmb_cubic):
        e = bmmb_cubic.eigenvectors
        w2 = (2 * math.pi * bmmb_cubic.frequencies) ** 2
        h = hessian(bmmb_cubic.config)
        assert np.max(np.abs(e @ np.diag(w2) @ e.T - h)) < 1e-10 * np.max(np.abs(h))

    def test_eigenvalue_sum_matches_trace(self, bmmb_cubic):
        w2 = (2 * math.pi * bmmb_cubic.frequencies) ** 2
        tr = np.trace(hessian(bmmb_cubic.config))
        assert np.sum(w2) == pytest.approx(tr, rel=1e-10)

    def test_com_frequency_independent_of_ion_number(self, be, pot_harmonic):
        single = mode_spectrum(solve_equilibrium([be], pot_harmonic)).frequencies[0]
        for n in range(1, 9):
            spec = mode_spectrum(solve_equilibrium([be] * n, pot_harmonic))
            assert spec.frequencies[-1] == pytest.approx(single, rel=1e-10)

    def test_unequal_pair_closed_form(self, be, mg, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be, mg], pot_harmonic))
        mu = be.mass / mg.mass
        s = math.sqrt(mu**2 - mu + 1)
        w1 = math.sqrt(2 * be.charge_si * KAPPA2 / be.mass)
        expected = sorted([w1 * math.sqrt(1 + mu + s), w1 * math.sqrt(1 + mu - s)],
                          reverse=True)
        assert 2 * math.pi * spec.frequencies == pytest.approx(expected, rel=1e-10)

    def test_bmmb_harmonic_eigenvectors(self, bmmb_harmonic):
        asc = bmmb_harmonic.eigenvectors[:, ::-1]  # ascending frequency
        assert asc[:, 2] == pytest.approx([0.629, -0.322, -0.322, 0.629],
                                          abs=0.01)
        assert asc[:, 3] == pytest.approx([0.532, -0.465, 0.465, -0.532],
                                          abs=0.01)

    def test_bmmb_cubic_eigenvectors(self, bmmb_cubic):
        asc = bmmb_cubic.eigenvectors[:, ::-1]
        assert asc[:, 2] == pytest.approx([0.474, -0.167, -0.452, 0.736],
                                          abs=0.01)
        assert asc[:, 3] == pytest.approx([0.686, -0.531, 0.359, -0.342],
                                          abs=0.01)

    def test_perturbation_order_scaling(self, be, pot_harmonic):
        """Eigenvector shifts are first order in l/lambda3, frequencies second."""
        l = characteristic_length(be, KAPPA2)
        spec0 = mode_spectrum(solve_equilibrium([be, be], pot_harmonic))
        xs = np.array([0.002, 0.004, 0.008, 0.016, 0.032])
        dvec, dfreq = [], []
        for x in xs:
            pot = axial_from_lambdas(KAPPA2, {3: l / x})
            spec = mode_spectrum(solve_equilibrium([be, be], pot))
            dvec.append(np.max(np.abs(spec.eigenvectors - spec0.eigenvectors)))
            dfreq.append(np.max(np.abs(spec.frequencies / spec0.frequencies - 1)))
        p_vec = np.polyfit(np.log(xs), np.log(dvec), 1)[0]
        p_freq = np.polyfit(np.log(xs), np.log(dfreq), 1)[0]
        assert p_vec == pytest.approx(1.0, abs=0.15)
        assert p_freq == pytest.approx(2.0, abs=0.15)


class TestGroundStateSize:
    def test_single_ion_at_one_megahertz(self, be):
        from ionmodes import axial_for_frequency

        cfg = solve_equilibrium([be], axial_for_frequency(be, 1e6))
        spec = mode_spectrum(cfg)
        sigma = ground_state_size(spec, 0, 0)
        assert sigma == pytest.approx(
            math.sqrt(HBAR / (2 * be.mass * 2 * math.pi * 1e6)), rel=1e-12)
        assert sigma == pytest.approx(23.7e-9, rel=2e-3)

    def test_com_mode_two_ions(self, be, pot_harmonic):
        single = mode_spectrum(solve_equilibrium([be], pot_harmonic))
        pair = mode_spectrum(solve_equilibrium([be, be], pot_harmonic))
        assert ground_state_size(pair, 0, 1) == pytest.approx(
            ground_state_size(single, 0, 0) / math.sqrt(2), rel=1e-10)

    def test_zero_component_gives_zero(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be] * 3, pot_harmonic))
        # middle ion does not move in the three-ion stretch mode
        stretch = 1  # second-highest of three axial modes
        assert abs(spec.eigenvectors[1, stretch]) < 1e-12
        assert abs(ground_state_size(spec, 1, stretch)) < 1e-21

    def test_index_errors(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be], pot_harmonic))
        with pytest.raises(IndexError):
            ground_state_size(spec, 1, 0)


class TestLambDicke:
    def test_mixed_pair_in_phase(self, be, mg, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be, mg], pot_harmonic))
        eta = lamb_dicke(spec, DELTA_K, ion=0, mode=1)  # in-phase = lower
        assert eta == pytest.approx(0.18, abs=0.01)

    def test_linear_in_delta_k(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be], pot_harmonic))
        assert lamb_dicke(spec, 2 * DELTA_K, 0, 0) == pytest.approx(
            2 * lamb_dicke(spec, DELTA_K, 0, 0), rel=1e-14)

    def test_matches_ground_state_size(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be], pot_harmonic))
        assert lamb_dicke(spec, DELTA_K, 0, 0) == pytest.approx(
            DELTA_K * abs(ground_state_size(spec, 0, 0)), rel=1e-14)

    def test_nonpositive_delta_k_rejected(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be], pot_harmonic))
        with pytest.raises(ValueError):
            lamb_dicke(spec, 0.0, 0, 0)


class TestAmplitudeRatio:
    def test_bmmb_harmonic_symmetric(self, bmmb_harmonic):
        asc_mode4 = 0  # highest frequency
        assert amplitude_ratio(bmmb_harmonic, asc_mode4, 0, 3) == pytest.approx(
            1.0, rel=1e-10)

    def test_equal_mass_com_any_pair(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be] * 4, pot_harmonic))
        for a in range(4):
            for b in range(4):
                assert amplitude_ratio(spec, 3, a, b) == pytest.approx(1.0,
                                                                       rel=1e-9)

    def test_bmmb_cubic_ratios(self, bmmb_cubic):
        mode3, mode4 = 1, 0  # descending indices of the two highest modes
        r3 = amplitude_ratio(bmmb_cubic, mode3, 0, 3)
        r4 = amplitude_ratio(bmmb_cubic, mode4, 3, 0)
        assert r3 == pytest.approx(0.644, abs=0.01)
        assert r4 == pytest.approx(0.499, abs=0.01)

    def test_near_zero_denominator(self, be, pot_harmonic):
        spec = mode_spectrum(solve_equilibrium([be] * 3, pot_harmonic))
        with pytest.raises(ZeroDivisionError):
            amplitude_ratio(spec, 1, 0, 1)  # middle ion is a stretch node


class TestCarrierMatrixElement:
    def test_ground_state(self):
        eta = 0.3
        assert carrier_matrix_element(eta, 0) == pytest.approx(
            math.exp(-eta**2 / 2), rel=1e-14)

    def test_zero_eta(self):
        for n in (0, 3, 17):
            assert carrier_matrix_element(0.0, n) == 1.0

    def test_half_rate_near_n17(self):
        assert carrier_matrix_element(0.18, 17) == pytest.approx(0.5, abs=0.1)

    @given(eta=st.floats(0.0, 0.6), n=st.integers(0, 25))
    @settings(max_examples=40, deadline=None)
    def test_matches_fock_space_exponential(self, eta, n):
        exact = carrier_matrix_element(eta, n)
        numeric = carrier_matrix_element_numeric(eta, n)
        assert numeric == pytest.approx(exact, abs=1e-8)

    def test_matches_scipy_laguerre(self):
        """The recurrence against scipy's L_n: the element is at most 1 in
        magnitude, and the worst gap measured on this grid was 6.6e-14."""
        for n in range(201):
            for eta in np.linspace(0.0, 3.0, 31):
                x = eta * eta
                want = math.exp(-x / 2) * eval_laguerre(n, x)
                assert abs(carrier_matrix_element(eta, n) - want) <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            carrier_matrix_element(-0.1, 0)
        with pytest.raises(ValueError):
            carrier_matrix_element(0.1, -1)

    @pytest.mark.parametrize("n", [math.inf, math.nan, True, 1.5, 2.0],
                             ids=["inf", "nan", "bool", "fraction", "float"])
    def test_non_integer_fock_state_named(self, n):
        with pytest.raises(ValueError, match=r"^n must be a non-negative "
                                             r"integer, got "):
            carrier_matrix_element(0.1, n)


@pytest.mark.parametrize("call", [
    lambda spec: carrier_matrix_element(math.inf, 1),
    lambda spec: lamb_dicke(spec, math.inf, 0, 0)], ids=["eta", "delta_k"])
def test_infinite_lamb_dicke_input_rejected(call, be, pot_harmonic):
    spec = mode_spectrum(solve_equilibrium([be], pot_harmonic))
    with pytest.raises(ValueError, match="finite"):
        call(spec)


# a mode or ion index that is not a plain integer, the argument its error
# names, and the call on a two-ion Be+ chain
@pytest.mark.parametrize("name,call", [
    ("mode", lambda c: field_sensitivity(c.pot, c.pair, 10.0, mode=1.5)),
    ("mode", lambda c: field_sensitivity(c.pot, c.pair, 10.0, mode=0.9)),
    ("mode", lambda c: field_sensitivity(c.pot, c.pair, 10.0, mode=True)),
    ("z", lambda c: thermal_gate_infidelity(c.chi, 1.5, 1e5, c.env)),
    ("z", lambda c: frequency_shift(c.g, c.spec, [0, 0], 1.5)),
    ("z", lambda c: frequency_shift(c.g, c.spec, [0, 0], True)),
    ("ion", lambda c: ground_state_size(c.spec, 1.5, 0)),
    ("mode", lambda c: lamb_dicke(c.spec, DELTA_K, 0, True)),
    ("mode", lambda c: amplitude_ratio(c.spec, 1.5, 0, 1)),
], ids=["field_sensitivity-1.5", "field_sensitivity-0.9",
        "field_sensitivity-True", "thermal_gate_infidelity-1.5",
        "frequency_shift-1.5", "frequency_shift-True", "ground_state_size-1.5",
        "lamb_dicke-True", "amplitude_ratio-1.5"])
def test_non_integer_index_rejected(name, call, be, pot_cubic):
    spec = mode_spectrum(solve_equilibrium([be, be], pot_cubic))
    c = SimpleNamespace(
        pot=pot_cubic, pair=[be, be], spec=spec,
        chi=ChiMatrix(chi=np.zeros((2, 2)), mode_frequencies=spec.frequencies,
                      provenance={}),
        env=ThermalEnvironment(temperature=1e-3),
        g=ModeTensors(G3=np.zeros((2,) * 3), G4=np.zeros((2,) * 4)))
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        call(c)
