import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionmodes import BE9, AxialPotential, IonSpecies, TrapModel3D, \
    axial_from_lambdas, make_species, mode_spectrum, \
    solve_equilibrium, trap3d_from_frequencies
from ionmodes.constants import ATOMIC_MASS, ELEMENTARY_CHARGE

from conftest import KAPPA2

HARMONIC = AxialPotential(kappa={2: KAPPA2})


class TestMakeSpecies:
    def test_beryllium_mass(self):
        sp = make_species("Be9", 9.0122, 1)
        assert sp.mass == pytest.approx(1.4965e-26, rel=1e-4)
        assert sp.charge_si == pytest.approx(ELEMENTARY_CHARGE)

    def test_magnesium_mass(self):
        sp = make_species("Mg24", 23.9850, 1)
        assert sp.mass == pytest.approx(3.9829e-26, rel=1e-4)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            make_species("X", -1, 1)
        with pytest.raises(ValueError):
            make_species("X", 0.0, 1)

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError):
            make_species("X", 9.0, 0)

    @pytest.mark.parametrize("mass_u,charge_e", [
        (math.nan, 1), (math.inf, 1), (9.0, 1.5)],
        ids=["nan_mass", "inf_mass", "fractional_charge"])
    def test_non_finite_mass_or_fractional_charge_rejected(self, mass_u,
                                                           charge_e):
        with pytest.raises(ValueError):
            make_species("X", mass_u, charge_e)

    @given(st.floats(0.5, 300.0))
    def test_si_conversion(self, mass_u):
        assert make_species("X", mass_u).mass == pytest.approx(
            mass_u * ATOMIC_MASS, rel=1e-15)


class TestIonSpecies:
    @pytest.mark.parametrize("mass,charge", [
        (math.nan, 1), (math.inf, 1), (1.5e-26, 1.5), (1.5e-26, math.nan),
        (1.5e-26, True)],
        ids=["nan_mass", "inf_mass", "fractional_charge", "nan_charge",
             "bool_charge"])
    def test_non_finite_mass_or_non_integer_charge_rejected(self, mass,
                                                            charge):
        with pytest.raises(ValueError):
            IonSpecies("X", mass, charge)


class TestAxialFromLambdas:
    def test_cubic_coefficient(self):
        pot = axial_from_lambdas(KAPPA2, {3: -230e-6})
        assert pot.kappa[3] == pytest.approx(-5.652e10, rel=1e-3)

    def test_quartic_coefficient(self):
        pot = axial_from_lambdas(KAPPA2, {4: 250e-6})
        assert pot.kappa[4] == pytest.approx(2.08e14, rel=1e-3)

    def test_empty_map_is_harmonic(self):
        pot = axial_from_lambdas(KAPPA2, {})
        assert pot.kappa == {2: KAPPA2}

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            axial_from_lambdas(KAPPA2, {3: 0.0})

    def test_nonpositive_kappa2_rejected(self):
        with pytest.raises(ValueError):
            axial_from_lambdas(0.0, {})

    @given(kappa2=st.floats(1e5, 1e9),
           lam3=st.floats(1e-5, 1e-1),
           sign3=st.sampled_from([-1.0, 1.0]),
           lam4=st.floats(1e-5, 1e-1))
    def test_lambda_round_trip(self, kappa2, lam3, sign3, lam4):
        pot = axial_from_lambdas(kappa2, {3: sign3 * lam3, 4: lam4})
        # lambda_n = (kappa_n / kappa_2)^(1/(2-n)), real for these signs
        assert kappa2 / pot.kappa[3] == pytest.approx(sign3 * lam3, rel=1e-12)
        assert (kappa2 / pot.kappa[4]) ** 0.5 == pytest.approx(lam4, rel=1e-12)


class TestEvaluateAxial:
    def test_harmonic_value(self, be):
        pot = HARMONIC
        assert pot.energy_derivative(be, 1e-6, 0) == pytest.approx(2.083e-24,
                                                           rel=1e-3)

    def test_zero_at_origin(self, be, pot_anharmonic):
        assert pot_anharmonic.energy_derivative(be, 0.0, 0) == 0.0

    def test_zero_at_shifted_origin(self, be):
        pot = AxialPotential(kappa={2: KAPPA2, 3: -5e10}, expansion_origin=5e-6)
        assert pot.energy_derivative(be, 5e-6, 0) == 0.0

    def test_uniform_field_term(self, be):
        pot = AxialPotential(kappa={2: KAPPA2}, uniform_field=2.0)
        pure = HARMONIC
        field_part = (pot.energy_derivative(be, 1e-6, 0)
                      - pure.energy_derivative(be, 1e-6, 0))
        assert field_part == pytest.approx(-3.204e-25, rel=1e-3)

    @given(z_um=st.floats(-50, 50),
           k3=st.floats(-1e11, 1e11),
           k4=st.floats(-1e15, 1e15),
           k6=st.floats(-1e22, 1e22))
    @settings(max_examples=60)
    def test_matches_naive_power_sum_and_horner(self, z_um, k3, k4, k6):
        from ionmodes import BE9 as be

        z = z_um * 1e-6
        kappa = {2: KAPPA2, 3: k3, 4: k4, 6: k6}
        pot = AxialPotential(kappa=kappa)
        naive = be.charge_si * sum(kn * z**n for n, kn in kappa.items())
        coeffs = [0.0] * 7
        for n, kn in kappa.items():
            coeffs[n] = kn
        horner = be.charge_si * np.polynomial.polynomial.polyval(z, coeffs)
        val = pot.energy_derivative(be, z, 0)
        scale = max(abs(naive), abs(horner), 1e-30)
        assert abs(val - naive) <= 1e-14 * scale
        assert abs(val - horner) <= 1e-14 * scale


class TestPseudoGradient:
    # The slope term q g z (~1e-25 J) is read as the difference of two
    # energies that share the ~200x larger harmonic term q kappa2 z^2; the
    # difference is exact (Sterbenz), so its error is the rounding of that
    # sum, at most half an ulp of the harmonic term: 1.5e-14 of the
    # reference slope term and 3.1e-14 of the heavy one.
    def test_reference_species_slope(self, be):
        pot = AxialPotential(kappa={2: KAPPA2}, pseudo_gradient=0.2,
                             pseudo_reference=be)
        z = 3e-6
        grad_part = (pot.energy_derivative(be, z, 0)
                     - HARMONIC.energy_derivative(be, z, 0))
        assert grad_part == pytest.approx(0.2 * be.charge_si * z, rel=1e-13,
                                          abs=0)

    def test_inverse_mass_scaling(self, be):
        heavy = IonSpecies("heavy", 2 * be.mass, be.charge)
        pot = AxialPotential(kappa={2: KAPPA2}, pseudo_gradient=0.2,
                             pseudo_reference=be)
        z = 3e-6
        base = HARMONIC
        ref_part = (pot.energy_derivative(be, z, 0)
                    - base.energy_derivative(be, z, 0))
        heavy_part = (pot.energy_derivative(heavy, z, 0)
                      - base.energy_derivative(heavy, z, 0))
        assert heavy_part == pytest.approx(ref_part / 2, rel=1e-13, abs=0)

    def test_gradient_requires_reference(self):
        with pytest.raises(ValueError):
            AxialPotential(kappa={2: KAPPA2}, pseudo_gradient=0.1)


class TestAxialPotentialRanges:
    @pytest.mark.parametrize("kwargs", [
        {"kappa": {2: math.nan}},
        {"kappa": {2: math.inf}},
        {"kappa": {2: KAPPA2, 3: math.nan}},
        {"kappa": {2: KAPPA2, 4: -math.inf}},
        {"kappa": {2: KAPPA2}, "uniform_field": math.nan},
        {"kappa": {2: KAPPA2}, "uniform_field": math.inf},
        {"kappa": {2: KAPPA2}, "pseudo_gradient": math.nan,
         "pseudo_reference": BE9},
        {"kappa": {2: KAPPA2}, "pseudo_gradient": -math.inf,
         "pseudo_reference": BE9},
        {"kappa": {2: KAPPA2}, "expansion_origin": math.nan},
        {"kappa": {2: KAPPA2}, "expansion_origin": math.inf},
    ], ids=["nan_kappa2", "inf_kappa2", "nan_kappa3", "inf_kappa4",
            "nan_field", "inf_field", "nan_gradient", "inf_gradient",
            "nan_origin", "inf_origin"])
    def test_non_finite_coefficients_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AxialPotential(**kwargs)


class TestTrap3D:
    def test_single_ion_spectrum_matches_inputs(self, mgh):
        axial = _axial_for(mgh, 1.8e6)
        trap = trap3d_from_frequencies(mgh, (7e6, 5e6), axial)
        cfg = solve_equilibrium([mgh], trap)
        freqs = mode_spectrum(cfg).frequencies
        assert freqs == pytest.approx([7e6, 5e6, 1.8e6], rel=1e-10)

    def test_axial_frequency_for_beryllium(self, be):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC)
        cfg = solve_equilibrium([be], trap)
        freqs = mode_spectrum(cfg).frequencies
        assert freqs[-1] == pytest.approx(2.655e6, rel=1e-3)
        assert freqs[0] == pytest.approx(12e6, rel=1e-10)

    def test_default_tensors_zero(self, be):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC)
        assert not trap.trap_cubic.any()
        assert not trap.trap_quartic.any()

    @pytest.mark.parametrize("f_radial", [(math.nan, 5e6), (7e6, math.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_frequency_rejected(self, be, f_radial):
        with pytest.raises(ValueError):
            trap3d_from_frequencies(be, f_radial, HARMONIC)

    @pytest.mark.parametrize("curvatures", [(math.nan, 1e8), (1e8, math.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_curvature_rejected(self, be, curvatures):
        with pytest.raises(ValueError):
            TrapModel3D(axial=HARMONIC,
                        radial_curvatures=curvatures, reference=be)

    def test_nonpositive_frequency_rejected(self, be):
        with pytest.raises(ValueError):
            trap3d_from_frequencies(be, (0.0, 5e6), HARMONIC)

    def test_asymmetric_tensor_rejected(self, be):
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC,
                                    trap_cubic=bad)

    @staticmethod
    def _near_cancelling_quartic():
        """Symmetrised as a mean over index permutations, with the orbit of
        (2, 1, 1, 1) summing to about 2e-6 of the largest entry: its entries
        round differently by about 2e-10 of their own size."""
        t = np.random.default_rng(0).uniform(-1.0, 1.0, (3,) * 4)
        t[1, 1, 1, 2] = -(t[2, 1, 1, 1] + t[1, 2, 1, 1] + t[1, 1, 2, 1]) + 4e-6
        perms = list(itertools.permutations(range(4)))
        return sum(np.transpose(t, p) for p in perms) / len(perms) * 1e13

    def test_symmetrised_tensor_with_near_cancelling_entry_accepted(self, be):
        quartic = self._near_cancelling_quartic()
        small = abs(quartic[2, 1, 1, 1]) / np.abs(quartic).max()
        assert 1e-6 < small < 1e-5
        trap = trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC,
                                       trap_quartic=quartic)
        assert np.array_equal(trap.trap_quartic, quartic)

    def test_entry_off_by_a_millionth_of_max_rejected(self, be):
        quartic = self._near_cancelling_quartic()
        quartic[0, 1, 2, 2] += 1e-6 * np.abs(quartic).max()
        with pytest.raises(ValueError, match="symmetric"):
            trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC,
                                    trap_quartic=quartic)

    def test_has_order(self, be):
        axial = axial_from_lambdas(KAPPA2, {3: -200e-6})
        assert axial.has_order(2) and axial.has_order(3)
        assert not axial.has_order(4)
        quartic = np.zeros((3,) * 4)
        quartic[2, 2, 2, 2] = 1e12
        trap = trap3d_from_frequencies(be, (12e6, 12e6), axial,
                                       trap_quartic=quartic)
        assert trap.has_order(3) and trap.has_order(4)
        plain = trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC)
        assert not plain.has_order(3) and not plain.has_order(4)

    @pytest.mark.parametrize("which,value", [("trap_cubic", np.inf),
                                             ("trap_quartic", -np.inf),
                                             ("trap_cubic", np.nan)])
    def test_nonfinite_tensor_rejected(self, be, which, value):
        shape = (3,) * (3 if which == "trap_cubic" else 4)
        with pytest.raises(ValueError, match="trap tensors must be finite"):
            trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC,
                                    **{which: np.full(shape, value)})

    def test_radial_mass_scaling(self, be, mg):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), HARMONIC)
        kx_be, _ = trap.radial_for(be)
        kx_mg, _ = trap.radial_for(mg)
        assert kx_mg == pytest.approx(kx_be * be.mass / mg.mass, rel=1e-14)


def _axial_for(species, f_hz):
    from ionmodes import axial_for_frequency

    return axial_for_frequency(species, f_hz)
