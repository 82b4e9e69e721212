import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionmodes import AxialPotential, IonSpecies, axial_from_lambdas, \
    harmonic_axial, make_species, mode_spectrum, \
    solve_equilibrium, trap3d_from_frequencies
from ionmodes.constants import ATOMIC_MASS, ELEMENTARY_CHARGE

from conftest import KAPPA2


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

    @given(st.floats(0.5, 300.0))
    def test_si_conversion(self, mass_u):
        assert make_species("X", mass_u).mass == pytest.approx(
            mass_u * ATOMIC_MASS, rel=1e-15)


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
        assert pot.lambdas() == {}

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
        lams = pot.lambdas()
        assert lams[3] == pytest.approx(sign3 * lam3, rel=1e-12)
        assert lams[4] == pytest.approx(lam4, rel=1e-12)


class TestEvaluateAxial:
    def test_harmonic_value(self, be):
        pot = harmonic_axial(KAPPA2)
        assert pot.energy(be, 1e-6) == pytest.approx(2.083e-24, rel=1e-3)

    def test_zero_at_origin(self, be, pot_anharmonic):
        assert pot_anharmonic.energy(be, 0.0) == 0.0

    def test_zero_at_shifted_origin(self, be):
        pot = AxialPotential(kappa={2: KAPPA2, 3: -5e10}, expansion_origin=5e-6)
        assert pot.energy(be, 5e-6) == 0.0

    def test_uniform_field_term(self, be):
        pot = harmonic_axial(KAPPA2, uniform_field=2.0)
        pure = harmonic_axial(KAPPA2)
        field_part = pot.energy(be, 1e-6) - pure.energy(be, 1e-6)
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
        val = pot.energy(be, z)
        scale = max(abs(naive), abs(horner), 1e-30)
        assert abs(val - naive) <= 1e-14 * scale
        assert abs(val - horner) <= 1e-14 * scale


class TestPseudoGradient:
    def test_reference_species_slope(self, be):
        pot = harmonic_axial(KAPPA2, pseudo_gradient=0.2, pseudo_reference=be)
        z = 3e-6
        grad_part = pot.energy(be, z) - harmonic_axial(KAPPA2).energy(be, z)
        assert grad_part == pytest.approx(0.2 * be.charge_si * z, rel=1e-14)

    def test_inverse_mass_scaling(self, be):
        heavy = IonSpecies("heavy", 2 * be.mass, be.charge)
        pot = harmonic_axial(KAPPA2, pseudo_gradient=0.2, pseudo_reference=be)
        z = 3e-6
        base = harmonic_axial(KAPPA2)
        ref_part = pot.energy(be, z) - base.energy(be, z)
        heavy_part = pot.energy(heavy, z) - base.energy(heavy, z)
        assert heavy_part == pytest.approx(ref_part / 2, rel=1e-14)

    def test_gradient_requires_reference(self):
        with pytest.raises(ValueError):
            harmonic_axial(KAPPA2, pseudo_gradient=0.1)


class TestTrap3D:
    def test_single_ion_spectrum_matches_inputs(self, mgh):
        axial = _axial_for(mgh, 1.8e6)
        trap = trap3d_from_frequencies(mgh, (7e6, 5e6), axial)
        cfg = solve_equilibrium([mgh], trap)
        freqs = mode_spectrum(cfg).frequencies
        assert freqs == pytest.approx([7e6, 5e6, 1.8e6], rel=1e-10)

    def test_axial_frequency_for_beryllium(self, be):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2))
        cfg = solve_equilibrium([be], trap)
        freqs = mode_spectrum(cfg).frequencies
        assert freqs[-1] == pytest.approx(2.655e6, rel=1e-3)
        assert freqs[0] == pytest.approx(12e6, rel=1e-10)

    def test_default_tensors_zero(self, be):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2))
        assert not trap.trap_cubic.any()
        assert not trap.trap_quartic.any()
        assert not trap.has_tensors

    def test_nonpositive_frequency_rejected(self, be):
        with pytest.raises(ValueError):
            trap3d_from_frequencies(be, (0.0, 5e6), harmonic_axial(KAPPA2))

    def test_asymmetric_tensor_rejected(self, be):
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2),
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
        trap = trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2),
                                       trap_quartic=quartic)
        assert np.array_equal(trap.trap_quartic, quartic)

    def test_entry_off_by_a_millionth_of_max_rejected(self, be):
        quartic = self._near_cancelling_quartic()
        quartic[0, 1, 2, 2] += 1e-6 * np.abs(quartic).max()
        with pytest.raises(ValueError, match="symmetric"):
            trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2),
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
        plain = trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2))
        assert not plain.has_order(3) and not plain.has_order(4)

    @pytest.mark.parametrize("which,value", [("trap_cubic", np.inf),
                                             ("trap_quartic", -np.inf),
                                             ("trap_cubic", np.nan)])
    def test_nonfinite_tensor_rejected(self, be, which, value):
        shape = (3,) * (3 if which == "trap_cubic" else 4)
        with pytest.raises(ValueError, match="trap tensors must be finite"):
            trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2),
                                    **{which: np.full(shape, value)})

    def test_radial_mass_scaling(self, be, mg):
        trap = trap3d_from_frequencies(be, (12e6, 12e6), harmonic_axial(KAPPA2))
        kx_be, _ = trap.radial_for(be)
        kx_mg, _ = trap.radial_for(mg)
        assert kx_mg == pytest.approx(kx_be * be.mass / mg.mass, rel=1e-14)


def _axial_for(species, f_hz):
    from ionmodes import axial_for_frequency

    return axial_for_frequency(species, f_hz)
