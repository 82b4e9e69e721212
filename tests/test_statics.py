import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from ionmodes import MG24, MGH25, IonSpecies, axial_from_lambdas, \
    chain_length, characteristic_length, energy_gradient, energy_hessian, \
    solve_equilibrium, total_energy, trap3d_from_frequencies
from ionmodes.constants import COULOMB
from ionmodes.statics import _Energy

from conftest import KAPPA2, LAMBDA3, onsite_oracle, richardson_derivative, \
    symmetric_tensor


class TestCharacteristicLength:
    def test_beryllium_value(self, be):
        l = characteristic_length(be, KAPPA2)
        assert l == pytest.approx(3.8118e-6, rel=1e-4)

    def test_charge_scaling(self, be):
        q8 = IonSpecies("q8", be.mass, 8 * be.charge)
        assert characteristic_length(q8, KAPPA2) == pytest.approx(
            2 * characteristic_length(be, KAPPA2), rel=1e-14)

    def test_mass_independent(self, be, mg):
        assert characteristic_length(mg, KAPPA2) == characteristic_length(be, KAPPA2)


class TestTotalEnergy:
    def test_two_ion_value(self, be, pot_harmonic):
        z = np.array([-2.40e-6, 2.40e-6])
        coulomb_part = COULOMB * be.charge_si**2 / 4.80e-6
        trap_part = 2 * be.charge_si * KAPPA2 * (2.40e-6) ** 2
        assert coulomb_part == pytest.approx(4.803e-23, rel=1e-3)
        assert total_energy(z, (be, be), pot_harmonic) == pytest.approx(
            coulomb_part + trap_part, rel=1e-14)

    def test_single_ion_at_minimum(self, be, pot_harmonic):
        assert total_energy(np.array([0.0]), (be,), pot_harmonic) == 0.0

    def test_coincident_ions_rejected(self, be, pot_harmonic):
        with pytest.raises(ValueError, match="coincident"):
            total_energy(np.array([1e-6, 1e-6 + 1e-13]), (be, be), pot_harmonic)

    @pytest.mark.parametrize("evaluate", [total_energy, energy_gradient,
                                          energy_hessian])
    def test_3d_chain_in_axial_potential_rejected(self, be, pot_harmonic,
                                                  evaluate):
        # an (N, 3) chain has no radial confinement in a 1D potential
        pos = np.array([[0.0, 0.0, -2.4e-6], [0.0, 0.0, 2.4e-6]])
        with pytest.raises(ValueError, match=r"\(N,\) for an AxialPotential"):
            evaluate(pos, (be, be), pot_harmonic)

    @pytest.mark.parametrize("evaluate", [total_energy, energy_gradient,
                                          energy_hessian])
    def test_axial_chain_in_3d_trap_rejected(self, be, pot_harmonic, evaluate):
        trap = trap3d_from_frequencies(be, (5e6, 4e6), pot_harmonic)
        with pytest.raises(ValueError, match=r"\(N, 3\) for a TrapModel3D"):
            evaluate(np.array([-2.4e-6, 2.4e-6]), (be, be), trap)


class TestEnergyGradient:
    def test_zero_at_equilibrium(self, be, pot_cubic):
        cfg = solve_equilibrium([be, be], pot_cubic)
        tol = 1e-10 * 2 * be.charge_si * KAPPA2 * characteristic_length(be, KAPPA2)
        assert np.max(np.abs(energy_gradient(cfg.positions, cfg.species,
                                             pot_cubic))) < tol

    def test_harmonic_force_law(self, be, pot_harmonic):
        delta = 0.3e-6
        g = energy_gradient(np.array([delta]), (be,), pot_harmonic)
        assert g[0] == pytest.approx(2 * be.charge_si * KAPPA2 * delta, rel=1e-14)

    def test_two_ion_symmetric_zero(self, be, pot_harmonic):
        l = characteristic_length(be, KAPPA2)
        z = np.array([-l / 2 ** (2 / 3), l / 2 ** (2 / 3)])
        g = energy_gradient(z, (be, be), pot_harmonic)
        assert np.max(np.abs(g)) < 1e-10 * 2 * be.charge_si * KAPPA2 * l

    def test_matches_finite_differences(self, be, mg, pot_anharmonic):
        rng = np.random.default_rng(11)
        species = (be, mg, be)
        for _ in range(10):
            z = np.sort(rng.uniform(-6e-6, 6e-6, size=3))
            while np.min(np.diff(z)) < 1e-6:
                z = np.sort(rng.uniform(-6e-6, 6e-6, size=3))
            g = energy_gradient(z, species, pot_anharmonic)
            h = 1e-3 * np.min(np.diff(z))
            for k in range(3):
                def energy_at(zk, k=k):
                    zz = z.copy()
                    zz[k] = zk
                    return total_energy(zz, species, pot_anharmonic)

                fd = richardson_derivative(energy_at, z[k], h)
                assert fd == pytest.approx(g[k], rel=1e-6)


class TestSolveEquilibrium:
    def test_two_beryllium_positions(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        l = characteristic_length(be, KAPPA2)
        assert cfg.positions == pytest.approx(
            [-l / 2 ** (2 / 3), l / 2 ** (2 / 3)], rel=1e-10)
        assert cfg.positions[1] == pytest.approx(2.40e-6, rel=2e-3)

    def test_separation_at_one_megahertz(self, be):
        from ionmodes import axial_for_frequency

        pot = axial_for_frequency(be, 1e6)
        cfg = solve_equilibrium([be, be], pot)
        l = characteristic_length(be, pot.kappa2)
        assert chain_length(cfg) == pytest.approx(2 ** (1 / 3) * l, rel=1e-10)

    def test_four_ion_harmonic_positions(self, be, pot_harmonic):
        # canonical equal-mass chain positions in units of l
        cfg = solve_equilibrium([be] * 4, pot_harmonic)
        l = characteristic_length(be, KAPPA2)
        assert cfg.positions / l == pytest.approx(
            [-1.4368, -0.4544, 0.4544, 1.4368], abs=1e-4)

    def test_three_ions_against_bruteforce(self, be, pot_harmonic):
        cfg = solve_equilibrium([be] * 3, pot_harmonic)
        l = characteristic_length(be, KAPPA2)
        assert cfg.positions / l == pytest.approx([-1.0772, 0.0, 1.0772],
                                                  abs=1e-4)
        # independent oracle: derivative-free minimization
        res = minimize(lambda z: total_energy(np.sort(z), cfg.species,
                                              pot_harmonic) / 1e-22,
                       cfg.positions * 1.1, method="Nelder-Mead",
                       options={"xatol": 1e-14, "fatol": 1e-16,
                                "maxfev": 40000})
        # the middle ion sits at 0, where only an absolute bound applies
        assert np.sort(res.x) == pytest.approx(cfg.positions, rel=1e-5,
                                               abs=1e-12)

    def test_cubic_matches_closed_form_to_third_order(self, be):
        l = characteristic_length(be, KAPPA2)
        c1, c2 = 3 / 2 ** (5 / 3), 3 / 2 ** (7 / 3)
        for x in (0.005, 0.01, 0.02):
            pot = axial_from_lambdas(KAPPA2, {3: l / x})
            cfg = solve_equilibrium([be, be], pot)
            half = l / 2 ** (2 / 3)
            z_pred = np.array([-half * (1 + c1 * x + c2 * x**2),
                               half * (1 - c1 * x + c2 * x**2)])
            assert np.max(np.abs(cfg.positions - z_pred)) < 3 * x**3 * l

    def test_guess_independence(self, be, mg, pot_cubic):
        l = characteristic_length(be, KAPPA2)
        cfg1 = solve_equilibrium([be, mg], pot_cubic,
                                 initial_guess=[-3e-6, 3e-6])
        cfg2 = solve_equilibrium([be, mg], pot_cubic,
                                 initial_guess=[-1.2e-6, 0.8e-6])
        assert np.max(np.abs(cfg1.positions - cfg2.positions)) < 1e-12 * l

    def test_center_of_charge_at_minimum(self, be, pot_harmonic):
        for n in (2, 3, 5):
            cfg = solve_equilibrium([be] * n, pot_harmonic)
            tol = cfg.residual_gradient / (2 * be.charge_si * KAPPA2) + 1e-18
            assert abs(np.mean(cfg.positions)) < max(tol * n, 1e-15)

    def test_cubic_midpoint_shift(self, be):
        l = characteristic_length(be, KAPPA2)
        x = 0.005
        pot = axial_from_lambdas(KAPPA2, {3: l / x})
        cfg = solve_equilibrium([be, be], pot)
        midpoint = np.mean(cfg.positions)
        assert midpoint / (l * x) == pytest.approx(-3 / 2 ** (7 / 3), rel=3 * x)

    def test_shifted_expansion_origin(self, be):
        from ionmodes import AxialPotential

        pot = AxialPotential(kappa={2: KAPPA2}, expansion_origin=7e-6)
        cfg = solve_equilibrium([be, be], pot)
        assert np.mean(cfg.positions) == pytest.approx(7e-6, rel=1e-10)
        l = characteristic_length(be, KAPPA2)
        assert chain_length(cfg) == pytest.approx(2 ** (1 / 3) * l, rel=1e-10)

    def test_unordered_guess_rejected(self, be, pot_harmonic):
        with pytest.raises(ValueError, match="increasing"):
            solve_equilibrium([be, be], pot_harmonic, initial_guess=[1e-6, -1e-6])

    @pytest.mark.parametrize("n_ions, guess, match", [
        (0, None, "species must hold at least one ion"),
        (2, [-3e-6, 0.0, 3e-6], r"initial_guess must have shape \(2,\)"),
        (2, [1e-6], r"initial_guess must have shape \(2,\)"),
        (2, [-np.inf, 3e-6], "initial_guess must be finite"),
        (2, [np.nan, 3e-6], "initial_guess must be finite"),
    ], ids=["no_species", "long_guess", "short_guess", "infinite_guess",
            "nan_guess"])
    def test_malformed_input_named_before_evaluation(self, be, pot_harmonic,
                                                     monkeypatch, n_ions,
                                                     guess, match):
        from ionmodes import statics

        def evaluate(*args):
            raise AssertionError("energy evaluated before the inputs were "
                                 "checked")

        monkeypatch.setattr(statics._Energy, "__call__", evaluate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                solve_equilibrium([be] * n_ions, pot_harmonic,
                                  initial_guess=guess)

    def test_solved_configuration_is_read_only(self, be, mg, pot_cubic):
        cfg = solve_equilibrium([be, mg], pot_cubic)
        with pytest.raises(ValueError, match="read-only"):
            cfg.positions[0] = 0.0
        assert not cfg._gradient.flags.writeable
        assert not cfg._hessian.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg._hessian = None

    def test_carried_derivatives_stay_private(self, be, mg, pot_cubic):
        cfg = solve_equilibrium([be, mg], pot_cubic)
        assert cfg._energy is not None
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "species", "positions", "potential", "residual_gradient"]
        assert "_energy" not in repr(cfg) and "_hessian" not in repr(cfg)

    def test_3d_guess_for_axial_potential_rejected(self, be, pot_harmonic):
        guess = [[0.0, 0.0, -2.4e-6], [0.0, 0.0, 2.4e-6]]
        with pytest.raises(ValueError, match="3D guess .* 1D axial potential"):
            solve_equilibrium([be, be], pot_harmonic, initial_guess=guess)

    def test_species_order_preserved(self, be, mg, pot_cubic):
        cfg = solve_equilibrium([be, mg], pot_cubic)
        assert cfg.species == (be, mg)
        assert cfg.positions[0] < cfg.positions[1]

    def test_iteration_cap_raises(self, be, mg, pot_cubic, monkeypatch):
        from ionmodes import ConvergenceError, statics

        monkeypatch.setattr(statics, "MAX_NEWTON_ITER", 1)
        with pytest.raises(ConvergenceError, match="no convergence in 1 "):
            solve_equilibrium([be, mg], pot_cubic, initial_guess=[-3e-6, 3e-6])

    def test_zigzag_instability_names_radial_mode(self, be):
        from ionmodes import LinearChainInstabilityError, \
            UnconfinedPotentialError, axial_for_frequency, \
            trap3d_from_frequencies

        trap = trap3d_from_frequencies(be, (7e6, 5e6),
                                       axial_for_frequency(be, 1e6))
        with pytest.raises(LinearChainInstabilityError,
                           match=r"zigzag.* 100% y, eigenvalue -") as exc:
            solve_equilibrium([be] * 15, trap)
        assert isinstance(exc.value, UnconfinedPotentialError)
        assert "5 non-positive mode(s)" in str(exc.value)

    def test_unconfined_potential_detected(self, be):
        # strong negative quartic turns the pair's stationary point unstable
        from ionmodes import AxialPotential, EquilibriumError

        pot = AxialPotential(kappa={2: KAPPA2, 4: -5e17})
        with np.errstate(over="ignore"), pytest.raises(EquilibriumError):
            solve_equilibrium([be, be], pot)


class TestHessianFiniteDifference:
    def test_matches_gradient_differences(self, be, mg, pot_anharmonic):
        rng = np.random.default_rng(5)
        species = (be, mg)
        z = np.array([-2.5e-6, 2.1e-6])
        h = energy_hessian(z, species, pot_anharmonic)
        step = 1e-3 * np.min(np.diff(z))
        for k in range(2):
            def grad_at(zk, k=k):
                zz = z.copy()
                zz[k] = zk
                return energy_gradient(zz, species, pot_anharmonic)

            fd = richardson_derivative(grad_at, z[k], step)
            assert fd == pytest.approx(h[:, k], rel=1e-6)


class TestChainLength:
    def test_two_ions_harmonic(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        l = characteristic_length(be, KAPPA2)
        assert chain_length(cfg) == pytest.approx(2 ** (1 / 3) * l, rel=1e-10)

    def test_mixed_pair_length(self, be, mg, pot_harmonic):
        # equilibria are mass-independent without an axial pseudopotential
        cfg_mix = solve_equilibrium([be, mg], pot_harmonic)
        cfg_same = solve_equilibrium([be, be], pot_harmonic)
        assert chain_length(cfg_mix) == pytest.approx(chain_length(cfg_same),
                                                      rel=1e-10)
        assert chain_length(cfg_mix) == pytest.approx(4.80e-6, rel=1e-3)

    def test_single_ion_rejected(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        with pytest.raises(ValueError):
            chain_length(cfg)


class TestCharacteristicScales:
    def test_pair_scales(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        l = characteristic_length(cfg.species[0], cfg.potential.axial.kappa2)
        assert l == pytest.approx(
            characteristic_length(be, KAPPA2), rel=1e-14)
        assert chain_length(cfg) == pytest.approx(2 ** (1 / 3) * l, rel=1e-10)

    def test_single_ion_has_no_extent(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        assert characteristic_length(cfg.species[0],
                                     cfg.potential.axial.kappa2) > 0
        with pytest.raises(ValueError):
            chain_length(cfg)


class TestOnsiteTerms:
    """One contraction chain per call serves every requested order; the
    per-order einsum loop is its oracle."""

    @staticmethod
    def _energy(cubic, quartic, species):
        rng = np.random.default_rng(23)
        axial = axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: 300e-6},
                                   expansion_origin=2e-6)
        trap = trap3d_from_frequencies(
            MGH25, (9.3e6, 6.1e6), axial,
            trap_cubic=symmetric_tensor(rng, (3,) * 3, 1e9) if cubic else None,
            trap_quartic=symmetric_tensor(rng, (3,) * 4, 1e13)
            if quartic else None)
        pos = rng.normal(scale=5e-6, size=(len(species), 3))
        return _Energy(species, trap), pos

    @pytest.mark.parametrize("orders", [(0, 1, 2, 3, 4), (0, 1, 2), (1, 3),
                                        (4,), (2,)])
    @pytest.mark.parametrize("tensors", ["both", "cubic", "quartic", "none"])
    def test_matches_per_order_einsum(self, orders, tensors):
        species = (MGH25, MG24, MGH25, MG24)
        energy, pos = self._energy(tensors in ("both", "cubic"),
                                   tensors in ("both", "quartic"), species)
        axial = energy.axial.derivatives(pos[:, -1], orders, energy.charge,
                                         energy.slope)
        got = energy._onsite(pos, orders, axial)
        assert len(got) == len(orders)
        for m, a, blk in zip(orders, axial, got):
            want = onsite_oracle(energy.trap, species, pos, m, a)
            assert blk.shape == want.shape == (4,) + (3,) * m
            assert np.max(np.abs(blk - want)) <= 1e-13 * np.max(np.abs(want))

    def test_linear_chain_blocks(self, be, mg, pot_anharmonic):
        energy = _Energy((be, mg, be), pot_anharmonic)
        pos = np.array([[-4e-6], [0.5e-6], [5e-6]])
        orders = (0, 1, 2, 3, 4)
        axial = energy.axial.derivatives(pos[:, -1], orders, energy.charge,
                                         energy.slope)
        for m, a, blk in zip(orders, axial, energy._onsite(pos, orders, axial)):
            assert np.array_equal(blk, onsite_oracle(
                pot_anharmonic, (be, mg, be), pos, m, a))
