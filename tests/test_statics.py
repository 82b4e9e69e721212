import dataclasses
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import minimize

from ionmodes import BE9, MG24, MGH25, IonSpecies, axial_for_frequency, \
    axial_from_lambdas, chain_length, characteristic_length, \
    solve_equilibrium, trap3d_from_frequencies
from ionmodes.constants import COULOMB
from ionmodes import statics
from ionmodes.statics import _Energy

from conftest import KAPPA2, LAMBDA3, energy_gradient, energy_hessian, \
    inv_r_oracle, onsite_oracle, richardson_derivative, symmetric_tensor, \
    total_energy


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

    def test_negative_charge_named(self, be):
        anion = IonSpecies("anion", be.mass, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"positive charge, got -1 e"):
                characteristic_length(anion, KAPPA2)


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

    def test_tolerance_below_the_rounding_floor_stalls(self, energy_calls,
                                                       monkeypatch):
        """Below the rounding floor of the gradient no tolerance is met: the
        iteration stops on a step within a few ulps of the positions and
        names the residual and the tolerance it did not reach."""
        from ionmodes import ConvergenceError

        monkeypatch.setattr(statics, "GRAD_TOL_FACTOR", 1e-30)
        # the default start's unit-chain solve, at this tolerance too
        monkeypatch.setattr(statics, "_harmonic_chain_scaled", lru_cache(
            statics._harmonic_chain_scaled.__wrapped__))
        with pytest.raises(ConvergenceError,
                           match=r"^Newton steps fell below the rounding of "
                                 r"the positions: max \|grad\| = \S+ J/m, "
                                 r"above the tolerance \S+ J/m$"):
            solve_equilibrium([BE9, MG24], axial_from_lambdas(
                KAPPA2, {3: -300e-6}))
        assert energy_calls["evaluate"] <= 10

    def test_crossing_step_raises(self, be, mg, pot_cubic, monkeypatch):
        from ionmodes import IonCrossingError

        # the default start's cached unit-chain solve must not take the
        # patched step
        solve_equilibrium([be, mg], pot_cubic)
        monkeypatch.setattr(statics, "_descent_step",
                            lambda g, h: 1e9 * np.array([1.0, -1.0]))
        with pytest.raises(IonCrossingError, match="ion ordering"):
            solve_equilibrium([be, mg], pot_cubic)

    def test_3d_crossing_step_is_a_chain_instability(self, be, mg,
                                                     monkeypatch):
        """In 3D ions change their axial order only by leaving the axis, so
        a step every trial of which reorders them is the linear chain's
        failure: the verdict names the pair and its radial offsets."""
        from ionmodes import LinearChainInstabilityError

        trap = trap3d_from_frequencies(be, (7e6, 5e6), axial_from_lambdas(
            KAPPA2, {}))
        monkeypatch.setattr(statics, "_descent_step", lambda g, h:
                            1e9 * np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0]))
        with pytest.raises(LinearChainInstabilityError,
                           match=r"^linear chain is unstable: ions 0 and 1 "
                                 r"closed their axial gap to 1\.000e-05 m at "
                                 r"radial offsets \(1\.000e-06, 0\.000e\+00\), "
                                 r"\(-2\.000e-06, 3\.000e-07\) m, and every "
                                 r"step would reorder them$"):
            solve_equilibrium([be, mg], trap, initial_guess=[
                [1e-6, 0.0, -5e-6], [-2e-6, 3e-7, 5e-6]])

    @staticmethod
    def _buckling_start(amplitude):
        """B M M B B M at 0.875 MHz axial and (2.24, 3.78) MHz radial, whose
        linear chain is zigzag-unstable, started on a stretched chain with
        x offsets alternating by +-amplitude."""
        species = [BE9 if ion == "B" else MG24 for ion in "BMMBBM"]
        axial = axial_for_frequency(BE9, 0.875e6)
        trap = trap3d_from_frequencies(BE9, (2.24e6, 3.78e6), axial)
        z = characteristic_length(BE9, axial.kappa2) * 6 ** 0.56 \
            * np.linspace(-0.8, 0.8, 6)
        x = amplitude * (-1.0) ** np.arange(6)
        return species, trap, np.column_stack([x, np.zeros(6), z])

    def test_buckling_start_is_a_chain_instability(self):
        """Two ions reach equal z off the axis: the solve ends on the
        linear chain's instability, as the on-axis solve does, not on an
        ion crossing."""
        from ionmodes import LinearChainInstabilityError

        species, trap, guess = self._buckling_start(0.5e-6)
        with pytest.raises(LinearChainInstabilityError,
                           match=r"^linear chain is unstable: ions \d and \d "
                                 r"closed their axial gap to \S+ m at radial "
                                 r"offsets "):
            solve_equilibrium(species, trap, initial_guess=guess)
        with pytest.raises(LinearChainInstabilityError, match="zigzag"):
            solve_equilibrium(species, trap)

    def test_line_search_without_a_lower_energy(self):
        """From a slightly wider start the same chain reaches an iterate
        where no trial down to 1e-14 of the step lowers U: every trial but
        the smallest reorders the closest pair, and those keep the order but
        do not lower U.  The failed search names the pair it met."""
        from ionmodes import LinearChainInstabilityError

        species, trap, guess = self._buckling_start(0.6e-6)
        with pytest.raises(LinearChainInstabilityError,
                           match=r"^linear chain is unstable: ions \d and \d "
                                 r"closed their axial gap to \S+ m at radial "
                                 r"offsets .* m, and every step would reorder "
                                 r"them or fail to lower the energy$"):
            solve_equilibrium(species, trap, initial_guess=guess)

    def test_one_search_of_overflows_is_unconfined(self, be, energy_calls,
                                                   monkeypatch):
        """A line search that finds no step and met an overflowing trial
        blames the potential at once: here each of its 47 trials, down to
        1e-14 of a step of 1e200 m, overflows."""
        from ionmodes import AxialPotential, UnconfinedPotentialError

        monkeypatch.setattr(statics, "_descent_step",
                            lambda g, h: -1e200 * np.sign(g))
        with pytest.raises(UnconfinedPotentialError,
                           match=r"^the potential does not confine the chain"):
            solve_equilibrium([be], AxialPotential(
                kappa={2: KAPPA2, 4: -5e17}), initial_guess=[1e-6])
        assert energy_calls["evaluate"] == 1 + 47

    def test_descent_step_on_singular_hessian(self):
        g = np.array([1.0, 1.0])
        step = statics._descent_step(g, np.diag([0.0, 1.0]))
        assert np.isfinite(step).all() and g @ step < 0

    def test_no_descent_direction_raises(self):
        """A zero gradient admits no descent, however far the curvature is
        shifted: the step gives up after its one shifted solve."""
        from ionmodes import ConvergenceError

        with pytest.raises(ConvergenceError,
                           match="^could not produce a descent direction$"):
            statics._descent_step(np.zeros(2), np.eye(2))

    def test_stationary_maximum_is_unconfined(self, be):
        """Started on the cubic's maximum z* = -2 kappa2 / (3 kappa3), one
        ion stops at once on a stationary point that is no minimum."""
        from ionmodes import UnconfinedPotentialError

        pot = axial_from_lambdas(1.3e7, {3: 300e-6})
        z_max = -2 * pot.kappa[2] / (3 * pot.kappa[3])
        with pytest.raises(UnconfinedPotentialError,
                           match=r"^stationary point is not a minimum: "
                                 r"softest Hessian mode \(index 0 of 1, "
                                 r"ascending\) has eigenvalue -\S+ J/m\^2; "
                                 r"1 non-positive mode\(s\)$"):
            solve_equilibrium([be], pot, initial_guess=[z_max])

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

    def test_unconfined_potential_detected(self, be, energy_calls):
        # strong negative quartic turns the pair's stationary point unstable;
        # two line searches in a row that overflow end the solve
        from ionmodes import AxialPotential, UnconfinedPotentialError

        pot = AxialPotential(kappa={2: KAPPA2, 4: -5e17})
        with pytest.raises(UnconfinedPotentialError, match="does not confine"):
            solve_equilibrium([be, be], pot)
        assert energy_calls["evaluate"] <= 160

    def test_field_past_the_cubic_barrier_is_unconfined(self, be,
                                                        energy_calls):
        """A field above the largest restoring field of the cubic well,
        kappa2 |lambda3| / 3 = 1300 V/m, leaves one ion no equilibrium: it
        runs out until its energy overflows, the overflowing trials are
        rejected without a warning, and two line searches in a row that meet
        one end the solve."""
        from ionmodes import UnconfinedPotentialError

        pot = axial_from_lambdas(1.3e7, {3: -300e-6}, uniform_field=1e4)
        with pytest.raises(UnconfinedPotentialError,
                           match=r"^the potential does not confine the chain: "
                                 r"the energy kept falling while an ion ran "
                                 r"\S+e\+\d+ m out"):
            solve_equilibrium([be], pot)
        assert energy_calls["evaluate"] <= 160

    def test_step_past_a_fold_solves(self):
        """Just past the field where the near minimum of this pair merges
        with a saddle, the iterate is above the tolerance but at U's
        rounding floor, and the shifted step at the indefinite Hessian
        lowers no gradient: the slope-measured Armijo test takes it, and the
        solve ends in the far well that a slightly larger field reaches."""
        def pair(field):
            return solve_equilibrium((BE9, MG24), axial_from_lambdas(
                1.3e7, {3: -230e-6, 4: 400e-6}, uniform_field=field))

        cfg, far = pair(1236.0011382477742), pair(1236.0012)
        assert cfg.positions == pytest.approx([104.3167e-6, 293.0072e-6],
                                              abs=1e-10)
        assert cfg.positions == pytest.approx(far.positions, abs=1e-10)
        l = characteristic_length(BE9, 1.3e7)
        assert cfg.residual_gradient < 1e-10 * 2 * BE9.charge_si * 1.3e7 * l


def _chain40():
    """A bench-like mixed chain: 40 Be+/Mg+ ions in a cubic and quartic
    well with a uniform field, anharmonicities in units of its length."""
    order = "MBMBBMBBBMBBBBBBBMMBBBBBBBBBBBBBBBBBBBMB"
    species = [MG24 if c == "M" else BE9 for c in order]
    scale = 12.425013 * characteristic_length(BE9, KAPPA2)
    return species, axial_from_lambdas(
        KAPPA2, {3: -6 * scale, 4: 4 * scale}, uniform_field=2.5)


def _chain80():
    """A bench-like draw of 80 Be+/Mg+ ions (70/30) in a cubic and quartic
    well with a uniform field, whose last full Newton step, below the
    tolerance, does not lower the gradient."""
    rng = np.random.default_rng(103)
    species = [BE9 if rng.random() < 0.7 else MG24 for _ in range(80)]
    scale = 17.298567 * characteristic_length(BE9, KAPPA2)
    return species, axial_from_lambdas(
        KAPPA2, {3: rng.choice((-1.0, 1.0)) * rng.uniform(3, 10) * scale,
                 4: rng.uniform(2, 6) * scale},
        uniform_field=rng.uniform(-5.0, 5.0))


START_CASES = {
    "pair_cubic": lambda: ([BE9, MG24], axial_from_lambdas(KAPPA2, {3: 250e-6})),
    "chain40": _chain40,
    "chain80": _chain80,
    "single_ion_field": lambda: ([MG24], axial_from_lambdas(
        KAPPA2, {3: LAMBDA3}, uniform_field=40.0)),
    "mgh_3d": lambda: ([MGH25] * 4, trap3d_from_frequencies(
        MGH25, (9.3e6, 6.1e6), axial_from_lambdas(
            6.3e6, {3: -400e-6, 4: 500e-6}, expansion_origin=1e-6))),
}


class TestSolverStart:
    """The default start is the harmonic chain moved by one harmonic Newton
    step against the non-harmonic on-site forces.  One Newton loop then
    evaluates orders (0, 1, 2) while the gradient is above the tolerance and
    (1, 2) below it, and ends on a zero gradient, on a step within a few
    ulps of the positions, or on a full step below the tolerance that does
    not lower the gradient."""

    @staticmethod
    def _harmonic(species, potential):
        axial = potential.axial
        xi, _ = statics._harmonic_chain_scaled(len(species))
        return axial.expansion_origin \
            + characteristic_length(species[0], axial.kappa2) * xi

    # per case, a solve's evaluations of orders (0, 1, 2) above the
    # tolerance, then of (1, 2) below it
    ORDERS = {"pair_cubic": (3, 0), "chain40": (4, 0), "chain80": (4, 1),
              "single_ion_field": (3, 1), "mgh_3d": (3, 1)}

    @pytest.mark.parametrize("case, most",
                             [(c, sum(n)) for c, n in ORDERS.items()])
    def test_evaluations_per_solve(self, energy_calls, case, most):
        assert self.ORDERS.keys() == START_CASES.keys()
        species, pot = START_CASES[case]()
        solve_equilibrium(species, pot)  # fills the per-size caches
        energy_calls.clear()
        solve_equilibrium(species, pot)
        assert energy_calls == {"build": 1, "evaluate": energy_calls["evaluate"]}
        assert energy_calls["evaluate"] <= most
        above, below = self.ORDERS[case]
        assert energy_calls.orders == [(0, 1, 2)] * above + [(1, 2)] * below

    def test_rejected_full_step_ends_the_iteration(self):
        """chain80's solve ends on its full Newton step below the tolerance:
        the step is more than a few ulps of the positions, and the gradient
        it leads to is no lower than the one returned."""
        cfg = solve_equilibrium(*START_CASES["chain80"]())
        (g,) = cfg._energy(cfg.positions, 1)
        assert np.abs(g).max() == cfg.residual_gradient  # the solve's own g
        step = np.linalg.solve(cfg._hessian, -g)
        assert np.abs(step).max() \
            > 4 * np.finfo(float).eps * np.abs(cfg.positions).max()
        (g_step,) = cfg._energy(cfg.positions + step, 1)
        assert 0 < cfg.residual_gradient <= np.abs(g_step).max()

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_harmonic_equal_ions_start_on_the_chain(self, be, n):
        from ionmodes import AxialPotential

        pot = AxialPotential(kappa={2: KAPPA2}, expansion_origin=3e-6)
        species = [be] * n
        start = statics._initial_guess(species, _Energy(species, pot))
        l = characteristic_length(be, KAPPA2)
        assert np.max(np.abs(start - self._harmonic(species, pot))) <= 1e-15 * l

    def test_crossing_start_falls_back_to_the_harmonic_chain(self, be):
        # a quartic this strong overshoots the pair's separation
        pot = axial_from_lambdas(KAPPA2, {4: 1.5e-6})
        species = [be, be]
        harmonic = self._harmonic(species, pot)
        (force,) = pot.derivatives(harmonic, (1,), be.charge_si)
        assert np.all(force * np.sign(harmonic) > 0)  # not balanced there
        assert np.array_equal(
            statics._initial_guess(species, _Energy(species, pot)), harmonic)
        cfg = solve_equilibrium(species, pot)
        l = characteristic_length(be, KAPPA2)
        assert cfg.residual_gradient < 1e-10 * 2 * be.charge_si * KAPPA2 * l
        assert chain_length(cfg) < 0.9 * 2 ** (1 / 3) * l

    @pytest.mark.parametrize("case", sorted(START_CASES))
    def test_default_start_agrees_with_harmonic_start(self, case):
        species, pot = START_CASES[case]()
        cfg = solve_equilibrium(species, pot)
        from_harmonic = solve_equilibrium(
            species, pot, initial_guess=self._harmonic(species, pot))
        z = cfg.axial_positions
        extent = z[-1] - z[0] if len(z) > 1 \
            else characteristic_length(species[0], pot.axial.kappa2)
        assert np.max(np.abs(cfg.positions - from_harmonic.positions)) \
            <= 8 * np.finfo(float).eps * extent
        tol = 1e-10 * 2 * species[0].charge_si * pot.axial.kappa2 \
            * characteristic_length(species[0], pot.axial.kappa2)
        assert max(cfg.residual_gradient, from_harmonic.residual_gradient) < tol

    @pytest.mark.parametrize("charges", [(-1,), (1, -1), (-1, -1), (1, 2, -3)])
    def test_negative_charge_named_before_evaluation(self, be, monkeypatch,
                                                     charges):
        from ionmodes import UnconfinedPotentialError

        def evaluate(*args):
            raise AssertionError("energy evaluated for a negative charge")

        monkeypatch.setattr(statics._Energy, "__call__", evaluate)
        species = [IonSpecies(f"q{q}", be.mass, q) for q in charges]
        first = next(i for i, q in enumerate(charges) if q < 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnconfinedPotentialError,
                               match=rf"^ion {first} \(q{charges[first]}\) "
                                     rf"has charge {charges[first]} e"):
                solve_equilibrium(species, axial_from_lambdas(1.3e7, {3: 3e-4}))


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
        """Singly charged ions, then a doubly charged one, whose charge each
        on-site tensor must carry."""
        doubly = IonSpecies("MgH2+", MGH25.mass, 2)
        for species in ((MGH25, MG24, MGH25, MG24),
                        (MGH25, doubly, MG24, MGH25)):
            energy, pos = self._energy(tensors in ("both", "cubic"),
                                       tensors in ("both", "quartic"), species)
            axial = energy.axial.derivatives(pos[:, -1], orders, energy.charge,
                                             energy.slope)
            got = energy._onsite(pos, orders, axial)
            assert len(got) == len(orders)
            for m, a, blk in zip(orders, axial, got):
                want = onsite_oracle(energy.trap, species, pos, m, a)
                assert blk.shape == want.shape == (4,) + (3,) * m
                assert np.max(np.abs(blk - want)) <= \
                    1e-13 * np.max(np.abs(want))

    def test_linear_chain_blocks(self, be, mg, pot_anharmonic):
        energy = _Energy((be, mg, be), pot_anharmonic)
        pos = np.array([[-4e-6], [0.5e-6], [5e-6]])
        orders = (0, 1, 2, 3, 4)
        axial = energy.axial.derivatives(pos[:, -1], orders, energy.charge,
                                         energy.slope)
        for m, a, blk in zip(orders, axial, energy._onsite(pos, orders, axial)):
            assert np.array_equal(blk, onsite_oracle(
                pot_anharmonic, (be, mg, be), pos, m, a))


class TestCoulombKernel:
    """The pair kernel sums the delta placements of orders 3 and 4 by tables
    set up once per component count; the term-by-term broadcast form is its
    oracle, on both layouts ``_Energy._blocks`` passes."""

    @staticmethod
    def _separations(n, k, full):
        """r_i - r_j of n random ions with k components, over every (i, j)
        (self-pairs set to 1, as ``_blocks`` sets them) or over i < j."""
        pos = np.random.default_rng(n + 10 * k).normal(scale=5e-6,
                                                        size=(n, k))
        if full:
            sep = pos[:, None, :] - pos[None, :, :]
            sep[np.diag_indices(n)] = 1.0
            return sep
        i, j = np.triu_indices(n, 1)
        return pos[i] - pos[j]

    # (ions, full layout) for 0 (a one-ion chain), 1, 4, 16 and 435 pairs
    @pytest.mark.parametrize("n,full", [(1, False), (2, False), (2, True),
                                        (4, True), (30, False)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_broadcast_terms(self, n, full, k):
        from ionmodes import coulomb

        sep = self._separations(n, k, full)
        r2 = np.add.reduce(sep * sep, axis=-1)
        got = coulomb.inv_r_derivatives(sep, r2, range(5))
        for m, block in enumerate(got):
            want = inv_r_oracle(sep, np.sqrt(r2), m)
            assert block.shape == want.shape == sep.shape[:-1] + (k,) * m
            if m < 4:
                assert np.array_equal(block, want)
                continue
            flat = (-1, k**4)
            scale = np.abs(want.reshape(flat)).max(axis=1)
            err = np.abs((block - want).reshape(flat)).max(axis=1)
            assert np.all(err <= 4e-15 * scale)
