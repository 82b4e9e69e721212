import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ionmodes.calibration
from ionmodes import BracketError, IonSpecies, PotentialFamily, \
    axial_from_lambdas, characteristic_length, com_frequency_scan, \
    field_sensitivity, infer_pseudo_gradient, make_species, mode_spectrum, \
    null_parameter, order_shift, solve_equilibrium, trap3d_from_frequencies
from ionmodes import statics
from ionmodes.config import validate_config
from ionmodes.statics import _reordered

from conftest import KAPPA2, LAMBDA3, LAMBDA4, _labelled_frequency_oracle, \
    infer_pseudo_gradient_oracle, make_cfg, null_parameter_oracle, \
    order_shift_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestOrderShift:
    def test_mixed_pair_cubic(self, be, mg, pot_cubic):
        rep = order_shift(pot_cubic, be, mg, "in_phase")
        assert abs(rep.delta) == pytest.approx(20.8e3, rel=0.03)
        assert rep.delta == rep.f_ab - rep.f_ba

    def test_harmonic_control(self, be, mg, pot_harmonic):
        rep = order_shift(pot_harmonic, be, mg, "in_phase")
        assert abs(rep.delta) < 1.0

    def test_quartic_only_no_shift(self, be, mg):
        pot = axial_from_lambdas(KAPPA2, {4: LAMBDA4})
        for label in ("in_phase", "out_of_phase"):
            assert abs(order_shift(pot, be, mg, label).delta) < 1.0

    def test_equal_masses_never_shift(self, be, pot_anharmonic):
        rep = order_shift(pot_anharmonic, be, be, "in_phase")
        assert rep.delta == pytest.approx(0.0, abs=1e-10 * rep.f_ab)

    def test_linear_scaling_in_inverse_lambda(self, be, mg):
        l = characteristic_length(be, KAPPA2)
        xs = np.geomspace(0.002, 0.02, 6)
        deltas = []
        for x in xs:
            pot = axial_from_lambdas(KAPPA2, {3: -l / x})
            deltas.append(abs(order_shift(pot, be, mg, "in_phase").delta))
        slope = np.polyfit(np.log(xs), np.log(deltas), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_unknown_label_rejected(self, be, mg, pot_cubic):
        with pytest.raises(ValueError):
            order_shift(pot_cubic, be, mg, "sideways")


class TestNullParameter:
    def test_cubic_scaling_family_root(self, be, mg, pot_cubic):
        family = PotentialFamily(base=pot_cubic,
                                 kappa_actions={3: -pot_cubic.kappa[3]})
        p_star = null_parameter(family, be, mg, "in_phase", (0.0, 2.0))
        assert p_star == pytest.approx(1.0, abs=1e-3)

    def test_idempotent(self, be, mg, pot_cubic):
        family = PotentialFamily(base=pot_cubic,
                                 kappa_actions={3: -pot_cubic.kappa[3]})
        p1 = null_parameter(family, be, mg, "in_phase", (0.0, 2.0))
        p2 = null_parameter(family, be, mg, "in_phase", (p1 - 0.3, p1 + 0.3))
        assert p2 == pytest.approx(p1, abs=1e-6)

    def test_field_family_nulls_local_cubic(self, be, mg, pot_anharmonic):
        """With a quartic term present, a uniform field can null the shift.

        The displaced chain samples a local cubic coefficient
        kappa3 + 4 kappa4 z0, which crosses zero near z0 = -kappa3/(4 kappa4);
        the leading-order field estimate 2 kappa2 z0 locates the root to
        within a factor of order unity.
        """
        family = PotentialFamily(base=pot_anharmonic, field_action=1.0)
        p_star = null_parameter(family, be, mg, "in_phase", (0.0, 4000.0))
        assert abs(order_shift(family.at(p_star), be, mg, "in_phase").delta) < 1.0
        estimate = -pot_anharmonic.kappa[3] * KAPPA2 / (
            2 * pot_anharmonic.kappa[4])
        assert estimate / 2 < p_star < estimate * 2

    def test_harmonic_base_has_no_sign_change(self, be, mg, pot_harmonic):
        # a field acting on a purely harmonic well never shifts mode
        # frequencies, so the order shift is null across the whole bracket
        family = PotentialFamily(base=pot_harmonic, field_action=1.0)
        with pytest.raises(BracketError, match="sign change"):
            null_parameter(family, be, mg, "in_phase", (-100.0, 100.0))

    def test_step_limit(self, monkeypatch, be, mg, pot_anharmonic):
        """The field family's null takes more than one Newton step: with a
        cap of one, the root find says where it stopped."""
        monkeypatch.setattr(ionmodes.calibration, "MAX_ROOT_ITER", 1)
        family = PotentialFamily(base=pot_anharmonic, field_action=1.0)
        with pytest.raises(BracketError, match=r"^no root after 1 steps: "
                                               r"stopped at p = 434\.919$"):
            null_parameter(family, be, mg, "in_phase", (0.0, 4000.0))

    def test_no_sign_change_named(self, be, mg, pot_cubic):
        # the family's null is at p = 1, outside the bracket
        family = PotentialFamily(base=pot_cubic,
                                 kappa_actions={3: -pot_cubic.kappa[3]})
        with pytest.raises(BracketError,
                           match=r"^order shift does not change sign over the "
                                 r"bracket: delta\(0\.0\) = \S+ Hz, "
                                 r"delta\(0\.5\) = \S+ Hz$"):
            null_parameter(family, be, mg, "in_phase", (0.0, 0.5))

    def test_step_size_exit(self, monkeypatch, be, mg, pot_anharmonic):
        """With p in units of 1e6 V/m the field null ends on a Newton step
        within 1e-14 of the bracket's scale, so the shift's derivative is
        taken at the returned p; in V/m the same null ends on the rounding
        exit, which returns before any derivative at that p."""
        fields = []  # the field of each shift derivative taken
        jacobian = ionmodes.calibration._shift_jacobian

        def recorded(spectra, family):
            fields.append(spectra[0].config.potential.uniform_field)
            return jacobian(spectra, family)

        monkeypatch.setattr(ionmodes.calibration, "_shift_jacobian", recorded)
        mega = PotentialFamily(base=pot_anharmonic, field_action=1e6)
        p_star = null_parameter(mega, be, mg, "in_phase", (0.0, 4e-3))
        assert p_star == pytest.approx(1.244593470036569e-3, rel=1e-13)
        assert fields[-1] == mega.at(p_star).uniform_field
        fields.clear()
        volts = PotentialFamily(base=pot_anharmonic, field_action=1.0)
        p_volts = null_parameter(volts, be, mg, "in_phase", (0.0, 4000.0))
        assert p_volts == pytest.approx(1e6 * p_star, rel=1e-11)
        assert volts.at(p_volts).uniform_field not in fields

    @pytest.mark.parametrize("label", ["in_phase", "out_of_phase"])
    def test_null_across_a_fold_names_its_soft_mode(self, be, mg, label):
        """This pair's order shift changes sign by a jump of the
        equilibrium: as the field grows, the near well of the second ion
        (about 118 um) merges with a saddle and vanishes, and the ion moves
        out to about 293 um.  The root find closes on that fold, where the
        solve ends on a stationary point that is not a minimum, and the
        error names its one soft mode, whose curvature is nearly zero."""
        from ionmodes import UnconfinedPotentialError

        family = PotentialFamily(base=axial_from_lambdas(
            KAPPA2, {3: -230e-6, 4: 400e-6}), field_action=1.0)
        with pytest.raises(UnconfinedPotentialError,
                           match=r"^stationary point is not a minimum: "
                                 r"softest Hessian mode \(index 0 of 2, "
                                 r"ascending\) has eigenvalue \S+ J/m\^2; "
                                 r"1 non-positive mode\(s\)$") as exc:
            null_parameter(family, be, mg, label, (0.0, 4000.0))
        eigenvalue = float(re.search(r"eigenvalue (\S+) J", str(exc.value))[1])
        assert -1e-6 * 2 * be.charge_si * KAPPA2 < eigenvalue < 0

    @pytest.mark.parametrize("bracket", [(np.nan, 2.0), (0.0, np.inf),
                                         (-np.inf, 2.0)])
    def test_non_finite_bracket_rejected(self, monkeypatch, be, mg, pot_cubic,
                                         bracket):
        """Refused by name before any solve, not as a malformed potential."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)
        family = PotentialFamily(base=pot_cubic,
                                 kappa_actions={3: -pot_cubic.kappa[3]})
        with pytest.raises(ValueError, match=r"^bracket ends must be finite"):
            null_parameter(family, be, mg, "in_phase", bracket)


class TestInferPseudoGradient:
    def _family(self, pot):
        return PotentialFamily(base=pot, kappa_actions={3: -pot.kappa[3]})

    def test_round_trip(self, be, mg):
        g0 = 0.2
        pot = axial_from_lambdas(KAPPA2, {3: LAMBDA3}, pseudo_gradient=g0,
                                 pseudo_reference=be)
        fam = self._family(pot)
        p_star = null_parameter(fam, be, mg, "in_phase", (0.0, 2.0))
        measured = order_shift(fam.at(p_star), be, mg, "out_of_phase").delta
        fam0 = self._family(dataclasses.replace(pot, pseudo_gradient=0.0))
        g = infer_pseudo_gradient(fam0, be, mg, measured, (-1.0, 1.0),
                                  (0.0, 2.0))
        assert g == pytest.approx(g0, rel=0.01)

    def test_zero_gradient_means_zero_residual(self, be, mg, pot_cubic):
        fam = self._family(pot_cubic)
        p_star = null_parameter(fam, be, mg, "in_phase", (0.0, 2.0))
        out = order_shift(fam.at(p_star), be, mg, "out_of_phase")
        assert abs(out.delta) < 1.0

    def test_residual_sign_follows_gradient_sign(self, be, mg):
        residuals = {}
        for g0 in (0.2, -0.2):
            pot = axial_from_lambdas(KAPPA2, {3: LAMBDA3}, pseudo_gradient=g0,
                                     pseudo_reference=be)
            fam = self._family(pot)
            p_star = null_parameter(fam, be, mg, "in_phase", (0.0, 2.0))
            residuals[g0] = order_shift(fam.at(p_star), be, mg,
                                        "out_of_phase").delta
        assert residuals[0.2] * residuals[-0.2] < 0
        assert residuals[0.2] == pytest.approx(-residuals[-0.2], rel=0.05)

    def test_no_root_in_bracket(self, be, mg, pot_cubic):
        fam = self._family(dataclasses.replace(pot_cubic, pseudo_gradient=0.0,
                                               pseudo_reference=be))
        with pytest.raises(BracketError):
            infer_pseudo_gradient(fam, be, mg, 5e4, (-0.05, 0.05), (0.0, 2.0))

    def test_base_without_pseudo_reference_rejected(self, monkeypatch, be,
                                                    mg, pot_cubic):
        """A gradient acts on a reference mass: a base without one is refused
        by name before any solve."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)
        assert pot_cubic.pseudo_reference is None
        with pytest.raises(ValueError, match="^family base must carry a "
                                             "pseudo_reference species$"):
            infer_pseudo_gradient(self._family(pot_cubic), be, mg, 0.0,
                                  (-1.0, 1.0), (0.0, 2.0))

    @pytest.mark.parametrize("measured", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurement_rejected(self, monkeypatch, be, mg,
                                             measured):
        """Refused by name before any solve, not inside the root finder."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)
        fam = _cubic_family(_gradient_pot(be, 0.0))
        with pytest.raises(ValueError,
                           match="^measured_out_shift must be finite$"):
            infer_pseudo_gradient(fam, be, mg, measured, (-1.0, 1.0),
                                  (0.0, 2.0))

    @pytest.mark.parametrize("name,brackets", [
        ("gradient_bracket", ((-1.0, np.inf), (0.0, 2.0))),
        ("gradient_bracket", ((np.nan, 1.0), (0.0, 2.0))),
        ("param_bracket", ((-1.0, 1.0), (0.0, np.nan))),
        ("param_bracket", ((-1.0, 1.0), (-np.inf, 2.0)))])
    def test_non_finite_bracket_end_rejected(self, monkeypatch, be, mg, name,
                                             brackets):
        """Refused by name before any solve, not as a malformed potential."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)
        fam = _cubic_family(_gradient_pot(be, 0.0))
        with pytest.raises(ValueError, match=rf"^{name} ends must be finite"):
            infer_pseudo_gradient(fam, be, mg, 0.0, *brackets)

    def test_non_finite_bracket_residual_rejected(self, monkeypatch, be, mg):
        """A non-finite order shift stops the root find where it appeared."""
        def fake_frequencies(pot, species_a, species_b):
            f = np.nan if pot.pseudo_gradient > 0 else 1.0
            return None, np.array([[f, 0.0]] * 2)

        def fake_jacobian(*args):
            return np.array([[0.0, -1.0], [1.0, 0.0]])

        monkeypatch.setattr(ionmodes.calibration, "_order_frequencies",
                            fake_frequencies)
        monkeypatch.setattr(ionmodes.calibration, "_shift_jacobian",
                            fake_jacobian)
        fam = _cubic_family(_gradient_pot(be, 0.0))
        # the Newton step from the midpoints (1, 0) lands on (0, 1), the
        # first positive gradient
        with pytest.raises(BracketError,
                           match=r"non-finite order shift residual "
                                 r"\[nan nan\] Hz at \(p, g\) = "
                                 r"\(0, 1\)$"):
            infer_pseudo_gradient(fam, be, mg, 0.0, (-1.0, 1.0), (0.0, 2.0))

    def test_zero_width_gradient_bracket(self, monkeypatch, be, mg):
        """No difference Jacobian exists across a zero-width bracket."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)
        fam = _cubic_family(_gradient_pot(be, 0.0))
        with pytest.raises(BracketError,
                           match=r"^gradient_bracket \(0\.2, 0\.2\) "
                                 r"has zero width$"):
            infer_pseudo_gradient(fam, be, mg, 0.0, (0.2, 0.2), (0.0, 2.0))

    def test_equal_species_singular_jacobian(self, be):
        # equal ions in either order have the same statics and modes, so
        # neither shift moves with p or g
        fam = _cubic_family(_gradient_pot(be, 0.0))
        with pytest.raises(BracketError, match=r"^singular Jacobian at step "
                                               r"1, \(p, g\) = \(1, 0\)$"):
            infer_pseudo_gradient(fam, be, be, 10.0, (-1.0, 1.0), (0.0, 2.0))

    @pytest.mark.parametrize("param_bracket", [(0.0, 0.5), (1.5, 3.0)])
    def test_param_bracket_without_null(self, be, mg, param_bracket):
        """The in-phase null sits near p = 1: the first step out of the
        bracket is cut back, the second out of the same end stops."""
        fam = _cubic_family(_gradient_pot(be, 0.0))
        message = f"step 2 left param_bracket {param_bracket!r}: (p, g) = (0.99"
        with pytest.raises(BracketError, match="^" + re.escape(message)):
            infer_pseudo_gradient(fam, be, mg, 150.0, (-1.0, 1.0),
                                  param_bracket)

    def test_step_limit(self, monkeypatch, be, mg):
        monkeypatch.setattr(ionmodes.calibration, "MAX_ROOT_ITER", 1)
        fam = _cubic_family(_gradient_pot(be, 0.0))
        with pytest.raises(BracketError, match=r"^no root after 1 steps: "
                                               r"stopped at \(p, g\) = "):
            infer_pseudo_gradient(fam, be, mg, 150.0, (-1.0, 1.0), (0.0, 2.0))


def _random_chain(rng, n):
    """A solved axial chain of n random ions: masses 1-300 u, charges 1-3 e,
    kappa2 1e5-1e9 V/m^2, odd and even anharmonicity, a uniform field and
    a pseudo-gradient, all weak on the chain's length scale (the lightest
    ion feels the strongest pseudo-gradient, and it is the reference)."""
    species = sorted((make_species(f"X{i}", rng.uniform(1, 300),
                                   int(rng.integers(1, 4))) for i in range(n)),
                     key=lambda ion: ion.mass)
    kappa2 = 10 ** rng.uniform(5, 9)
    length = n * characteristic_length(max(species, key=lambda ion: ion.charge),
                                       kappa2)
    pot = axial_from_lambdas(
        kappa2, {3: rng.choice([-1.0, 1.0]) * length / rng.uniform(0.01, 0.1),
                 4: length / np.sqrt(rng.uniform(1e-3, 2e-2))},
        uniform_field=kappa2 * length * rng.uniform(-1, 1),
        pseudo_gradient=kappa2 * length * rng.uniform(-1, 1),
        pseudo_reference=species[0])
    rng.shuffle(species)
    return mode_spectrum(solve_equilibrium(species, pot))


class TestModeOrder:
    """The axial Hessian's off-diagonal entries are the Coulomb terms, all
    negative, so by Perron-Frobenius the lowest mode has no sign change:
    the library names the two-ion modes, and 'com', by frequency order."""

    def test_sign_product_agrees_with_frequency_order(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            spectrum = _random_chain(rng, 2)
            for label, k in ionmodes.calibration._MODE.items():
                assert _labelled_frequency_oracle(spectrum, label) \
                    == spectrum.frequencies[k]

    def test_lowest_mode_is_all_in_phase(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            spectrum = _random_chain(rng, int(rng.integers(2, 11)))
            com = ionmodes.calibration._mode_pick(spectrum, "com")
            lowest = spectrum.eigenvectors[:, com]
            assert np.all(lowest * lowest[0] > 0)


class TestFieldSensitivity:
    def test_single_ion_cubic(self, be, pot_cubic):
        shift = field_sensitivity(pot_cubic, [be], 2.0)
        assert abs(shift) == pytest.approx(1.0e-3, rel=0.1)

    def test_harmonic_immune(self, be, pot_harmonic):
        assert abs(field_sensitivity(pot_harmonic, [be], 2.0)) < 1e-12

    def test_odd_in_field(self, be, pot_cubic):
        plus = field_sensitivity(pot_cubic, [be], 2.0)
        minus = field_sensitivity(pot_cubic, [be], -2.0)
        assert minus == pytest.approx(-plus, rel=1e-2)

    def test_small_field_slope(self, be, pot_cubic):
        e = 0.1
        slope = field_sensitivity(pot_cubic, [be], e) / e
        analytic = 3.0 / (2 * KAPPA2 * LAMBDA3)
        assert slope == pytest.approx(analytic, rel=0.05)


class TestComFrequencyScan:
    def test_harmonic_chain_decoupled(self, be, pot_harmonic):
        result = com_frequency_scan(pot_harmonic, be, range(1, 9))
        assert abs(result.slope) < 1.0

    def test_anharmonic_chain_shift(self, be, pot_anharmonic):
        result = com_frequency_scan(pot_anharmonic, be, range(1, 9))
        assert result.slope < 0
        assert result.r_squared > 0.99

    def test_single_ion_point(self, be, pot_anharmonic):
        result = com_frequency_scan(pot_anharmonic, be, [1])
        spec = mode_spectrum(solve_equilibrium([be], pot_anharmonic))
        assert result.frequencies[0] == pytest.approx(spec.frequencies[0],
                                                      rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("counts", [[3, 3], [1, 1]])
    def test_one_distinct_count_is_not_fitted(self, be, pot_anharmonic,
                                              counts):
        result = com_frequency_scan(pot_anharmonic, be, counts)
        assert result.frequencies[0] == result.frequencies[1]
        assert (result.slope, result.intercept, result.r_squared) == \
            (0.0, result.frequencies[0], 1.0)

    def test_invalid_counts(self, be, pot_harmonic):
        with pytest.raises(ValueError):
            com_frequency_scan(pot_harmonic, be, [0, 1])

    def test_empty_counts(self, be, pot_harmonic):
        with pytest.raises(ValueError, match="non-empty"):
            com_frequency_scan(pot_harmonic, be, [])

    @pytest.mark.parametrize("counts", [[1, 2.7, True], [1, 2.0], [True, 2],
                                        ["1", 2]],
                             ids=["float_and_bool", "integral_float", "bool",
                                  "string"])
    def test_non_integer_counts_rejected(self, be, pot_harmonic, counts):
        """Counts are never truncated: [1, 2.7, True] is not (1, 2, 1)."""
        with pytest.raises(ValueError,
                           match=r"^ion counts must be integers, got \["):
            com_frequency_scan(pot_harmonic, be, counts)

    def test_numpy_integer_counts_accepted(self, be, pot_harmonic):
        result = com_frequency_scan(pot_harmonic, be, np.arange(1, 3))
        assert result.counts == (1, 2)
        assert all(type(n) is int for n in result.counts)


def _cubic_family(pot):
    return PotentialFamily(base=pot, kappa_actions={3: -pot.kappa[3]})


def _gradient_pot(be, g0):
    return axial_from_lambdas(KAPPA2, {3: LAMBDA3}, pseudo_gradient=g0,
                              pseudo_reference=be)


def _xtol(g_lo, g_hi):
    """The g tolerance of infer_pseudo_gradient and of its oracle."""
    return 1e-10 * max(abs(g_lo), abs(g_hi), 1e-3)


def _null_xtol(bracket):
    """The p tolerance of null_parameter and of its oracle."""
    return 1e-14 * max(abs(bracket[0]), abs(bracket[1]), 1.0)


def _shipped_null():
    """configs/null_kappa3.json as (family, ion pair, label, bracket)."""
    cfg = validate_config(
        json.loads((CONFIGS / "null_kappa3.json").read_text()), "null")
    section = cfg.sections["null"]
    fam = PotentialFamily(base=cfg.axial,
                          kappa_actions=section["family"]["kappa"],
                          field_action=section["family"]["field"])
    return fam, tuple(cfg.chain[:2]), section["mode_label"], section["bracket"]


class TestSharedSolvesMatchOracle:
    """Sharing solves across labels and repeat evaluations changes no bit:
    an order shift equals the unshared oracle in tests/conftest.py with ==.
    The Newton null and the oracle's Brent null stop at different iterates,
    each within its p tolerance xtol of the root: they agree within 2 xtol,
    and with == where the root is exact (p = 1 in the shipped config)."""

    @pytest.mark.parametrize("label", ["in_phase", "out_of_phase"])
    @pytest.mark.parametrize("pot_name", ["pot_cubic", "pot_anharmonic"])
    def test_order_shift(self, request, be, mg, pot_name, label):
        pot = request.getfixturevalue(pot_name)
        for pair in ((be, mg), (mg, be)):
            assert order_shift(pot, *pair, label) == \
                order_shift_oracle(pot, *pair, label)

    @pytest.mark.parametrize("label", ["in_phase", "out_of_phase"])
    def test_null_cubic_family(self, be, mg, pot_cubic, label):
        fam = _cubic_family(pot_cubic)
        p1 = null_parameter(fam, be, mg, label, (0.0, 2.0))
        assert abs(p1 - null_parameter_oracle(fam, be, mg, label,
                                              (0.0, 2.0))) <= \
            2 * _null_xtol((0.0, 2.0))
        narrowed = (p1 - 0.3, p1 + 0.3)
        assert abs(null_parameter(fam, be, mg, label, narrowed)
                   - null_parameter_oracle(fam, be, mg, label, narrowed)) <= \
            2 * _null_xtol(narrowed)

    def test_null_field_family(self, be, mg, pot_anharmonic):
        fam = PotentialFamily(base=pot_anharmonic, field_action=1.0)
        args = (fam, be, mg, "in_phase", (0.0, 4000.0))
        assert abs(null_parameter(*args) - null_parameter_oracle(*args)) <= \
            2 * _null_xtol((0.0, 4000.0))

    def test_null_shipped_config(self):
        fam, pair, label, bracket = _shipped_null()
        args = (fam, *pair, label, bracket)
        assert null_parameter(*args) == null_parameter_oracle(*args)

    def test_null_error_message(self, be, mg, pot_harmonic):
        fam = PotentialFamily(base=pot_harmonic, field_action=1.0)
        messages = []
        for fn in (null_parameter, null_parameter_oracle):
            with pytest.raises(BracketError) as exc:
                fn(fam, be, mg, "in_phase", (-100.0, 100.0))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("g0", [0.2, -0.2])
    def test_infer_round_trip(self, be, mg, g0):
        fam = _cubic_family(_gradient_pot(be, g0))
        p_star = null_parameter(fam, be, mg, "in_phase", (0.0, 2.0))
        assert abs(p_star - null_parameter_oracle(fam, be, mg, "in_phase",
                                                  (0.0, 2.0))) <= \
            2 * _null_xtol((0.0, 2.0))
        measured = order_shift(fam.at(p_star), be, mg, "out_of_phase").delta
        fam0 = _cubic_family(_gradient_pot(be, 0.0))
        args = (fam0, be, mg, measured, (-1.0, 1.0), (0.0, 2.0))
        g = infer_pseudo_gradient(*args)
        # the joint root find is not the oracle's nested one: both land
        # within the oracle's own g tolerance of each other
        assert abs(g - infer_pseudo_gradient_oracle(*args)) <= _xtol(-1.0, 1.0)
        assert g == pytest.approx(g0, rel=0.01)

    def test_infer_error_message(self, be, mg, pot_cubic):
        """Both refuse a gradient bracket that holds no root; the library
        names the bracket its iteration left and where it stopped."""
        fam = _cubic_family(dataclasses.replace(
            pot_cubic, pseudo_gradient=0.0, pseudo_reference=be))
        args = (fam, be, mg, 5e4, (-0.05, 0.05), (0.0, 2.0))
        with pytest.raises(BracketError):
            infer_pseudo_gradient_oracle(*args)
        with pytest.raises(BracketError,
                           match=r"^step 1 left gradient_bracket "
                                 r"\(-0\.05, 0\.05\): \(p, g\) = \("):
            infer_pseudo_gradient(*args)


class TestJointRootFind:
    """The joint (p, g) root find agrees with the nested Brent oracle in
    tests/conftest.py within the oracle's own g tolerance, and recovers the
    generating gradient."""

    @pytest.mark.parametrize("g0,lambdas,family,gradient_bracket,"
                             "param_bracket", [
        (0.9, {3: LAMBDA3}, "cubic", (-1.0, 1.0), (0.0, 2.0)),
        (-0.95, {3: LAMBDA3}, "cubic", (-1.0, 1.0), (0.0, 2.0)),
        (0.2, {3: LAMBDA3}, "cubic", (-1.0, 1.0), (0.5, 1.5)),
        (0.2, {3: LAMBDA3}, "cubic", (-1.0, 1.0), (-3.0, 5.0)),
        (-0.2, {3: LAMBDA3}, "cubic", (1.0, -1.0), (0.0, 2.0)),
        (0.2, {3: LAMBDA3, 4: LAMBDA4}, "cubic", (-1.0, 1.0), (0.0, 2.0)),
        (-0.3, {3: LAMBDA3, 4: LAMBDA4}, "field", (-1.0, 1.0),
         (0.0, 4000.0))],
        ids=["near_upper_edge", "near_lower_edge", "narrow_param",
             "wide_asymmetric_param", "reversed_gradient", "quartic_cubic",
             "quartic_field"])
    def test_agrees_with_oracle(self, be, mg, g0, lambdas, family,
                                gradient_bracket, param_bracket):
        def make(g):
            pot = axial_from_lambdas(KAPPA2, lambdas, pseudo_gradient=g,
                                     pseudo_reference=be)
            if family == "field":
                return PotentialFamily(base=pot, field_action=1.0)
            return _cubic_family(pot)

        fam = make(g0)
        p_star = null_parameter(fam, be, mg, "in_phase", param_bracket)
        measured = order_shift(fam.at(p_star), be, mg, "out_of_phase").delta
        args = (make(0.0), be, mg, measured, gradient_bracket, param_bracket)
        g = infer_pseudo_gradient(*args)
        assert abs(g - infer_pseudo_gradient_oracle(*args)) <= \
            _xtol(*gradient_bracket)
        assert abs(g - g0) <= _xtol(*gradient_bracket)


def _shift_family(kind, seed, be):
    """A seeded potential with a pseudo-gradient, in the family ``kind``,
    and a family parameter inside the calibration's range."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0])
    pot = axial_from_lambdas(
        KAPPA2, {3: sign * rng.uniform(150e-6, 400e-6),
                 4: rng.uniform(150e-6, 400e-6)},
        pseudo_gradient=rng.uniform(-0.3, 0.3), pseudo_reference=be)
    family = {"cubic": PotentialFamily(pot, {3: -pot.kappa[3]}),
              "quartic": PotentialFamily(pot, {4: 100 * pot.kappa[4]}),
              "field": PotentialFamily(pot, field_action=100.0)}[kind]
    return family, rng.uniform(0.2, 0.8)


class TestShiftDerivative:
    """The order shifts' exact derivatives along the family parameter p and
    the pseudo-gradient g, against central differences of solved shifts."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("order", ["be_mg", "mg_be"])
    @pytest.mark.parametrize("kind", ["cubic", "quartic", "field"])
    def test_matches_central_differences(self, be, mg, kind, order, seed):
        """Entry by entry: the worst of these 12 cases measured 1.05e-8
        relative, the central differences' own h^2 and rounding error, so
        the bound 5e-8 leaves a factor 4.8."""
        family, p = _shift_family(kind, seed, be)
        pair = (be, mg) if order == "be_mg" else (mg, be)
        g = family.base.pseudo_gradient
        cal = ionmodes.calibration

        def shifts(p, g):
            fam = dataclasses.replace(family, base=dataclasses.replace(
                family.base, pseudo_gradient=g))
            f = cal._order_frequencies(fam.at(p), *pair)[1]
            return f[:, 0] - f[:, 1]

        jac = cal._shift_jacobian(
            cal._order_frequencies(family.at(p), *pair)[0], family)
        h = 1e-4
        central = np.column_stack([
            (shifts(p + h, g) - shifts(p - h, g)) / (2 * h),
            (shifts(p, g + h) - shifts(p, g - h)) / (2 * h)])
        assert np.all(np.abs(jac - central) <= 5e-8 * np.abs(central))

    def test_one_ion_field_limit(self, be, pot_cubic):
        """(d f^2/dE) / f^2 at E = 0 is field_sensitivity's first-order
        limit 3 / (2 kappa2 lambda3) for one ion in a cubic trap."""
        cfg = solve_equilibrium([be], pot_cubic)
        (t3,) = cfg._energy(cfg.positions, 3)
        spectrum = mode_spectrum(cfg)
        family = PotentialFamily(base=pot_cubic, field_action=1.0)
        ((df_de, df_dg),) = ionmodes.calibration._frequency_derivatives(
            spectrum, family, t3)
        assert 2 * df_de / spectrum.frequencies[0] == pytest.approx(
            3 / (2 * KAPPA2 * LAMBDA3), rel=1e-12)
        assert df_dg == 0.0


class TestSolveCounts:
    """No (ion order, potential) is solved twice within one call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        counts = Counter()
        solve = ionmodes.calibration.solve_equilibrium

        def recorder(species, pot, *args, **kwargs):
            counts[(tuple(s.label for s in species),
                    tuple(sorted(pot.kappa.items())), pot.pseudo_gradient,
                    pot.uniform_field)] += 1
            return solve(species, pot, *args, **kwargs)

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            recorder)
        return counts

    def test_order_shift_solves_each_order_once(self, solves, be, mg):
        # a pseudo-gradient scales as 1/mass, so the orders' statics differ
        order_shift(_gradient_pot(be, 0.2), be, mg, "out_of_phase")
        assert sorted(solves.values()) == [1, 1]
        assert {key[0] for key in solves} == {("Be9", "Mg24"), ("Mg24", "Be9")}

    def test_order_shift_shares_the_reversed_solve(self, solves, be, mg,
                                                    pot_cubic):
        # equal charges and no pseudo-gradient: one equilibrium, both orders
        order_shift(pot_cubic, be, mg, "out_of_phase")
        assert list(solves.values()) == [1]
        assert {key[0] for key in solves} == {("Be9", "Mg24")}

    @pytest.mark.parametrize("label", ["in_phase", "out_of_phase"])
    def test_null_parameter(self, solves, be, mg, pot_cubic, label):
        # the bracket ends and their secant point, which is the root p = 1
        null_parameter(_cubic_family(pot_cubic), be, mg, label, (0.0, 2.0))
        assert max(solves.values()) == 1
        assert sum(solves.values()) == 3
        assert {key[0] for key in solves} == {("Be9", "Mg24")}

    def test_null_parameter_with_gradient(self, solves, be, mg):
        # a pseudo-gradient gives the two orders different statics
        null_parameter(_cubic_family(_gradient_pot(be, 0.2)), be, mg,
                       "in_phase", (0.0, 2.0))
        assert max(solves.values()) == 1
        assert sum(solves.values()) <= 8

    def test_infer_pseudo_gradient(self, solves, be, mg):
        fam = _cubic_family(_gradient_pot(be, 0.0))
        args = (fam, be, mg, 150.0, (-1.0, 1.0), (0.0, 2.0))
        g = infer_pseudo_gradient(*args)
        assert max(solves.values()) == 1
        assert sum(solves.values()) <= 6
        assert all(-1.0 <= key[2] <= 1.0 for key in solves)
        assert abs(g - infer_pseudo_gradient_oracle(*args)) <= _xtol(-1.0, 1.0)


class TestReversedOrderShared:
    """The reversed order's configuration served from the forward solve is
    the one a cold solve of that order returns, bit for bit."""

    @pytest.fixture(params=["cubic_family", "field_family", "null_kappa3"])
    def case(self, request, be, mg):
        """(family, ion pair, bracket) whose orders share their statics."""
        if request.param == "cubic_family":
            pot = request.getfixturevalue("pot_cubic")
            return _cubic_family(pot), (be, mg), (0.0, 2.0)
        if request.param == "field_family":
            pot = request.getfixturevalue("pot_anharmonic")
            return (PotentialFamily(base=pot, field_action=1.0), (be, mg),
                    (0.0, 4000.0))
        fam, pair, _, bracket = _shipped_null()
        return fam, pair, tuple(bracket)

    @staticmethod
    def _assert_served_is_cold(served, cold):
        assert served.species == cold.species
        for name in ("positions", "_gradient", "_hessian"):
            got = getattr(served, name)
            assert np.array_equal(got, getattr(cold, name))
            assert not got.flags.writeable
        assert served.residual_gradient == cold.residual_gradient
        spec, spec_cold = mode_spectrum(served), mode_spectrum(cold)
        assert np.array_equal(spec.frequencies, spec_cold.frequencies)
        assert np.array_equal(spec.eigenvectors, spec_cold.eigenvectors)

    def test_equal_to_cold_solve(self, case):
        family, (a, b), (p_lo, p_hi) = case
        for p in (p_lo, 0.5 * (p_lo + p_hi), p_hi):
            pot = family.at(p)
            forward = solve_equilibrium((a, b), pot)
            served = _reordered(forward, (b, a))
            assert served.species == (b, a) and forward.species == (a, b)
            assert served._energy is forward._energy
            self._assert_served_is_cold(served, solve_equilibrium((b, a), pot))

    def test_3d_without_radial_mass_scaling(self, be, mg, pot_cubic):
        trap = trap3d_from_frequencies(be, (9e6, 6e6), pot_cubic,
                                       radial_mass_scaling=False)
        served = _reordered(solve_equilibrium((be, mg), trap), (mg, be))
        self._assert_served_is_cold(served, solve_equilibrium((mg, be), trap))

    @staticmethod
    def _differing(be, mg, pot_cubic):
        """Forward solves whose reversed order has other statics, by name."""
        be2 = IonSpecies("Be9++", be.mass, charge=2)
        cases = {
            "pseudo_gradient": ((be, mg), _gradient_pot(be, 0.2)),
            "charge": ((be, be2), pot_cubic),
            "radial_mass_scaling": ((be, mg), trap3d_from_frequencies(
                be, (9e6, 6e6), pot_cubic)),
        }
        return {name: solve_equilibrium(pair, pot)
                for name, (pair, pot) in cases.items()}

    def test_statics_that_differ_are_solved(self, be, mg, pot_cubic):
        for name, cfg in self._differing(be, mg, pot_cubic).items():
            assert _reordered(cfg, cfg.species[::-1]) is None, name

    def test_decided_without_building_an_energy(self, monkeypatch, case, be,
                                                mg, pot_cubic):
        """The per-ion constants are compared as they are: sharing a solve,
        or declining to, builds no relabelled ``_Energy``."""
        family, pair, (p_lo, _) = case
        shared = [solve_equilibrium(pair, family.at(p_lo)),
                  solve_equilibrium((be, mg), trap3d_from_frequencies(
                      be, (9e6, 6e6), pot_cubic, radial_mass_scaling=False))]
        differing = self._differing(be, mg, pot_cubic)

        def no_build(*args):
            raise AssertionError("_Energy built")

        monkeypatch.setattr(statics, "_Energy", no_build)
        for cfg in shared:
            served = _reordered(cfg, cfg.species[::-1])
            assert served.species == cfg.species[::-1]
            assert served._energy is cfg._energy
        for name, cfg in differing.items():
            assert _reordered(cfg, cfg.species[::-1]) is None, name

    def test_hand_built_configuration_is_not_served(self, be, mg, pot_cubic):
        cfg = solve_equilibrium((be, mg), pot_cubic)
        copy = make_cfg(cfg.species, pot_cubic, cfg.positions)
        assert _reordered(copy, (mg, be)) is None


class TestInputsNamedBeforeSolving:
    """Malformed calibration inputs raise a ValueError naming the argument
    before any chain is solved."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a chain")

        monkeypatch.setattr(ionmodes.calibration, "solve_equilibrium",
                            no_solve)

    @pytest.fixture
    def trap(self, be, pot_cubic):
        return trap3d_from_frequencies(be, (9e6, 6e6), pot_cubic)

    def test_order_shift_3d_potential(self, be, mg, trap):
        with pytest.raises(ValueError, match=r"^pot must be an AxialPotential, "
                                             r"got TrapModel3D$"):
            order_shift(trap, be, mg, "in_phase")

    def test_field_sensitivity_3d_potential(self, be, trap):
        with pytest.raises(ValueError, match=r"^pot must be an AxialPotential, "
                                             r"got TrapModel3D$"):
            field_sensitivity(trap, [be], 1.0)

    def test_family_3d_base(self, be, mg, trap):
        fam = PotentialFamily(base=trap, field_action=1.0)
        with pytest.raises(ValueError, match=r"^family\.base must be an "
                                             r"AxialPotential, got TrapModel3D$"):
            null_parameter(fam, be, mg, "in_phase", (0.0, 2.0))
        with pytest.raises(ValueError, match=r"^family\.base must be an "
                                             r"AxialPotential, got TrapModel3D$"):
            infer_pseudo_gradient(fam, be, mg, 0.0, (-1.0, 1.0), (0.0, 2.0))

    @pytest.mark.parametrize("field", [np.nan, np.inf, -np.inf, True, "1.0",
                                       None],
                             ids=["nan", "inf", "-inf", "bool", "string",
                                  "none"])
    def test_field_sensitivity_bad_field(self, be, pot_cubic, field):
        with pytest.raises(ValueError,
                           match=r"^field must be a finite number in V/m"):
            field_sensitivity(pot_cubic, [be], field)
