import math
import warnings

import numpy as np
import pytest

from ionmodes import axial_from_lambdas, characteristic_length, cubic_equal, \
    cubic_unequal, mode_spectrum, quartic_equal, quartic_unequal, \
    solve_equilibrium
from ionmodes.two_ion import _C_WC, _C_WS

from conftest import KAPPA2

C3 = 3 / 2 ** (5 / 3)


def _w0(species):
    return math.sqrt(2 * species.charge_si * KAPPA2 / species.mass)


class TestCubicEqual:
    def test_harmonic_limit(self, be):
        l = characteristic_length(be, KAPPA2)
        an = cubic_equal(KAPPA2, 1e3, be)  # essentially harmonic
        assert an.z_plus == pytest.approx(l / 2 ** (2 / 3), rel=1e-8)
        assert an.z_minus == pytest.approx(-l / 2 ** (2 / 3), rel=1e-8)
        assert an.omega_high / an.omega_low == pytest.approx(math.sqrt(3),
                                                             rel=1e-8)

    def test_frequency_factors_at_tenth(self, be):
        l = characteristic_length(be, KAPPA2)
        an = cubic_equal(KAPPA2, l / 0.1, be)
        assert an.omega_low / _w0(be) == pytest.approx(0.98214, abs=1e-5)
        assert an.omega_high / (_w0(be) * math.sqrt(3)) == pytest.approx(
            0.99405, abs=1e-5)

    def test_eigenvector_first_order_coefficient(self, be):
        x = 0.1
        l = characteristic_length(be, KAPPA2)
        an = cubic_equal(KAPPA2, l / x, be)
        # in-phase component ratio (1 + c x)/(1 - c x) with c = 3/2^(5/3)
        assert an.eigvec_low[0] / an.eigvec_low[1] == pytest.approx(
            (1 + C3 * x) / (1 - C3 * x), rel=1e-12)

    def test_regime_warning(self, be):
        l = characteristic_length(be, KAPPA2)
        with pytest.warns(RuntimeWarning, match="perturbative regime") as rec:
            cubic_equal(KAPPA2, l / 0.3, be)
        assert rec[0].filename == __file__

    @pytest.mark.parametrize("x", [0.05, -0.1, 0.3, -0.3])
    def test_is_unequal_at_unit_mass_ratio(self, be, x):
        lam3 = characteristic_length(be, KAPPA2) / x
        x = characteristic_length(be, KAPPA2) / lam3
        records = []
        for build in (lambda: cubic_equal(KAPPA2, lam3, be),
                      lambda: cubic_unequal(KAPPA2, lam3, be, be)):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                records.append((build(), [(str(w.message), w.filename)
                                          for w in rec]))
        (eq, eq_warn), (un, un_warn) = records
        assert eq_warn == un_warn and len(eq_warn) == (abs(x) >= 0.2)
        assert (eq.z_plus, eq.z_minus) == (un.z_plus, un.z_minus)
        assert np.array_equal(eq.eigvec_high, un.eigvec_high)
        assert np.array_equal(eq.eigvec_low, un.eigvec_low)
        assert eq.omega_high == un.omega_high * (1 - _C_WS * x**2)
        assert eq.omega_low == un.omega_low * (1 - _C_WC * x**2)


class TestQuarticEqual:
    def test_regime_warning_names_the_caller(self, be):
        # quartic_equal delegates to quartic_unequal; the warning must still
        # point at the line that called it
        l = characteristic_length(be, KAPPA2)
        with pytest.warns(RuntimeWarning, match="perturbative regime") as rec:
            quartic_equal(KAPPA2, l / 0.3, be)
        assert rec[0].filename == __file__

    def test_harmonic_limit(self, be):
        an = quartic_equal(KAPPA2, 1e3, be)
        assert an.omega_high / an.omega_low == pytest.approx(math.sqrt(3),
                                                             rel=1e-10)

    def test_frequency_factors(self, be):
        l = characteristic_length(be, KAPPA2)
        lam4 = l / 0.1  # (l/lambda4)^2 = 0.01
        an = quartic_equal(KAPPA2, lam4, be)
        assert an.omega_low / _w0(be) == pytest.approx(1.011906, abs=1e-5)
        assert an.omega_high / (_w0(be) * math.sqrt(3)) == pytest.approx(
            1.006614, abs=1e-5)

    def test_eigenvectors_stay_com_and_stretch(self, be):
        l = characteristic_length(be, KAPPA2)
        an = quartic_equal(KAPPA2, l / 0.15, be)
        assert an.eigvec_low == pytest.approx(np.array([1, 1]) / math.sqrt(2),
                                              rel=1e-14)
        assert an.eigvec_high == pytest.approx(np.array([1, -1]) / math.sqrt(2),
                                               rel=1e-14)

    def test_midpoint_at_zero(self, be):
        l = characteristic_length(be, KAPPA2)
        an = quartic_equal(KAPPA2, l / 0.1, be)
        assert an.z_plus == pytest.approx(-an.z_minus, rel=1e-14)


class TestCubicUnequal:
    def test_equal_mass_limit_matches_equal_formula(self, be):
        l = characteristic_length(be, KAPPA2)
        lam3 = l / 0.05
        eq = cubic_equal(KAPPA2, lam3, be)
        un = cubic_unequal(KAPPA2, lam3, be, be)
        # first-order coefficient vanishes at mu = 1, so only the second-order
        # (present in the equal-mass formula only) differs
        assert un.omega_low == pytest.approx(eq.omega_low, rel=1e-2)
        assert un.eigvec_low == pytest.approx(eq.eigvec_low, rel=1e-6)

    def test_harmonic_limit_unequal_masses(self, be, mg):
        an = cubic_unequal(KAPPA2, 1e3, be, mg)
        mu = be.mass / mg.mass
        s = math.sqrt(mu**2 - mu + 1)
        assert an.omega_high == pytest.approx(
            _w0(be) * math.sqrt(1 + mu + s), rel=1e-8)
        assert an.omega_low == pytest.approx(
            _w0(be) * math.sqrt(1 + mu - s), rel=1e-8)

    def test_first_order_shift_is_odd_under_order_swap(self, be, mg):
        lam3 = -230e-6

        def harmonic_low(first, second):
            mu = first.mass / second.mass
            s = math.sqrt(mu**2 - mu + 1)
            return _w0(first) * math.sqrt(1 + mu - s)

        bm = cubic_unequal(KAPPA2, lam3, be, mg)
        mb = cubic_unequal(KAPPA2, lam3, mg, be)
        shift_bm = bm.omega_low / harmonic_low(be, mg) - 1
        shift_mb = mb.omega_low / harmonic_low(mg, be) - 1
        assert shift_bm == pytest.approx(-shift_mb, rel=1e-10)
        assert abs(shift_bm) > 1e-3

    def test_order_swap_changes_in_phase_frequency(self, be, mg):
        lam3 = -230e-6
        bm = cubic_unequal(KAPPA2, lam3, be, mg)
        mb = cubic_unequal(KAPPA2, lam3, mg, be)
        delta = (bm.omega_low - mb.omega_low) / (2 * math.pi)
        assert abs(delta) == pytest.approx(21.0e3, rel=0.01)


class TestQuarticUnequal:
    def test_order_swap_invariance(self, be, mg):
        lam4 = 250e-6
        ab = quartic_unequal(KAPPA2, lam4, be, mg)
        ba = quartic_unequal(KAPPA2, lam4, mg, be)
        assert ab.omega_high == pytest.approx(ba.omega_high, rel=1e-14)
        assert ab.omega_low == pytest.approx(ba.omega_low, rel=1e-14)

    def test_equal_mass_eigenvector_corrections_vanish(self, be):
        l = characteristic_length(be, KAPPA2)
        an = quartic_unequal(KAPPA2, l / 0.1, be, be)
        assert an.eigvec_low == pytest.approx(np.array([1, 1]) / math.sqrt(2),
                                              rel=1e-12)
        assert an.eigvec_high == pytest.approx(np.array([1, -1]) / math.sqrt(2),
                                               rel=1e-12)

    def test_against_numeric_pipeline(self, be, mg):
        l = characteristic_length(be, KAPPA2)
        y = 0.05
        lam4 = l / y
        an = quartic_unequal(KAPPA2, lam4, be, mg)
        pot = axial_from_lambdas(KAPPA2, {4: lam4})
        spec = mode_spectrum(solve_equilibrium([be, mg], pot))
        w = 2 * math.pi * spec.frequencies
        assert an.omega_high == pytest.approx(w[0], rel=20 * y**4)
        assert an.omega_low == pytest.approx(w[1], rel=20 * y**4)


class TestOracleAgreement:
    """Numeric-vs-analytic residuals scale at the next perturbative order."""

    def _freq_residuals(self, builder, xs, be, mg=None, order_param=3):
        l = characteristic_length(be, KAPPA2)
        res = []
        for x in xs:
            lam = l / x
            pot = axial_from_lambdas(KAPPA2, {order_param: lam})
            species = [be, mg] if mg is not None else [be, be]
            spec = mode_spectrum(solve_equilibrium(species, pot))
            w_num = 2 * math.pi * spec.frequencies
            an = builder(lam)
            r_high = abs(an.omega_high - w_num[0]) / w_num[0]
            r_low = abs(an.omega_low - w_num[1]) / w_num[1]
            res.append(max(r_high, r_low))
        return np.array(res)

    def test_cubic_equal_fourth_order(self, be):
        # the formula is complete through x^2 and mirror symmetry kills the
        # x^3 term, so the residual scales as x^4
        xs = np.geomspace(0.004, 0.04, 8)
        res = self._freq_residuals(lambda lam: cubic_equal(KAPPA2, lam, be),
                                   xs, be)
        slope = np.polyfit(np.log(xs), np.log(res), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_quartic_equal_fourth_order(self, be):
        xs = np.geomspace(0.02, 0.15, 8)
        res = self._freq_residuals(lambda lam: quartic_equal(KAPPA2, lam, be),
                                   xs, be, order_param=4)
        slope = np.polyfit(np.log(xs), np.log(res), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_cubic_unequal_second_order(self, be, mg):
        # the unequal-mass cubic formula is complete to first order only
        xs = np.geomspace(0.004, 0.04, 8)
        res = self._freq_residuals(
            lambda lam: cubic_unequal(KAPPA2, lam, be, mg), xs, be, mg)
        slope = np.polyfit(np.log(xs), np.log(res), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_cubic_eigenvectors_beyond_second_order(self, be):
        # normalizing the first-order vectors reproduces the x^2 term of the
        # exact rotation, so the deviation is third order (second order is
        # the guaranteed floor)
        l = characteristic_length(be, KAPPA2)
        xs = np.geomspace(0.004, 0.04, 8)
        devs = []
        for x in xs:
            lam = l / x
            pot = axial_from_lambdas(KAPPA2, {3: lam})
            spec = mode_spectrum(solve_equilibrium([be, be], pot))
            an = cubic_equal(KAPPA2, lam, be)
            dev_low = np.max(np.abs(spec.eigenvectors[:, 1] - an.eigvec_low))
            dev_high = np.max(np.abs(spec.eigenvectors[:, 0] - an.eigvec_high))
            devs.append(max(dev_low, dev_high))
        slope = np.polyfit(np.log(xs), np.log(devs), 1)[0]
        assert slope > 2.0 - 0.3
        assert slope == pytest.approx(3.0, abs=0.3)
