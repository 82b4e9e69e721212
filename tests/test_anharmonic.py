import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ionmodes import BE9, MG24, MGH25, ResonanceError, axial_for_frequency, \
    axial_from_lambdas, chi_from_configuration, chi_matrix, \
    derivative_tensors, exact_transition_frequency, frequency_shift, \
    hessian, mode_spectrum, mode_tensors, solve_equilibrium, \
    trap3d_from_frequencies
from ionmodes import anharmonic
from ionmodes.anharmonic import ChiMatrix, ModeTensors, _chi_tensors, \
    occupation_vector
from ionmodes.constants import COULOMB, HBAR, PLANCK
from ionmodes.modes import ModeSpectrum

from conftest import KAPPA2, LAMBDA3, LAMBDA4, detect_resonances, \
    energy_hessian, make_cfg, oracle_chi, rel_err, shift_oracle, \
    symmetric_tensor, weak_coupling_instances


def fake_spectrum(freqs_hz):
    """Spectrum stub for formula-level tests (synthetic G tensors)."""
    freqs = np.asarray(freqs_hz, dtype=float)
    d = len(freqs)
    omega = 2 * np.pi * freqs
    return ModeSpectrum(frequencies=freqs, eigenvectors=np.eye(d),
                        sigma_prime=np.sqrt(HBAR / (2 * omega)),
                        sigma_ion=np.zeros((d, d)), config=None)


CALIBRATION_TARGET = np.array([[-2.9, -2.7, 0.04],
                               [-2.7, -0.9, 0.2],
                               [0.04, 0.2, -0.1]])


def calibrated_single_ion_trap(mgh):
    """MgH+ trap whose quartic tensor gives one ion CALIBRATION_TARGET."""
    axial = axial_for_frequency(mgh, 1.8e6)
    base = trap3d_from_frequencies(mgh, (7e6, 5e6), axial)
    spec = mode_spectrum(solve_equilibrium([mgh], base))
    sig = spec.sigma_prime  # descending: x, y, z
    quartic = np.zeros((3, 3, 3, 3))
    for z in range(3):
        for a in range(3):
            mult = 12.0 if a == z else 24.0
            value = CALIBRATION_TARGET[z, a] * PLANCK * mgh.mass**2 / (
                mult * sig[a] ** 2 * sig[z] ** 2 * mgh.charge_si)
            for p in set(itertools.permutations((a, a, z, z))):
                quartic[p] = value
    return trap3d_from_frequencies(mgh, (7e6, 5e6), axial,
                                   trap_quartic=quartic)


@pytest.fixture
def mgh_trap(mgh):
    axial = axial_for_frequency(mgh, 1.8e6)
    return trap3d_from_frequencies(mgh, (7e6, 5e6), axial)


@pytest.fixture
def mgh_pair_chi(mgh, mgh_trap):
    cfg = solve_equilibrium([mgh, mgh], mgh_trap)
    with pytest.warns(RuntimeWarning):
        return chi_from_configuration(cfg)


class TestDerivativeTensors:
    def test_single_ion_harmonic_zero(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        t = derivative_tensors(cfg)
        assert not t.A3.any()
        assert not t.A4.any()

    def test_single_ion_cubic_entry(self, be):
        pot = axial_from_lambdas(KAPPA2, {3: -230e-6})
        cfg = solve_equilibrium([be], pot)
        t = derivative_tensors(cfg)
        # raw third derivative 6 q kappa3, normalized by 3!
        z0 = cfg.positions[0]
        kappa_local = pot.kappa[3]
        expected = be.charge_si * kappa_local
        assert t.A3[0, 0, 0] == pytest.approx(expected, rel=1e-10)
        assert np.count_nonzero(t.A3) == 1

    def test_two_ion_coulomb_third_derivative(self, be, pot_harmonic):
        cfg = solve_equilibrium([be, be], pot_harmonic)
        d = cfg.positions[1] - cfg.positions[0]
        t = derivative_tensors(cfg)
        # pure third derivative with respect to the higher-z ion coordinate
        raw = t.A3[1, 1, 1] * 6
        assert raw == pytest.approx(-6 * COULOMB * be.charge_si**2 / d**4,
                                    rel=1e-10)

    def test_permutation_symmetry(self, be, mg, pot_anharmonic):
        cfg = solve_equilibrium([be, mg, be], pot_anharmonic)
        t = derivative_tensors(cfg)
        for p in itertools.permutations(range(3)):
            assert np.allclose(t.A3, np.transpose(t.A3, p), rtol=1e-10, atol=0)
        for p in itertools.permutations(range(4)):
            assert np.allclose(t.A4, np.transpose(t.A4, p), rtol=1e-10, atol=0)

    def test_axial_tensors_match_finite_differences(self, be, mg,
                                                    pot_anharmonic):
        species = (be, mg)
        z = np.array([-2.3e-6, 2.0e-6])
        cfg = make_cfg(species, pot_anharmonic, z)
        t = derivative_tensors(cfg)
        raw3 = t.A3 * 6
        raw4 = t.A4 * 24
        h = 1e-3 * (z[1] - z[0])
        for k in range(2):
            def hess_at(zk, k=k):
                zz = z.copy()
                zz[k] = zk
                return energy_hessian(zz, species, pot_anharmonic)

            fd3 = ((4 * (hess_at(z[k] + h / 2) - hess_at(z[k] - h / 2)) / h
                    - (hess_at(z[k] + h) - hess_at(z[k] - h)) / (2 * h)) / 3)
            assert np.max(rel_err(fd3, raw3[:, :, k],
                                  floor=1e-9 * np.max(np.abs(raw3)))) < 1e-5

            def third_at(zk, k=k):
                zz = z.copy()
                zz[k] = zk
                tt = derivative_tensors(make_cfg(species, pot_anharmonic, zz))
                return tt.A3 * 6

            fd4 = ((4 * (third_at(z[k] + h / 2) - third_at(z[k] - h / 2)) / h
                    - (third_at(z[k] + h) - third_at(z[k] - h)) / (2 * h)) / 3)
            assert np.max(rel_err(fd4, raw4[:, :, :, k],
                                  floor=1e-9 * np.max(np.abs(raw4)))) < 1e-5

    def test_3d_tensors_match_finite_differences(self, mgh, mgh_trap):
        rng = np.random.default_rng(3)
        cubic = symmetric_tensor(rng, (3, 3, 3), 5e12)
        quartic = symmetric_tensor(rng, (3, 3, 3, 3), 1e17)
        trap = trap3d_from_frequencies(mgh, (7e6, 5e6),
                                       axial_for_frequency(mgh, 1.8e6),
                                       trap_cubic=cubic, trap_quartic=quartic)
        species = (mgh, mgh)
        pos = np.array([[0.05e-6, -0.04e-6, -2.1e-6],
                        [-0.03e-6, 0.06e-6, 2.2e-6]])
        cfg = make_cfg(species, trap, pos)
        t = derivative_tensors(cfg)
        raw3 = t.A3 * 6
        h = 1e-9
        flat = pos.ravel()
        for k in (0, 2, 4, 5):  # sample of coordinates
            def hess_at(vk, k=k):
                vv = flat.copy()
                vv[k] = vk
                return energy_hessian(vv.reshape(2, 3), species, trap)

            fd3 = ((4 * (hess_at(flat[k] + h / 2) - hess_at(flat[k] - h / 2)) / h
                    - (hess_at(flat[k] + h) - hess_at(flat[k] - h)) / (2 * h)) / 3)
            assert np.max(rel_err(fd3, raw3[:, :, k],
                                  floor=1e-7 * np.max(np.abs(raw3)))) < 1e-5


    def test_3d_quartic_tensor_matches_finite_differences(self, mgh):
        rng = np.random.default_rng(4)
        trap = trap3d_from_frequencies(
            mgh, (7e6, 5e6), axial_for_frequency(mgh, 1.8e6),
            trap_quartic=symmetric_tensor(rng, (3, 3, 3, 3), 1e17))
        species = (mgh, mgh)
        pos = np.array([[0.05e-6, -0.04e-6, -2.1e-6],
                        [-0.03e-6, 0.06e-6, 2.2e-6]])
        t = derivative_tensors(make_cfg(species, trap, pos))
        raw4 = t.A4 * 24
        for p in itertools.permutations(range(4)):
            assert np.allclose(raw4, np.transpose(raw4, p), rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(raw4)))
        h = 1e-9
        flat = pos.ravel()
        for k in (0, 2, 4, 5):
            def third_at(vk, k=k):
                vv = flat.copy()
                vv[k] = vk
                cfg = make_cfg(species, trap, vv.reshape(2, 3))
                return derivative_tensors(cfg).A3 * 6

            fd4 = ((4 * (third_at(flat[k] + h / 2) - third_at(flat[k] - h / 2)) / h
                    - (third_at(flat[k] + h) - third_at(flat[k] - h)) / (2 * h)) / 3)
            assert np.max(rel_err(fd4, raw4[..., k],
                                  floor=1e-7 * np.max(np.abs(raw4)))) < 1e-5

    def test_linear_chain_is_the_on_axis_case(self, be, mg, pot_anharmonic):
        species = (be, mg, be)
        cfg1 = solve_equilibrium(species, pot_anharmonic)
        trap = trap3d_from_frequencies(be, (7e6, 5e6), pot_anharmonic)
        pos3 = np.column_stack([np.zeros(3), np.zeros(3), cfg1.positions])
        cfg3 = make_cfg(species, trap, pos3)
        z = slice(2, None, 3)
        pairs = [(energy_hessian(pos3, species, trap)[z, z],
                  energy_hessian(cfg1.positions, species, pot_anharmonic))]
        t1, t3 = derivative_tensors(cfg1), derivative_tensors(cfg3)
        pairs += [(t3.A3[z, z, z], t1.A3), (t3.A4[z, z, z, z], t1.A4)]
        for axial_block, linear in pairs:
            assert np.max(np.abs(axial_block - linear)) \
                <= 1e-12 * np.max(np.abs(linear))


class TestModeTensors:
    def test_zero_input(self, be, pot_harmonic):
        cfg = solve_equilibrium([be], pot_harmonic)
        spec = mode_spectrum(cfg)
        t = derivative_tensors(cfg)
        g = mode_tensors(t, spec)
        assert not g.G3.any() and not g.G4.any()

    def test_single_mode_scaling(self, be):
        pot = axial_from_lambdas(KAPPA2, {3: -230e-6})
        cfg = solve_equilibrium([be], pot)
        spec = mode_spectrum(cfg)
        t = derivative_tensors(cfg)
        g = mode_tensors(t, spec)
        assert g.G3[0, 0, 0] == pytest.approx(
            spec.sigma_ion[0, 0] ** 3 * t.A3[0, 0, 0], rel=1e-12, abs=0)

    def test_com_cubic_coupling_vanishes(self, be, pot_harmonic):
        # internal Coulomb forces cannot couple to rigid translation
        cfg = solve_equilibrium([be, be], pot_harmonic)
        spec = mode_spectrum(cfg)
        g = mode_tensors(derivative_tensors(cfg), spec)
        com = 1  # lower frequency of the two axial modes
        assert abs(g.G3[com, com, com]) < 1e-12 * np.max(np.abs(g.G3))

    def test_dimension_mismatch(self, be, mgh, pot_harmonic, mgh_trap):
        cfg1 = solve_equilibrium([be], pot_harmonic)
        cfg2 = solve_equilibrium([mgh], mgh_trap)
        with pytest.raises(ValueError):
            mode_tensors(derivative_tensors(cfg1), mode_spectrum(cfg2))

    def test_permutation_symmetry(self, mgh, mgh_trap):
        cfg = solve_equilibrium([mgh, mgh], mgh_trap)
        g = mode_tensors(derivative_tensors(cfg), mode_spectrum(cfg))
        for p in itertools.permutations(range(3)):
            assert np.allclose(g.G3, np.transpose(g.G3, p), rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(g.G3)))


def _fake_case(freqs_hz, seed):
    rng = np.random.default_rng(seed)
    spec = fake_spectrum(freqs_hz)
    d = spec.n_modes
    scale = 1e-4 * HBAR * np.mean(spec.angular)
    return (ModeTensors(G3=symmetric_tensor(rng, (d,) * 3, scale),
                        G4=symmetric_tensor(rng, (d,) * 4, scale * 1e-3)),
            spec)


def _chain_case(species, potential):
    spec = mode_spectrum(solve_equilibrium(species, potential))
    return mode_tensors(derivative_tensors(spec.config), spec), spec


def _mgh_pair_case():
    axial = axial_for_frequency(MGH25, 1.8e6)
    return _chain_case([MGH25] * 2,
                       trap3d_from_frequencies(MGH25, (7e6, 5e6), axial))


def _chi3d_style_case():
    rng = np.random.default_rng(11)
    axial = axial_from_lambdas(axial_for_frequency(MGH25, 0.6e6).kappa2,
                               {3: -600e-6, 4: 600e-6})
    trap = trap3d_from_frequencies(
        MGH25, (9.3e6, 6.1e6), axial,
        trap_cubic=symmetric_tensor(rng, (3, 3, 3), 1e9),
        trap_quartic=symmetric_tensor(rng, (3, 3, 3, 3), 1e13))
    return _chain_case([MGH25] * 4, trap)


ORACLE_CASES = {
    "fake_d1": lambda: _fake_case([1.9e6], 17),
    "fake_d2": lambda: _fake_case([5e6, 1.9e6], 17),
    "fake_d3": lambda: _fake_case([7.3e6, 4.7e6, 1.9e6], 17),
    "mgh_pair": _mgh_pair_case,
    "calibrated_single_ion": lambda: _chain_case(
        [MGH25], calibrated_single_ion_trap(MGH25)),
    "linear_anharmonic_n3": lambda: _chain_case(
        [BE9] * 3, axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})),
    "chi3d_style_n4": _chi3d_style_case,
}


class TestFrequencyShift:
    def test_zero_couplings(self):
        spec = fake_spectrum([5e6, 1.9e6])
        g = ModeTensors(G3=np.zeros((2, 2, 2)), G4=np.zeros((2, 2, 2, 2)))
        assert frequency_shift(g, spec, [0, 0], 0) == 0.0

    def test_single_mode_quartic(self):
        spec = fake_spectrum([1.9e6])
        g4 = 1e-3 * HBAR * spec.angular[0]
        g = ModeTensors(G3=np.zeros((1, 1, 1)), G4=np.full((1, 1, 1, 1), g4))
        for n in (0, 1, 5):
            assert frequency_shift(g, spec, [n], 0) == pytest.approx(
                12 * (n + 1) * g4 / PLANCK, rel=1e-14)

    def test_single_mode_cubic_ground(self):
        spec = fake_spectrum([1.9e6])
        g3 = 1e-3 * HBAR * spec.angular[0]
        g = ModeTensors(G3=np.full((1, 1, 1), g3), G4=np.zeros((1, 1, 1, 1)))
        expected = -60 / PLANCK * g3**2 / (HBAR * spec.angular[0])
        assert frequency_shift(g, spec, [0], 0) == pytest.approx(expected,
                                                                 rel=1e-14)

    def test_linearity_in_occupations(self):
        rng = np.random.default_rng(17)
        spec = fake_spectrum([7.3e6, 4.7e6, 1.9e6])
        scale = 1e-4 * HBAR * np.mean(spec.angular)
        g = ModeTensors(G3=symmetric_tensor(rng, (3, 3, 3), scale),
                        G4=symmetric_tensor(rng, (3, 3, 3, 3), scale * 1e-3))
        chi = chi_matrix(g, spec)
        for _ in range(5):
            occ = rng.integers(0, 7, size=3)
            for z in range(3):
                base = shift_oracle(g, spec, np.zeros(3, int), z)
                full = shift_oracle(g, spec, occ, z)
                assert full - base == pytest.approx(float(chi.chi[z] @ occ),
                                                    rel=1e-10, abs=1e-12)
                assert frequency_shift(g, spec, occ, z) == pytest.approx(
                    full, rel=1e-10, abs=1e-12)

    def test_invalid_occupations(self):
        spec = fake_spectrum([5e6, 1.9e6])
        g = ModeTensors(G3=np.zeros((2, 2, 2)), G4=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            frequency_shift(g, spec, [0], 0)
        with pytest.raises(ValueError):
            frequency_shift(g, spec, [-1, 0], 0)
        with pytest.raises(IndexError):
            frequency_shift(g, spec, [0, 0], 5)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_closed_form_matches_loop_oracle(self, case):
        """chi and the zero-occupation shifts equal the Fock-space
        sum-over-states oracle.  The oracle shares no arithmetic with the
        kernel, so each base entry agrees to 1e-12 of itself plus the
        rounding of the largest entry: a base entry far below it
        (structurally zero ones are ~1e-30 of it) is a cancellation that two
        routes round differently."""
        g, spec = ORACLE_CASES[case]()
        d = spec.n_modes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", ".*near-resonant", RuntimeWarning)
            model = chi_matrix(g, spec)
            base = np.array([frequency_shift(g, spec, np.zeros(d, int), z)
                             for z in range(d)])
        want_base, want_chi = oracle_chi(g, spec)
        assert np.max(np.abs(want_chi)) > 0
        assert np.max(np.abs(model.chi - want_chi)) <= \
            1e-12 * np.max(np.abs(want_chi))
        assert np.all(np.abs(model.base - want_base) <= 1e-12 * np.abs(
            want_base) + 1e-15 * np.max(np.abs(want_base)))
        assert np.array_equal(model.base, base)

    def test_three_mode_coupling_matches_exact_levels(self):
        """A G3 entry of three distinct modes enters each chi_Za once: the
        shifts of every transition equal exact Fock-space diagonalisation to
        the third-order residual."""
        spec = fake_spectrum([7.3e6, 4.7e6, 1.9e6])
        w = spec.angular
        g3 = np.zeros((3, 3, 3))
        for p in itertools.permutations(range(3)):
            g3[p] = 1e-4 * HBAR * np.mean(w)
        g = ModeTensors(G3=g3, G4=np.zeros((3,) * 4))
        eps = np.max(np.abs(g3)) / (HBAR * np.min(w))
        bound = 10 * eps**3 * np.max(spec.frequencies)
        shifts = []
        for occ in np.vstack((np.zeros(3, int), np.eye(3, dtype=int))):
            for z in range(3):
                exact = exact_transition_frequency(w, g3, None, occ, z, 8) \
                    - spec.frequencies[z]
                pt = frequency_shift(g, spec, occ, z)
                assert abs(pt - exact) <= bound, (occ, z, pt, exact)
                shifts.append(abs(pt))
        assert min(shifts) > 100 * bound

    def test_random_three_mode_shifts_match_exact_levels(self):
        """test_06's weak-coupling instances on three modes, every
        combination frequency of up to five quanta at least 5% of the top
        mode: the shift is exact Fock-space diagonalisation's to the next
        perturbative order, 100 eps^3 max f with eps in units of the lowest
        mode quantum.  Three modes have combinations of six or more quanta
        close to zero, whose higher-order terms reached 30 eps^3 max f on
        260 instances of 13 seeds; counting the three-distinct-mode G3
        terms twice misses by orders of magnitude more."""
        rng = np.random.default_rng(23)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*near-resonant", RuntimeWarning)
            for spec, g, _, resid in weak_coupling_instances(rng, 20, 3):
                eps = np.max(np.abs(g.G3)) / (HBAR * np.min(spec.angular))
                assert resid <= 100 * eps**3 * np.max(spec.frequencies)


def zero_tensors(d):
    """Mode tensors of d modes with no anharmonicity: only the guard acts."""
    return ModeTensors(G3=np.zeros((d,) * 3), G4=np.zeros((d,) * 4))


class TestDetectResonances:
    """The conftest scan flags the processes the guard names or counts."""

    def test_two_to_one_flagged(self):
        spec = fake_spectrum([4.0e6, 2.0e6])
        flags = detect_resonances(spec)
        assert any(f.kind == "2:1" and f.value == 0.0 for f in flags)
        with pytest.raises(ResonanceError, match=re.escape(
                "2:1 modes (0, 1) |den|/max(w)^2=0.00e+00")):
            chi_matrix(zero_tensors(2), spec)

    def test_single_ion_surface_frequencies_clean(self):
        spec = fake_spectrum([7e6, 5e6, 1.8e6])
        assert detect_resonances(spec, anharmonic.RESONANCE_SOFT) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi_matrix(zero_tensors(3), spec)

    def test_sum_resonance_flagged(self):
        spec = fake_spectrum([5.0e6, 3.0e6, 2.0e6])
        flags = detect_resonances(spec)
        assert any(f.kind == "sum" for f in flags)
        with pytest.raises(ResonanceError, match=re.escape(
                "sum modes (0, 1, 2) |den|/max(w)^2=")):
            chi_matrix(zero_tensors(3), spec)

    def test_guard_raises_on_hard_resonance(self):
        spec = fake_spectrum([4.0e6, 2.0e6])
        g = ModeTensors(G3=np.zeros((2, 2, 2)), G4=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ResonanceError):
            frequency_shift(g, spec, [0, 0], 0)
        with pytest.raises(ResonanceError):
            chi_matrix(g, spec)

    def test_warning_band(self):
        spec = fake_spectrum([4.01e6, 2.0e6])  # |4w_a^2-w_Z^2| ~ 0.005 max^2
        assert len(detect_resonances(spec, anharmonic.RESONANCE_SOFT)) == 1
        with pytest.warns(RuntimeWarning, match="^1 near-resonant"):
            chi_matrix(zero_tensors(2), spec)

    def test_warning_names_the_caller(self, mgh, mgh_trap):
        cfg = solve_equilibrium([mgh, mgh], mgh_trap)
        spec = mode_spectrum(cfg)
        g = mode_tensors(derivative_tensors(cfg), spec)
        calls = {
            "chi_from_configuration": lambda: chi_from_configuration(cfg, spec),
            "chi_matrix": lambda: chi_matrix(g, spec),
            "frequency_shift": lambda: frequency_shift(
                g, spec, np.zeros(spec.n_modes, int), 0),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.filename for w in caught] == [__file__], name

    def test_one_scan_guard_matches_two_scans(self):
        """The guard reads the kernel's own denominators; the error and the
        warning of chi_matrix equal those of a hard scan followed by a soft
        scan of the conftest oracle."""
        from ionmodes.anharmonic import RESONANCE_HARD, RESONANCE_SOFT

        def two_scans(spec):
            hard = detect_resonances(spec, RESONANCE_HARD)
            if hard:
                raise ResonanceError(
                    "perturbation theory invalid near resonance(s): "
                    + "; ".join(f"{f.kind} modes {f.modes} "
                                f"|den|/max(w)^2={f.normalized:.2e}"
                                for f in hard))
            soft = detect_resonances(spec, RESONANCE_SOFT)
            if soft:
                warnings.warn(
                    f"{len(soft)} near-resonant denominator(s) in the "
                    f"[{RESONANCE_HARD:g}, {RESONANCE_SOFT:g}] band; "
                    "shifts may be inaccurate", RuntimeWarning)

        def guard(spec):
            chi_matrix(zero_tensors(spec.n_modes), spec)

        def outcome(check, spec):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    check(spec)
                    error = None
                except ResonanceError as err:
                    error = str(err)
            return error, [str(w.message) for w in caught]

        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(300):
            f = rng.uniform(1e6, 8e6, rng.integers(3, 7))
            # pull mode 0 onto a 2:1, sum or difference resonance of modes
            # 1 and 2, detuned by a log-uniform relative amount
            detuning = rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -1)
            f[0] = (2 * f[1], f[1] + f[2], abs(f[1] - f[2]))[
                rng.integers(3)] * (1 + detuning)
            spec = fake_spectrum(f)
            expected = outcome(two_scans, spec)
            assert outcome(guard, spec) == expected
            error, caught = expected
            seen.add("hard" if error else "soft" if caught else "clean")
        assert seen == {"hard", "soft", "clean"}


class TestChiMatrix:
    def test_holds_chi_alone(self):
        """base is no field: it is read off chi by the identity."""
        assert [f.name for f in dataclasses.fields(ChiMatrix)] == \
            ["chi", "mode_frequencies", "provenance"]

    def test_single_ion_harmonic_zero(self, mgh, mgh_trap):
        cfg = solve_equilibrium([mgh], mgh_trap)
        chi = chi_from_configuration(cfg)
        assert np.max(np.abs(chi.chi)) < 1e-10

    def test_coulomb_only_reference_values(self, mgh_pair_chi):
        chi = mgh_pair_chi
        assert chi.mode_frequencies / 1e6 == pytest.approx(
            [7.0, 6.7646, 5.0, 4.6648, 3.1177, 1.8], abs=2e-4)
        assert chi.chi[4, 4] == pytest.approx(6.781, abs=0.01)
        assert chi.chi[3, 4] == pytest.approx(-15.305, abs=0.01)
        assert chi.chi[1, 4] == pytest.approx(-9.901, abs=0.01)
        assert chi.chi[3, 3] == pytest.approx(2.557, abs=0.01)
        assert chi.chi[1, 1] == pytest.approx(1.141, abs=0.01)
        assert chi.provenance == {"coulomb": True, "trap_cubic": False,
                                  "trap_quartic": False}

    def test_com_row_and_column_vanish(self, mgh_pair_chi):
        # the axial centre of mass is immune to Coulomb-only anharmonicity
        assert np.max(np.abs(mgh_pair_chi.chi[5, :])) < 0.1
        assert np.max(np.abs(mgh_pair_chi.chi[:, 5])) < 0.1

    def test_uniform_field_leaves_chi_invariant(self, mgh):
        axial = axial_for_frequency(mgh, 1.8e6)
        trap0 = trap3d_from_frequencies(mgh, (7e6, 5e6), axial)
        import dataclasses

        axial_f = dataclasses.replace(axial, uniform_field=5.0)
        trap_f = trap3d_from_frequencies(mgh, (7e6, 5e6), axial_f)
        with pytest.warns(RuntimeWarning):
            chi0 = chi_from_configuration(solve_equilibrium([mgh, mgh], trap0))
        with pytest.warns(RuntimeWarning):
            chi_f = chi_from_configuration(solve_equilibrium([mgh, mgh], trap_f))
        scale = np.max(np.abs(chi0.chi))
        assert np.max(np.abs(chi0.chi - chi_f.chi)) < 1e-6 * scale

    def test_calibrated_trap_tensor_round_trip(self, mgh):
        """Trap tensors calibrated to the single-ion reference couplings.

        For one ion the per-quantum couplings depend linearly on the quartic
        tensor (24 G4_aaZZ off-diagonal, 12 G4_ZZZZ diagonal), so calibration
        is a closed-form solve; recomputing chi from the calibrated trap must
        reproduce the reference matrix through the full tensor pipeline.
        """
        trap = calibrated_single_ion_trap(mgh)
        chi = chi_from_configuration(solve_equilibrium([mgh], trap))
        assert np.max(np.abs(chi.chi - CALIBRATION_TARGET)) < 0.01
        assert chi.provenance["trap_quartic"]
        # recomputation from the same trap is deterministic
        chi_again = chi_from_configuration(solve_equilibrium([mgh], trap))
        assert np.array_equal(chi_again.chi, chi.chi)

    def test_symmetric_on_random_tensors(self):
        """chi is a second derivative of the level energies: symmetric to
        the bit on random non-resonant spectra of 1 to 8 modes."""
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 100:
            spec = fake_spectrum(rng.uniform(1e6, 8e6, rng.integers(1, 9)))
            d = spec.n_modes
            scale = 1e-4 * HBAR * np.mean(spec.angular)
            g = ModeTensors(G3=symmetric_tensor(rng, (d,) * 3, scale),
                            G4=symmetric_tensor(rng, (d,) * 4, scale * 1e-3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    chi = chi_matrix(g, spec).chi
                except (ResonanceError, RuntimeWarning):
                    continue
            assert np.array_equal(chi, chi.T)
            checked += 1

    def test_mixed_chain_matches_exact_levels(self):
        """Be+/Mg+/Be+ in an anharmonic trap: three modes, all coupled, so
        chi and base meet exact Fock-space levels.  The residual is the
        next perturbative order (7.6e-4 of max|chi| measured); counting the
        three-distinct-mode G3 terms twice misses by 0.15 of it."""
        cfg = solve_equilibrium([BE9, MG24, BE9], axial_from_lambdas(
            KAPPA2, {3: LAMBDA3, 4: LAMBDA4}))
        spec = mode_spectrum(cfg)
        g = mode_tensors(derivative_tensors(cfg), spec)
        model = chi_from_configuration(cfg, spec)

        def exact(occ, z):
            return exact_transition_frequency(spec.angular, g.G3, g.G4, occ,
                                              z, 10) - spec.frequencies[z]

        base = np.array([exact(np.zeros(3, int), z) for z in range(3)])
        chi = np.array([[exact(np.eye(3, dtype=int)[a], z) - base[z]
                         for a in range(3)] for z in range(3)])
        scale = np.max(np.abs(chi))
        assert np.max(np.abs(model.chi - chi)) <= 1e-2 * scale
        assert np.max(np.abs(model.base - base)) <= 1e-2 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_on_trap_chains(self, n):
        cfg = _trap_chain([MGH25] * n, 30 + n)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*near-resonant", RuntimeWarning)
            chi = chi_from_configuration(cfg).chi
        assert np.max(np.abs(chi)) > 0
        assert np.array_equal(chi, chi.T)


def _trap_chain(species, seed, f_axial=0.6e6, f_radial=(9.3e6, 6.1e6),
                tensors=True):
    """A 3D chain as in the chi3d benchmark: an anharmonic axial polynomial
    and, by default, random symmetric trap tensors (1e9 V/m^3, 1e13 V/m^4)."""
    rng = np.random.default_rng(seed)
    axial = axial_from_lambdas(axial_for_frequency(MGH25, f_axial).kappa2,
                               {3: -600e-6, 4: 600e-6})
    extra = {"trap_cubic": symmetric_tensor(rng, (3,) * 3, 1e9),
             "trap_quartic": symmetric_tensor(rng, (3,) * 4, 1e13)} \
        if tensors else {}
    trap = trap3d_from_frequencies(MGH25, f_radial, axial, **extra)
    return solve_equilibrium(species, trap)


CONTRACTION_CASES = {
    "be_mg_1d_n4": lambda: solve_equilibrium(
        [BE9, MG24, MG24, BE9], axial_from_lambdas(KAPPA2, {3: LAMBDA3,
                                                             4: LAMBDA4})),
    "be_1d_n3": lambda: solve_equilibrium(
        [BE9] * 3, axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})),
    "be_1d_n6": lambda: solve_equilibrium(
        [BE9] * 6, axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})),
    "mgh_3d_n2": lambda: _trap_chain([MGH25] * 2, 1),
    "mgh_3d_n3": lambda: _trap_chain([MGH25] * 3, 2),
    "mgh_3d_n4": lambda: _trap_chain([MGH25] * 4, 3),
    "mgh_3d_n5": lambda: _trap_chain([MGH25] * 5, 4),
    "mgh_3d_n6": lambda: _trap_chain([MGH25] * 6, 5),
    "mgh_mg_3d_n3": lambda: _trap_chain([MGH25, MG24, MGH25], 6,
                                        f_axial=1.8e6, f_radial=(7e6, 5e6)),
}


def _pair_diagonal(g4):
    d = len(g4)
    return np.array([[g4[a, a, z, z] for a in range(d)] for z in range(d)])


class TestContractedChi:
    """chi_from_configuration contracts G3 and G4_aaZZ from the chain's
    derivative blocks; the dense route through the public rank-4 tensors
    is its oracle."""

    @pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
    def test_matches_dense_route(self, case):
        cfg = CONTRACTION_CASES[case]()
        spec = mode_spectrum(cfg)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*near-resonant", RuntimeWarning)
            got = chi_from_configuration(cfg, spec)
            want = chi_matrix(mode_tensors(derivative_tensors(cfg), spec), spec)
        scale = np.max(np.abs(want.chi))
        assert scale > 0
        assert np.max(np.abs(got.chi - want.chi)) <= 1e-12 * scale
        assert np.max(np.abs(got.base - want.base)) <= \
            1e-12 * np.max(np.abs(want.base))
        assert np.array_equal(got.mode_frequencies, want.mode_frequencies)

    @pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
    def test_tensors_match_dense_route(self, case):
        cfg = CONTRACTION_CASES[case]()
        spec = mode_spectrum(cfg)
        g3, q = _chi_tensors(cfg, spec)
        dense = mode_tensors(derivative_tensors(cfg), spec)
        want_q = _pair_diagonal(dense.G4)
        assert np.max(np.abs(q - want_q)) <= 1e-12 * np.max(np.abs(want_q))
        assert np.max(np.abs(g3 - dense.G3)) <= 1e-12 * np.max(np.abs(dense.G3))

    @pytest.mark.parametrize("case", ["be_1d_n3", "mgh_3d_n2", "mgh_3d_n4",
                                      "mgh_3d_n6"])
    def test_g3_is_one_computation(self, case):
        """Both routes carry d3U/3! to the modes by sigma_ion with the same
        code, so their G3 agree bit for bit."""
        cfg = CONTRACTION_CASES[case]()
        spec = mode_spectrum(cfg)
        assert np.array_equal(mode_tensors(derivative_tensors(cfg), spec).G3,
                              _chi_tensors(cfg, spec)[0])

    @pytest.mark.filterwarnings("ignore:.*near-resonant:RuntimeWarning")
    def test_no_dense_tensors_on_the_chi_path(self, monkeypatch):
        cfg = CONTRACTION_CASES["mgh_3d_n4"]()
        want = chi_from_configuration(cfg).chi

        def refuse(*args):
            raise AssertionError("dense tensor route called")

        monkeypatch.setattr(anharmonic, "derivative_tensors", refuse)
        monkeypatch.setattr(anharmonic, "mode_tensors", refuse)
        assert np.array_equal(chi_from_configuration(cfg).chi, want)

    def test_refused_chain_does_no_tensor_work(self, monkeypatch):
        cfg = _trap_chain([MGH25] * 8, 0, f_axial=0.3e6, tensors=False)

        def refuse(*args):
            raise AssertionError("tensor stage ran before the guard")

        monkeypatch.setattr(anharmonic, "_chi_tensors", refuse)
        with pytest.raises(ResonanceError):
            chi_from_configuration(cfg)

    def test_d90_tensor_stage_memory(self):
        """3D N = 30 (D = 90): a dense rank-4 tensor alone would be 525 MB."""
        cfg = _trap_chain([MGH25] * 30, 0, f_axial=0.3e6, tensors=False)
        spec = mode_spectrum(cfg)
        tracemalloc.start()
        try:
            g3, q = _chi_tensors(cfg, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g3.shape == (90,) * 3 and q.shape == (90, 90)
        assert peak < 100e6
        assert np.allclose(q, q.T, rtol=0, atol=1e-12 * np.max(np.abs(q)))


CARRIED_CASES = {
    "be_mg_1d": lambda: solve_equilibrium(
        [BE9, MG24, BE9, MG24, BE9],
        axial_from_lambdas(KAPPA2, {3: LAMBDA3, 4: LAMBDA4})),
    "mgh_3d": lambda: _trap_chain([MGH25] * 3, 7),
    "single_ion": lambda: _trap_chain([MGH25], 8),
}


class TestCarriedDerivatives:
    """A solved configuration carries its solve's energy, gradient and
    Hessian.  What the spectrum and tensor stages read from them equals, bit
    for bit, what they evaluate anew for a hand-built configuration at the
    same positions."""

    @pytest.mark.filterwarnings("ignore:.*near-resonant:RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(CARRIED_CASES))
    def test_equal_to_recomputed(self, case):
        cfg = CARRIED_CASES[case]()
        copy = make_cfg(cfg.species, cfg.potential, cfg.positions)
        assert cfg._hessian is not None and copy._hessian is None
        assert np.array_equal(hessian(cfg), hessian(copy))
        spec, spec_copy = mode_spectrum(cfg), mode_spectrum(copy)
        for name in ("frequencies", "eigenvectors", "sigma_ion"):
            assert np.array_equal(getattr(spec, name), getattr(spec_copy, name))
        t, t_copy = derivative_tensors(cfg), derivative_tensors(copy)
        assert np.array_equal(t.A3, t_copy.A3)
        assert np.array_equal(t.A4, t_copy.A4)
        chi = chi_from_configuration(cfg, spec)
        chi_copy = chi_from_configuration(copy, spec_copy)
        assert np.array_equal(chi.chi, chi_copy.chi)
        assert np.array_equal(chi.base, chi_copy.base)

    @pytest.mark.filterwarnings("ignore:.*near-resonant:RuntimeWarning")
    def test_stages_reuse_the_solve(self, energy_calls):
        cfg = CARRIED_CASES["mgh_3d"]()
        energy_calls.clear()
        spec = mode_spectrum(cfg)
        assert not energy_calls
        chi_from_configuration(cfg, spec)
        # order 3, then the quartic pair diagonal, on the solve's _Energy
        assert energy_calls == {"evaluate": 2}


class TestOccupationVector:
    def test_validation(self):
        occ = occupation_vector([0, 1, 2], 3)
        assert occ.dtype == int
        with pytest.raises(ValueError):
            occupation_vector([0, 1], 3)
        with pytest.raises(ValueError):
            occupation_vector([0, -1, 0], 3)
        assert occupation_vector([0.0, 2.0], 2).tolist() == [0, 2]
        with pytest.raises(ValueError, match="integers"):
            occupation_vector([0.7, 1.9], 2)

    @pytest.mark.parametrize("bad", [
        [math.inf, 0], [math.nan, 0], [1e30, 0], [True, 0],
        np.array([True, False])],
        ids=["inf", "nan", "1e30", "bool", "bool_array"])
    def test_refused_before_any_cast(self, bad):
        """A non-finite, out-of-range or bool occupation raises its
        ValueError without a numpy cast warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integers"):
                occupation_vector(bad, 2)
