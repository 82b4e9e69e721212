import itertools

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from ionmodes import CutoffError, StateMatchError, exact_transition_frequency
from ionmodes import fockspace
from ionmodes.constants import HBAR, PLANCK

from conftest import dense_hamiltonian, dense_transition_frequency


OMEGA2 = 2 * np.pi * np.array([4.9e6, 1.7e6])


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

    @pytest.mark.parametrize("state,weight,refused", [
        ((7, 7), 0.6e-6, False), ((7, 0), 1.2e-6, True)],
        ids=["corner_counted_once", "edge_over_limit"])
    def test_boundary_counts_each_state_once(self, monkeypatch, state, weight,
                                             refused):
        """The boundary population is the weight on the states with any mode
        on its last level, each counted once, as in the dense oracle: a
        corner state on the last level of both modes is not counted twice."""
        lower, upper = np.zeros(64), np.zeros(64)
        lower[0] = np.sqrt(1 - weight)
        lower[np.ravel_multi_index(state, (8, 8))] = np.sqrt(weight)
        upper[1] = 1.0
        levels = iter([(0.0, lower), (PLANCK * 1.7e6, upper)])
        monkeypatch.setattr(fockspace, "_certified_level",
                            lambda *args: next(levels))
        if refused:
            with pytest.raises(CutoffError, match="population 1.20e-06"):
                exact_transition_frequency(OMEGA2, None, None, [0, 0], 1, 8)
        else:
            f = exact_transition_frequency(OMEGA2, None, None, [0, 0], 1, 8)
            assert f == pytest.approx(1.7e6, rel=1e-12)

    def test_resonant_mixing_is_ambiguous(self):
        omega = 2 * np.pi * np.array([3.8e6, 1.9e6])  # exact 2:1 resonance
        g3 = np.zeros((2, 2, 2))
        for p in set(itertools.permutations((0, 1, 1))):
            g3[p] = 0.2 * HBAR * omega[1]
        with pytest.raises(StateMatchError, match=r"label \(0, 2\)"):
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

    @pytest.mark.parametrize("bad", [
        {"omega": -OMEGA2}, {"omega": np.array([np.nan, 1e7])},
        {"g3": np.zeros((3, 3, 3))}, {"g4": np.zeros((2, 2, 2))},
        {"g4": np.full((2, 2, 2, 2), np.inf)}, {"cutoff": 0},
        {"cutoff": 1}, {"cutoff": 9.0}, {"cutoff": True}, {"z": 0.5},
        {"z": True}],
        ids=["negative_omega", "nan_omega", "g3_too_many_modes", "g4_rank_3",
             "inf_g4", "cutoff_0", "cutoff_1", "float_cutoff", "bool_cutoff",
             "float_z", "bool_z"])
    def test_invalid_inputs_rejected(self, bad):
        """Each bad argument is named in a ValueError, by both entry points
        (z only reaches exact_transition_frequency)."""
        args = {"omega": OMEGA2, "g3": None, "g4": None, "cutoff": 8, **bad}
        (name,) = bad
        z = args.pop("z", 0)
        with pytest.raises(ValueError, match=rf"^{name} must"):
            exact_transition_frequency(args["omega"], args["g3"], args["g4"],
                                       [0, 0], z, args["cutoff"])
        if name != "z":
            with pytest.raises(ValueError, match=rf"^{name} must"):
                fockspace.build_hamiltonian(**args)


def random_couplings(seed, n_modes, cubic, quartic):
    """Mode frequencies (rad/s) and random symmetric G3, G4 (J) scaled to
    hbar times the lowest frequency."""
    rng = np.random.default_rng(seed)
    omega = 2 * np.pi * rng.uniform(1e6, 5e6, n_modes)
    hw = HBAR * omega.min()
    return (omega, symmetric(rng, (n_modes,) * 3, cubic * hw),
            symmetric(rng, (n_modes,) * 4, quartic * hw))


def eigensolver_floor(omega, cutoff):
    """The benchmark oracle's eigensolver floor (Hz)."""
    return 100 * np.finfo(float).eps * cutoff * np.sum(omega) / (2 * np.pi)


def stress_cases(count, seed):
    """(case, modes, cutoff, cubic, quartic, occupations, z): 1-3 modes,
    cutoffs 6-14 (6-7 for three modes, where the dense build is slow)."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n_modes = 1 + case % 3
        cutoff = int(rng.integers(6, 15 if n_modes < 3 else 8))
        yield pytest.param(
            case, n_modes, cutoff, float(rng.choice([2e-3, 1e-2])),
            float(rng.choice([2e-4, 1e-3])),
            [int(n) for n in rng.integers(0, 3, n_modes)],
            int(rng.integers(n_modes)), id=f"case{case}")


@pytest.mark.parametrize("case,n_modes,cutoff,cubic,quartic,occupations,z",
                         stress_cases(12, seed=14))
def test_random_cases_match_dense_oracle(case, n_modes, cutoff, cubic, quartic,
                                         occupations, z):
    """The library refuses where the dense oracle does and otherwise agrees
    with it within the eigensolver floor."""
    omega, g3, g4 = random_couplings(100 + case, n_modes, cubic, quartic)
    try:
        expected, _ = dense_transition_frequency(omega, g3, g4, occupations,
                                                 z, cutoff, refuse=True)
    except (CutoffError, StateMatchError) as exc:
        with pytest.raises(type(exc)):
            exact_transition_frequency(omega, g3, g4, occupations, z, cutoff)
        return
    f = exact_transition_frequency(omega, g3, g4, occupations, z, cutoff)
    assert f == pytest.approx(expected, rel=0,
                              abs=eigensolver_floor(omega, cutoff))


class TestSparseSolver:
    @pytest.mark.parametrize("n_modes,cutoff,terms", [
        *(pytest.param(n, c, "g3 g4", id=f"{n}-{c}") for n, c in
          ((1, 4), (1, 12), (2, 5), (2, 12), (3, 4), (3, 6), (2, 14))),
        pytest.param(3, 5, "g3", id="3-5-g3_only"),
        pytest.param(2, 14, "g4", id="2-14-g4_only")])
    def test_hamiltonian_matches_dense_oracle(self, n_modes, cutoff, terms):
        omega, g3, g4 = random_couplings(n_modes + cutoff, n_modes, 1e-2, 1e-3)
        g3 = g3 if "g3" in terms.split() else None
        g4 = g4 if "g4" in terms.split() else None
        h = fockspace.build_hamiltonian(omega, g3, g4, cutoff)
        dense = dense_hamiltonian(omega, g3, g4, cutoff)
        assert h.format == "csc"
        assert h.nnz == np.count_nonzero(dense)
        assert np.max(np.abs(h.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("cutoff", [8, 10])
    @pytest.mark.parametrize("quartic", [False, True])
    def test_sparse_coupling_stores_only_nonzero_entries(self, cutoff,
                                                         quartic):
        """The oracle benchmark's radial-axial coupling of one ion in 3D:
        G3 only at the permutations of (x, x, z), (y, y, z) and at
        (z, z, z), G4 at most at (z, z, z, z).  Index multisets with a zero
        coefficient add nothing, so H stores exactly the nonzero entries of
        the dense matrix."""
        omega = 2 * np.pi * np.array([9.3e6, 6.1e6, 0.6e6])
        hw = HBAR * omega.min()
        g3 = np.zeros((3, 3, 3))
        # generic ratios: an entry whose terms cancel exactly would hold
        # round-off in one build and 0 in the other
        for idx, c in (((0, 0, 2), 2.71e-3), ((1, 1, 2), -1.93e-3),
                       ((2, 2, 2), 1.37e-3)):
            for p in set(itertools.permutations(idx)):
                g3[p] = c * hw
        g4 = None
        if quartic:
            g4 = np.zeros((3,) * 4)
            g4[2, 2, 2, 2] = 2.3e-4 * hw
        h = fockspace.build_hamiltonian(omega, g3, g4, cutoff)
        dense = dense_hamiltonian(omega, g3, g4, cutoff)
        assert h.nnz == np.count_nonzero(dense)
        assert np.max(np.abs(h.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_modes,occupations,z,cutoff", [
        (1, [2], 0, 12), (2, [1, 0], 1, 10), (2, [0, 2], 0, 12),
        (3, [0, 1, 0], 0, 7), (3, [1, 0, 1], 2, 8),
        # the oracle benchmark's shapes
        (2, [1, 1], 0, 14), (3, [0, 1, 1], 1, 8), (3, [1, 1, 0], 2, 10)])
    def test_certified_levels_match_dense_eigh(self, monkeypatch, n_modes,
                                               occupations, z, cutoff):
        omega, g3, g4 = random_couplings(7 * n_modes + z, n_modes, 2e-3, 2e-4)
        expected, weights = dense_transition_frequency(omega, g3, g4,
                                                       occupations, z, cutoff)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense fallback taken")

        monkeypatch.setattr(fockspace, "eigh", no_dense)
        f = exact_transition_frequency(omega, g3, g4, occupations, z, cutoff)
        assert min(weights) > 0.5
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, cutoff))

    def test_three_way_mixing_takes_dense_fallback(self, monkeypatch):
        """|010> sits between |100> and |001>, each h x 1 kHz away and
        coupled to it by h x 1 kHz, so it spreads about equally over three
        eigenstates: no eigenvector has squared overlap above 1/2."""
        delta = 2 * np.pi * 1e3
        omega = 2 * np.pi * 2e6 + np.array([delta, 0.0, -delta])
        g4 = np.zeros((3, 3, 3, 3))
        for idx in ((0, 1, 2, 2), (1, 2, 0, 0)):
            for p in set(itertools.permutations(idx)):
                g4[p] = HBAR * delta / 12
        expected, weights = dense_transition_frequency(omega, None, g4,
                                                       [0, 0, 0], 1, 6)
        assert 0.25 < weights[1] <= 0.5
        calls = []
        dense_eigh = fockspace.eigh

        def counted_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return dense_eigh(*args, **kwargs)

        monkeypatch.setattr(fockspace, "eigh", counted_eigh)
        f = exact_transition_frequency(omega, None, g4, [0, 0, 0], 1, cutoff=6)
        assert calls == [(216, 216)]
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, 6))

    def test_levels_need_no_factorization_arpack_or_dense_eigh(
            self, monkeypatch):
        """Both levels are certified by Davidson iteration alone."""
        omega, g3, g4 = random_couplings(16, 2, 2e-3, 2e-4)

        def forbidden(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return spy

        monkeypatch.setattr(sparse_linalg, "splu", forbidden("splu"))
        monkeypatch.setattr(sparse_linalg, "eigsh", forbidden("eigsh"))
        monkeypatch.setattr(fockspace, "eigh", forbidden("dense eigh"))
        f = exact_transition_frequency(omega, g3, g4, [1, 0], 1, 10)
        expected, _ = dense_transition_frequency(omega, g3, g4, [1, 0], 1, 10)
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, 10))

    def test_vanished_correction_is_uncertified(self):
        """The first correction of e0 is (0, 1, 1)/sqrt(2): the
        preconditioned residual -(a, 3a)/(1, 3) has equal entries.  In that
        space the Ritz value of e0 is 2, the mean of H's diagonal on e1 and
        e2, so the next residual, along e1 - e2, is preconditioned by
        (1, -1) back onto (0, 1, 1): nothing new is left to expand by, and
        the level is refused after two products with H."""
        a = np.sqrt(2.0)
        h = np.array([[0.0, a, 3 * a], [a, 1.0, -8.0], [3 * a, -8.0, 3.0]])

        class Counted:
            shape, products = h.shape, 0

            def diagonal(self):
                return h.diagonal()

            def __matmul__(self, other):
                self.products += 1
                return h @ other

        counted = Counted()
        assert fockspace._certified_level(counted, 0) is None
        assert counted.products == 2

    def test_uncertified_level_takes_dense_fallback(self, monkeypatch):
        """A level still unconverged at the step cap is never returned: one
        dense diagonalization answers both levels."""
        omega, g3, g4 = random_couplings(16, 2, 2e-3, 2e-4)
        calls = []
        dense_eigh = fockspace.eigh

        def counted_eigh(*args, **kwargs):
            calls.append(args[0].shape)
            return dense_eigh(*args, **kwargs)

        monkeypatch.setattr(fockspace, "MAX_STEPS", 1)
        monkeypatch.setattr(fockspace, "eigh", counted_eigh)
        f = exact_transition_frequency(omega, g3, g4, [1, 0], 1, 10)
        expected, _ = dense_transition_frequency(omega, g3, g4, [1, 0], 1, 10)
        assert calls == [(100, 100)]
        assert f == pytest.approx(expected, rel=0,
                                  abs=eigensolver_floor(omega, 10))
