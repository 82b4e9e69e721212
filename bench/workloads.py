"""Seeded workloads of the ionmodes benchmark: inputs, ops and output checks.

Ops drive the library only through names exported by ``ionmodes`` and through
``ionmodes.cli.main``, so private helpers can change or disappear without
breaking the benchmark.  An op has two parts:

* ``run(call)`` makes the timed library calls.  Each public call goes through
  ``call(span_name, fn, *args)``; the span name is ``<layer>.<function>`` and
  a traced run records one span per call.
* ``check(out)`` validates the outputs afterwards, outside the timed region.
  A failed check raises ``CheckFailed``: the op counts as failed and is never
  retried, dropped or redrawn.

A traced run may also call ``probe(out, call)`` after the op (extra calls on
the op's own inputs, recorded as probes and not counted as op time) and
``mem(out)``, which returns ``(layer, size, fn)``: ``fn`` is re-run once per
layer and size under ``tracemalloc`` to measure the layer's allocation peak.

Inputs come from ``numpy.random.default_rng([seed, stream])``: the same seed
gives the same op sequence, however long the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy import constants

# Harmonic-chain length in units of the Coulomb length l, from the equal-mass
# equilibrium (the "chain-length scale" the 1D anharmonicities are drawn in).
HARMONIC_LENGTH_L = {10: 5.741650, 40: 12.425013, 80: 17.298567}
# Size cycles: the middle size fills three of five slots and the largest
# one, so the median op is the middle size's median and the 90th percentile
# the largest size's median; both then sit inside one group of ops, where
# they move least from run to run.
CHAIN1D_SIZES = (10, 40, 40, 40, 80)
CHI3D_SIZES = (2, 4, 4, 4, 6)
KAPPA2_1D = 1.3e7            # V/m^2, Be+ at 2.655 MHz
BE_FRACTION = 0.7
CHI3D_RADIAL_HZ = (9.3e6, 6.1e6)
CHI3D_AXIAL_HZ = 0.6e6
CUBIC_TENSOR_MAX = 1e9       # V/m^3
QUARTIC_TENSOR_MAX = 1e13    # V/m^4
# Radial-axial coupling of the single-ion oracle: 100x the chi3d tensors
# (still below surface-trap strength), so its shifts, mHz to tens of mHz,
# stand far above the eigensolver's floor of ~1e-8 Hz.
ORACLE_CUBIC_MAX = 1e11      # V/m^3
COHERENCE_SAMPLES = 601
SIDEBAND_SAMPLES = 200
CLI_COMMANDS = {
    "modes": "modes_bmmb.json",
    "chi": "chi_two_mgh_coulomb.json",
    "coherence": "coherence_single_ion.json",
    "gate": "gate_two_ion.json",
    "scan": "scan_com_be.json",
    "null": "null_kappa3.json",
    "sensitivity": "sensitivity_single_be.json",
}


class CheckFailed(AssertionError):
    """An op's output failed its correctness check."""


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    size: int | str                 # N, D or basis size the op works at
    chain_sizes: tuple[int, ...]    # chain sizes the op solves, if any
    run: Callable
    check: Callable
    probe: Callable | None = None
    mem: Callable | None = None


@dataclass
class Context:
    """What ops share besides their inputs: the library and the files."""

    im: object                      # the ionmodes package
    cli_main: Callable
    root: Path                      # checkout root (configs/ and data/)
    scratch: Path                   # CLI --out directory inside the checkout
    chi_files: dict                 # data/ chi matrices by file name
    cli_reference: dict = field(default_factory=dict)
    out_ids: Iterator[int] = field(default_factory=itertools.count)


def _coulomb_length(kappa2: float) -> float:
    return (constants.e / (8 * math.pi * constants.epsilon_0 * kappa2)) ** (1 / 3)


def _symmetric(rng, rank: int, scale: float) -> np.ndarray:
    t = rng.uniform(-1.0, 1.0, (3,) * rank)
    perms = list(itertools.permutations(range(rank)))
    return sum(np.transpose(t, p) for p in perms) / len(perms) * scale


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


# ------------------------------------------------------------------ checks

def _check_chain(cfg, spec, species, pot, im):
    """Order, residual force, positive descending modes, orthonormality."""
    require(tuple(cfg.species) == tuple(species), "ion order changed")
    z = np.asarray(cfg.axial_positions)
    require(np.all(np.diff(z) > 0), "axial positions not increasing")
    axial = pot.axial if hasattr(pot, "axial") else pot
    l = im.characteristic_length(species[0], axial.kappa2)
    q = species[0].charge_si
    tol = 1e-10 * 2 * q * axial.kappa2 * l      # the solver's stopping rule
    require(cfg.residual_gradient < tol,
            f"reported residual {cfg.residual_gradient:.3e} above {tol:.3e}")
    if not cfg.is_3d:
        # independent force balance: trap force from the public potential
        # method, Coulomb force vectorised with k_e = 2 kappa2 l^3 / q
        trap = np.empty(len(z))
        for sp in set(species):
            mask = np.array([s == sp for s in species])
            trap[mask] = axial.energy_derivative(sp, z[mask], 1)
        k_e = 2 * axial.kappa2 * l**3 / q
        charge = np.array([s.charge_si for s in species])
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, np.inf)
        coul = -k_e * charge[:, None] * charge[None, :] * np.sign(d) / d**2
        resid = float(np.max(np.abs(trap + coul.sum(axis=1))))
        require(resid < tol, f"recomputed residual {resid:.3e} above {tol:.3e}")
    f = np.asarray(spec.frequencies)
    require(np.all(f > 0), "non-positive mode frequency")
    require(np.all(np.diff(f) <= 0), "frequencies not descending")
    v = np.asarray(spec.eigenvectors)
    err = float(np.max(np.abs(v.T @ v - np.eye(len(f)))))
    require(err < 1e-10, f"eigenvectors not orthonormal ({err:.2e})")


# --------------------------------------------------------------- chain1d

def _chain1d_op(n: int, rng, ctx: Context) -> Op:
    im = ctx.im
    species = tuple(im.BE9 if rng.random() < BE_FRACTION else im.MG24
                    for _ in range(n))
    scale = HARMONIC_LENGTH_L[n] * _coulomb_length(KAPPA2_1D)
    pot = im.axial_from_lambdas(
        KAPPA2_1D, {3: _sign(rng) * rng.uniform(3, 10) * scale,
                    4: rng.uniform(2, 6) * scale},
        uniform_field=rng.uniform(-5.0, 5.0))

    def run(call):
        cfg = call("statics.solve_equilibrium", im.solve_equilibrium,
                   species, pot)
        return cfg, call("modes.mode_spectrum", im.mode_spectrum, cfg)

    def check(out):
        _check_chain(out[0], out[1], species, pot, im)

    return Op("chain", n, (n,), run, check)


def chain1d_ops(rng, ctx: Context) -> Iterator[Op]:
    for i in itertools.count():
        n = CHAIN1D_SIZES[i % len(CHAIN1D_SIZES)]
        yield _chain1d_op(n, rng, ctx)


def chain1d_warmups(rng, ctx: Context) -> list[Op]:
    return [_chain1d_op(n, rng, ctx) for n in sorted(set(CHAIN1D_SIZES))]


# ------------------------------------------------------------------ chi3d

def _chi3d_op(n: int, rng, ctx: Context) -> Op:
    im = ctx.im
    dim = 3 * n
    kappa2 = im.axial_for_frequency(im.MGH25, CHI3D_AXIAL_HZ).kappa2
    axial = im.axial_from_lambdas(
        kappa2, {3: _sign(rng) * rng.uniform(300e-6, 900e-6),
                 4: rng.uniform(300e-6, 900e-6)})
    trap = im.trap3d_from_frequencies(
        im.MGH25, CHI3D_RADIAL_HZ, axial,
        trap_cubic=_symmetric(rng, 3, CUBIC_TENSOR_MAX),
        trap_quartic=_symmetric(rng, 4, QUARTIC_TENSOR_MAX))
    species = (im.MGH25,) * n
    entry = (int(rng.integers(dim)), int(rng.integers(dim)))

    def run(call):
        cfg = call("statics.solve_equilibrium", im.solve_equilibrium,
                   species, trap)
        spec = call("modes.mode_spectrum", im.mode_spectrum, cfg)
        chi = call("anharmonic.chi_from_configuration",
                   im.chi_from_configuration, cfg, spec)
        return cfg, spec, chi

    def check(out):
        cfg, spec, chi = out
        _check_chain(cfg, spec, species, trap, im)
        c = np.asarray(chi.chi)
        require(np.all(np.isfinite(c)), "chi has non-finite entries")
        tens = im.mode_tensors(im.derivative_tensors(cfg), spec)
        z, a = entry
        occ = np.zeros(spec.n_modes, dtype=int)
        base = im.frequency_shift(tens, spec, occ, z)
        occ[a] = 1
        want = im.frequency_shift(tens, spec, occ, z) - base
        err = abs(c[z, a] - want)
        require(err <= 1e-9 * max(abs(want), 1e-3 * np.max(np.abs(c))),
                f"chi[{z},{a}] = {c[z, a]!r}, shift difference {want!r}")

    def probe(out, call):
        cfg, spec, _ = out
        tens = call("anharmonic.derivative_tensors", im.derivative_tensors,
                    cfg)
        mt = call("anharmonic.mode_tensors", im.mode_tensors, tens, spec)
        call("anharmonic.chi_matrix", im.chi_matrix, mt, spec)

    def mem(out):
        cfg, spec, _ = out
        # chi_matrix only allocates scalars; the peak is the dense
        # derivative and mode tensors held together
        return "anharmonic", dim, lambda: im.mode_tensors(
            im.derivative_tensors(cfg), spec)

    return Op("chi", dim, (n,), run, check, probe, mem)


def chi3d_ops(rng, ctx: Context) -> Iterator[Op]:
    for i in itertools.count():
        n = CHI3D_SIZES[i % len(CHI3D_SIZES)]
        yield _chi3d_op(n, rng, ctx)


def chi3d_warmups(rng, ctx: Context) -> list[Op]:
    return [_chi3d_op(n, rng, ctx) for n in sorted(set(CHI3D_SIZES))]


def tensor_bytes(d: int) -> int:
    """Bytes of the dense rank-3 and rank-4 tensors chi builds: A and G."""
    return 8 * (d**3 + d**4) * 2


# ------------------------------------------------------------------ calib

CALIB_KINDS = ("null", "infer", "order_shift", "sensitivity", "scan",
               "two_ion", "dynamics", "cli")
# One round of the round robin.  The second two_ion slot puts the median op
# in the middle of the order_shift ops rather than on a boundary between
# kinds of different cost, which keeps op_ms_p50 steady.
CALIB_ROUND = CALIB_KINDS + ("two_ion",)
TWO_ION_FORMS = ("cubic_equal", "quartic_equal", "cubic_unequal",
                 "quartic_unequal")
# Relative agreement of the closed forms with the numeric frequencies:
# coefficient times the first omitted order in x = l/lambda_3 or l/lambda_4.
TWO_ION_TOLERANCE = {"cubic_equal": (20.0, 4), "quartic_equal": (20.0, 4),
                     "cubic_unequal": (20.0, 2), "quartic_unequal": (20.0, 4)}


def _calib_op(kind, rng, ctx: Context, cli_command=None) -> Op:
    im = ctx.im
    be, mg = im.BE9, im.MG24

    def lam3():
        return _sign(rng) * rng.uniform(150e-6, 400e-6)

    if kind in ("null", "infer"):
        lam = lam3()
        g0 = _sign(rng) * rng.uniform(0.1, 0.3)
        extra = {"pseudo_gradient": g0, "pseudo_reference": be} \
            if kind == "infer" else {}
        pot = im.axial_from_lambdas(KAPPA2_1D, {3: lam}, **extra)
        fam = im.PotentialFamily(base=pot, kappa_actions={3: -pot.kappa[3]})
        if kind == "null":
            def run(call):
                return call("calibration.null_parameter", im.null_parameter,
                            fam, be, mg, "in_phase", (0.0, 2.0))

            def check(p):
                require(abs(p - 1.0) < 1e-3, f"null at p = {p!r}, not 1")
            return Op(kind, 2, (2,), run, check)

        fam0 = im.PotentialFamily(
            base=im.axial_from_lambdas(KAPPA2_1D, {3: lam},
                                       pseudo_reference=be),
            kappa_actions={3: -pot.kappa[3]})

        def run(call):
            # the forward model makes the "measured" residual shift that the
            # inference must explain
            p = call("calibration.null_parameter", im.null_parameter,
                     fam, be, mg, "in_phase", (0.0, 2.0))
            shift = call("calibration.order_shift", im.order_shift,
                         fam.at(p), be, mg, "out_of_phase").delta
            return call("calibration.infer_pseudo_gradient",
                        im.infer_pseudo_gradient, fam0, be, mg, shift,
                        (-1.0, 1.0), (0.0, 2.0))

        def check(g):
            require(abs(g - g0) <= 0.01 * abs(g0),
                    f"inferred gradient {g!r}, generated {g0!r}")
        return Op(kind, 2, (2,), run, check)

    if kind == "order_shift":
        pot = im.axial_from_lambdas(KAPPA2_1D, {3: lam3()})
        pair = _pick(rng, ((be, mg), (mg, be)))
        label = _pick(rng, ("in_phase", "out_of_phase"))

        def run(call):
            return call("calibration.order_shift", im.order_shift, pot,
                        *pair, label)

        def check(rep):
            require(rep.f_ab > 0 and rep.f_ba > 0, "non-positive frequency")
            require(rep.delta == rep.f_ab - rep.f_ba, "delta != f_ab - f_ba")
        return Op(kind, 2, (2,), run, check)

    if kind == "sensitivity":
        lam = lam3()
        pot = im.axial_from_lambdas(KAPPA2_1D, {3: lam})
        e_field = _sign(rng) * rng.uniform(0.1, 1.0)

        def run(call):
            return call("calibration.field_sensitivity", im.field_sensitivity,
                        pot, [be], e_field)

        def check(shift):
            # first order: 3 E / (2 kappa2 lambda3) for one ion
            want = 3 * e_field / (2 * KAPPA2_1D * lam)
            require(abs(shift - want) <= 0.01 * abs(want),
                    f"field shift {shift!r}, first-order {want!r}")
        return Op(kind, 1, (1,), run, check)

    if kind == "scan":
        pot = im.axial_from_lambdas(
            KAPPA2_1D, {3: lam3(), 4: rng.uniform(150e-6, 400e-6)})
        counts = tuple(range(1, 9))

        def run(call):
            return call("calibration.com_frequency_scan",
                        im.com_frequency_scan, pot, be, counts)

        def check(res):
            f = np.asarray(res.frequencies)
            require(res.counts == counts and np.all(f > 0), "bad scan")
            # a single ion sits at the polynomial's origin
            f1 = math.sqrt(2 * be.charge_si * KAPPA2_1D / be.mass) / (2 * math.pi)
            require(abs(f[0] - f1) <= 1e-9 * f1,
                    f"single-ion frequency {f[0]!r}, expected {f1!r}")
        return Op(kind, "1-8", counts, run, check)

    if kind == "two_ion":
        form = _pick(rng, TWO_ION_FORMS)
        cubic = form.startswith("cubic")
        x = _sign(rng) * rng.uniform(0.005, 0.05) if cubic \
            else rng.uniform(0.02, 0.1)
        lam = _coulomb_length(KAPPA2_1D) / x
        pair = (be, be) if form.endswith("_equal") else \
            _pick(rng, ((be, mg), (mg, be)))
        pot = im.axial_from_lambdas(KAPPA2_1D, {3 if cubic else 4: lam})
        closed = getattr(im, form)
        args = (KAPPA2_1D, lam) + (pair[:1] if form.endswith("_equal")
                                   else pair)

        def run(call):
            an = call(f"two_ion.{form}", closed, *args)
            cfg = call("statics.solve_equilibrium", im.solve_equilibrium,
                       pair, pot)
            return an, call("modes.mode_spectrum", im.mode_spectrum, cfg)

        def check(out):
            an, spec = out
            w = 2 * math.pi * np.asarray(spec.frequencies)
            coeff, order = TWO_ION_TOLERANCE[form]
            tol = coeff * abs(x) ** order
            for got, want in ((an.omega_high, w[0]), (an.omega_low, w[1])):
                require(abs(got - want) <= tol * want,
                        f"{form} at x = {x:.4f}: {got!r} vs numeric {want!r}")
        return Op(kind, 2, (2,), run, check)

    if kind == "dynamics":
        chi1 = ctx.chi_files["chi_single_ion_surface_trap.txt"]
        chi2 = ctx.chi_files["chi_two_ion_surface_trap.txt"]
        env = im.ThermalEnvironment(temperature=rng.uniform(0.3e-3, 1.5e-3))
        sup = im.FockSuperposition(mode=_pick(rng, range(chi1.n_modes)),
                                   n_upper=_pick(rng, (1, 2)))
        t = np.linspace(0.0, rng.uniform(0.02, 0.1), COHERENCE_SAMPLES)
        gate_mode = _pick(rng, range(chi2.n_modes))
        delta = 2 * math.pi * rng.uniform(0.5e3, 20e3)

        def run(call):
            c = call("dynamics.fock_coherence", im.fock_coherence, chi1, sup,
                     env, t)
            return c, call("dynamics.thermal_gate_infidelity",
                           im.thermal_gate_infidelity, chi2, gate_mode, delta,
                           env)

        def check(out):
            c, infid = out
            require(abs(c[0] - 1.0) < 1e-12, "coherence C(0) != 1")
            require(np.all((c > 0) & (c <= 1 + 1e-12)), "coherence outside (0, 1]")
            require(math.isfinite(infid) and infid >= 0, "bad gate infidelity")
        return Op(kind, chi2.n_modes, (), run, check)

    if kind == "cli":
        cfg_path = ctx.root / "configs" / CLI_COMMANDS[cli_command]
        # a fresh file per op: truncating a just-written file makes ext4
        # flush it (auto_da_alloc), which would swamp the command's own cost
        out_path = ctx.scratch / f"{cli_command}-{next(ctx.out_ids)}.txt"
        argv = [cli_command, "--config", str(cfg_path), "--out", str(out_path)]

        def run(call):
            return call(f"cli.{cli_command}", ctx.cli_main, argv)

        def check(code):
            require(code == 0, f"cli {cli_command} exit code {code}")
            data = out_path.read_bytes()
            for path in (out_path, out_path.with_suffix(".json")):
                path.unlink(missing_ok=True)
            ref = ctx.cli_reference.setdefault(cli_command, data)
            require(data == ref, f"cli {cli_command} output changed")
        return Op(f"cli.{cli_command}", cli_command, (), run, check)

    raise ValueError(kind)


def calib_ops(rng, ctx: Context) -> Iterator[Op]:
    cli_order: list[str] = []
    while True:
        for kind in rng.permutation(CALIB_ROUND):
            command = None
            if kind == "cli":
                if not cli_order:
                    cli_order = list(rng.permutation(list(CLI_COMMANDS)))
                command = cli_order.pop()
            yield _calib_op(str(kind), rng, ctx, command)


def calib_warmups(rng, ctx: Context) -> list[Op]:
    # one op per kind and one per CLI command; the CLI warm-up outputs are
    # the references the timed CLI ops must reproduce byte for byte
    ops = [_calib_op(k, rng, ctx) for k in CALIB_KINDS if k != "cli"]
    return ops + [_calib_op("cli", rng, ctx, c) for c in CLI_COMMANDS]


# ----------------------------------------------------------------- oracle

ORACLE_KINDS = ("exact_1d_c14", "exact_3d_c8", "exact_3d_c10", "sideband")
# One round of the round robin.  Two cutoff-8 slots put the median op among
# them and leave the cutoff-10 ops, the slowest, as the top fifth, so both
# op_ms_p50 and op_ms_p90 fall inside one kind rather than between kinds.
ORACLE_ROUND = ("exact_1d_c14", "exact_3d_c8", "exact_3d_c8",
                "exact_3d_c10", "sideband")


def _oracle_tolerance(omega, g3, g4, cutoff):
    """Third-order bound on the perturbative error plus the eigh floor."""
    hw = constants.hbar * float(np.min(omega))
    eps = max(float(np.max(np.abs(g3))) / hw,
              math.sqrt(float(np.max(np.abs(g4))) / hw))
    f = np.asarray(omega) / (2 * math.pi)
    floor = 100 * np.finfo(float).eps * cutoff * float(np.sum(f))
    return 10 * eps**3 * float(np.max(f)) + floor


def _oracle_op(kind, rng, ctx: Context) -> Op:
    im = ctx.im
    if kind == "sideband":
        nbar = rng.uniform(1.0, 5.0)
        eta1, eta2 = rng.uniform(0.05, 0.25), rng.uniform(0.05, 0.25)
        omega0 = 2 * math.pi * rng.uniform(10e3, 50e3)
        decay = _pick(rng, (None, rng.uniform(50e-6, 500e-6)))
        t = np.linspace(0.0, 400e-6, SIDEBAND_SAMPLES)

        def run(call):
            return call("dynamics.sideband_flop", im.sideband_flop, eta1,
                        eta2, nbar, omega0, decay, t)

        def check(a):
            require(abs(a[0]) <= 1e-12, f"A(0) = {a[0]!r}")
            require(np.all((a >= -1e-10) & (a <= 1 + 1e-10)),
                    "sideband signal outside [0, 1]")
        return Op(kind, f"nbar{math.ceil(nbar)}", (), run, check)

    if kind == "exact_1d_c14":
        cutoff, n_modes = 14, 2
        pot = im.axial_from_lambdas(
            KAPPA2_1D, {3: _sign(rng) * rng.uniform(150e-6, 600e-6),
                        4: rng.uniform(150e-6, 600e-6)})
        pair = (_pick(rng, (im.BE9, im.MG24)), _pick(rng, (im.BE9, im.MG24)))
    else:
        cutoff, n_modes = (8 if kind == "exact_3d_c8" else 10), 3
        pair = (im.MGH25,)
        kappa2 = im.axial_for_frequency(im.MGH25, CHI3D_AXIAL_HZ).kappa2
        axial = im.axial_from_lambdas(
            kappa2, {3: _sign(rng) * rng.uniform(300e-6, 900e-6),
                     4: rng.uniform(300e-6, 900e-6)})
        # radial-axial coupling z (x^2, y^2) of a surface trap: sparse G3,
        # so the dense Hamiltonian build stays a handful of matrix products
        cubic = np.zeros((3, 3, 3))
        for axis in (0, 1):
            c = _sign(rng) * rng.uniform(0.3, 1.0) * ORACLE_CUBIC_MAX
            for p in set(itertools.permutations((axis, axis, 2))):
                cubic[p] = c
        pot = im.trap3d_from_frequencies(im.MGH25, CHI3D_RADIAL_HZ, axial,
                                         trap_cubic=cubic)
    occ = [int(v) for v in rng.integers(0, 2, n_modes)]
    z = int(rng.integers(n_modes))

    def run(call):
        cfg = call("statics.solve_equilibrium", im.solve_equilibrium, pair,
                   pot)
        spec = call("modes.mode_spectrum", im.mode_spectrum, cfg)
        tens = call("anharmonic.mode_tensors", im.mode_tensors,
                    call("anharmonic.derivative_tensors",
                         im.derivative_tensors, cfg), spec)
        pt = call("anharmonic.frequency_shift", im.frequency_shift, tens,
                  spec, occ, z)
        exact = call("fockspace.exact_transition_frequency",
                     im.exact_transition_frequency, spec.angular, tens.G3,
                     tens.G4, occ, z, cutoff)
        return spec, tens, pt, exact

    def check(out):
        spec, tens, pt, exact = out
        shift = exact - float(spec.frequencies[z])
        tol = _oracle_tolerance(spec.angular, tens.G3, tens.G4, cutoff)
        require(abs(shift - pt) <= tol,
                f"exact shift {shift!r} Hz vs perturbative {pt!r} Hz "
                f"(tolerance {tol:.3e} Hz)")

    def mem(out):
        spec, tens, _, _ = out
        return "fockspace", cutoff**n_modes, lambda: \
            im.exact_transition_frequency(spec.angular, tens.G3, tens.G4,
                                          occ, z, cutoff)

    return Op(kind, cutoff**n_modes, (len(pair),), run, check, mem=mem)


def oracle_ops(rng, ctx: Context) -> Iterator[Op]:
    while True:
        for kind in rng.permutation(ORACLE_ROUND):
            yield _oracle_op(str(kind), rng, ctx)


def oracle_warmups(rng, ctx: Context) -> list[Op]:
    return [_oracle_op(k, rng, ctx) for k in ORACLE_KINDS]


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    ops: Callable[..., Iterator[Op]]          # (rng, ctx) -> endless ops
    warmups: Callable[..., list[Op]]          # (rng, ctx) -> one per kind/size


WORKLOADS = {
    "chain1d": Workload(chain1d_ops, chain1d_warmups),
    "chi3d": Workload(chi3d_ops, chi3d_warmups),
    "calib": Workload(calib_ops, calib_warmups),
    "oracle": Workload(oracle_ops, oracle_warmups),
}
