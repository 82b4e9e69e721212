"""Command-line front end.

    ionmodes <command> --config <file> [--out <file>] [--param key=value ...]

Commands: modes, chi, coherence, gate, scan, null, sensitivity.  Output is
deterministic: identical configuration gives byte-identical output.  Float
formatting uses 12 significant digits unless IONMODES_PRECISION is set.
With --out, chi also writes a JSON mirror of its text to the same path with
the suffix .json, so its --out must have another suffix.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 coupled resonance (chi refused), 5 root-bracket failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .anharmonic import ResonanceError, chi_from_configuration
from .calibration import BracketError, PotentialFamily, com_frequency_scan, \
    field_sensitivity, null_parameter
from .chifile import _matrix_lines, chi_to_text, format_value, read_chi
from .config import ConfigError, RunConfig, apply_overrides, load_config, \
    validate_config
from .dynamics import FockSuperposition, fock_coherence, thermal_gate_infidelity
from .modes import NotAtEquilibriumError, mode_spectrum
from .statics import EquilibriumError, solve_equilibrium

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_RESONANCE = 4
EXIT_BRACKET = 5


def _precision() -> int:
    raw = os.environ.get("IONMODES_PRECISION", "12")
    try:
        p = int(raw)
    except ValueError:
        raise ConfigError("IONMODES_PRECISION", f"not an integer: {raw!r}")
    if not 1 <= p <= 17:
        raise ConfigError("IONMODES_PRECISION", "must be between 1 and 17")
    return p


def _chi_input(cfg: RunConfig, command: str, config_dir: Path):
    """Golden chi file if ``command``'s section names one, else chi computed
    from the chain (chi_file paths are relative to the configuration)."""
    name = cfg.sections[command].get("chi_file")
    if name is None:
        return chi_from_configuration(solve_equilibrium(cfg.chain, cfg.potential))
    try:
        return read_chi(config_dir / name)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{command}.chi_file", str(exc)) from exc


def _mode_index(cfg: RunConfig, command: str, n_modes: int) -> int:
    """0-based index of ``command``'s 1-based mode_index, checked against
    the modes of chi; explicit nbars must cover the same modes."""
    nbar = cfg.environment.nbar
    if nbar is not None and len(nbar) != n_modes:
        raise ConfigError("environment.nbar",
                          f"expected {n_modes} entries, one per mode")
    idx = cfg.sections[command]["mode_index"]
    if idx > n_modes:
        raise ConfigError(f"{command}.mode_index",
                          f"only {n_modes} modes available")
    return idx - 1


def cmd_modes(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    spectrum = mode_spectrum(solve_equilibrium(cfg.chain, cfg.potential))
    out = ["# ionmodes modes report",
           "# chain: " + " ".join(s.label for s in cfg.chain),
           "# equilibrium axial positions (m):"]
    out += _matrix_lines(spectrum.config.axial_positions, prec)
    out.append("# mode frequencies (Hz), descending:")
    out += _matrix_lines(spectrum.frequencies, prec)
    out.append("# mass-weighted eigenvectors, one row per mode (descending):")
    out += _matrix_lines(spectrum.eigenvectors.T, prec)
    out.append("# ground-state sizes sigma_i (m), one row per mode:")
    out += _matrix_lines(spectrum.sigma_ion.T, prec)
    return "\n".join(out) + "\n"


def cmd_chi(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    return chi_to_text(_chi_input(cfg, "chi", config_dir), prec)


def cmd_coherence(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    section = cfg.sections["coherence"]
    chi = _chi_input(cfg, "coherence", config_dir)
    z = _mode_index(cfg, "coherence", chi.n_modes)
    sup = FockSuperposition(mode=z, n_upper=section["n_upper"])
    t = np.linspace(0.0, section["t_max_s"], section["samples"])
    c = fock_coherence(chi, sup, cfg.environment, t)
    out = ["# ionmodes coherence decay",
           f"# mode_index (1-based, descending): {z + 1}",
           f"# superposition: (|0> + |{sup.n_upper}>)/sqrt(2)",
           "# columns: time_s,coherence"]
    out += [f"{format_value(ti, prec)},{format_value(ci, prec)}"
            for ti, ci in zip(t, c)]
    return "\n".join(out) + "\n"


def cmd_gate(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    det = cfg.sections["gate"]["detuning_khz"]
    chi = _chi_input(cfg, "gate", config_dir)
    z = _mode_index(cfg, "gate", chi.n_modes)
    delta = 2 * math.pi * det * 1e3
    inf = thermal_gate_infidelity(chi, z, delta, cfg.environment)
    out = ["# ionmodes thermal gate infidelity (dimensionless)",
           f"# gate mode_index (1-based, descending): {z + 1}",
           f"# detuning_khz: {format_value(det, prec)}",
           format_value(inf, prec)]
    return "\n".join(out) + "\n"


def cmd_scan(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    section = cfg.sections["scan"]
    result = com_frequency_scan(cfg.axial, cfg.chain[0],
                                range(section["n_min"], section["n_max"] + 1))
    out = ["# ionmodes centre-of-mass frequency scan",
           f"# species: {cfg.chain[0].label}",
           f"# slope_hz_per_ion: {format_value(result.slope, prec)}",
           f"# intercept_hz: {format_value(result.intercept, prec)}",
           f"# r_squared: {format_value(result.r_squared, prec)}",
           "# columns: n_ions,f_com_hz"]
    out += [f"{n},{format_value(f, prec)}"
            for n, f in zip(result.counts, result.frequencies)]
    return "\n".join(out) + "\n"


def cmd_null(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    section = cfg.sections["null"]
    fam = section["family"]
    family = PotentialFamily(base=cfg.axial, kappa_actions=fam["kappa"],
                             field_action=fam["field"])
    label = section["mode_label"]
    p_star = null_parameter(family, cfg.chain[0], cfg.chain[1], label,
                            section["bracket"])
    out = ["# ionmodes odd-order anharmonicity null",
           f"# mode_label: {label}",
           "# root parameter p* (family parameter units):",
           format_value(p_star, prec)]
    return "\n".join(out) + "\n"


def cmd_sensitivity(cfg: RunConfig, config_dir: Path, prec: int) -> str:
    section = cfg.sections["sensitivity"]
    field, mode = section["field_v_per_m"], section["mode"]
    if mode != "com" and mode >= len(cfg.chain):
        raise ConfigError("sensitivity.mode",
                          f"must be below {len(cfg.chain)}, the number of axial modes")
    shift = field_sensitivity(cfg.axial, cfg.chain, field, mode)
    out = ["# ionmodes field sensitivity",
           f"# field_v_per_m: {format_value(field, prec)}",
           "# fractional squared-frequency shift (dimensionless):",
           format_value(shift, prec)]
    return "\n".join(out) + "\n"


COMMANDS = {
    "modes": cmd_modes,
    "chi": cmd_chi,
    "coherence": cmd_coherence,
    "gate": cmd_gate,
    "scan": cmd_scan,
    "null": cmd_null,
    "sensitivity": cmd_sensitivity,
}


def _json_mirror(text: str) -> str:
    """JSON mirror of chi text for machine comparison."""
    chi = read_chi(io.StringIO(text))
    return json.dumps({"frequencies_hz": chi.mode_frequencies.tolist(),
                       "chi_hz": chi.chi.tolist()},
                      sort_keys=True, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionmodes",
        description="Normal modes and anharmonic shifts of trapped-ion chains")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dot-path config override, value parsed as JSON")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else None
    mirrored = out is not None and args.command == "chi"
    try:
        if mirrored and out.suffix == ".json":
            raise ConfigError("--out", "is where chi writes the JSON mirror "
                              "of its text; give it another suffix")
        prec = _precision()
        raw = apply_overrides(load_config(args.config), args.param)
        cfg = validate_config(raw, args.command)
        text = COMMANDS[args.command](cfg, Path(args.config).resolve().parent,
                                      prec)
        if out is not None:
            out.write_text(text)
        if mirrored:
            out.with_suffix(".json").write_text(_json_mirror(text))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResonanceError as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except BracketError as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (EquilibriumError, NotAtEquilibriumError, np.linalg.LinAlgError,
            ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if out is None:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
