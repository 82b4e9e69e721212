"""Command-line front end.

    ionmodes <command> --config <file> [--out <file>] [--param key=value ...]

Commands: modes, chi, coherence, gate, scan, null, sensitivity.  Output is
deterministic: identical configuration gives byte-identical output.  Float
formatting uses 12 significant digits unless IONMODES_PRECISION is set.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 resonance detected, 5 root-bracket failure.
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
from .calibration import IN_PHASE, com_frequency_scan, field_sensitivity, \
    null_parameter, BracketError
from .chifile import _matrix_lines, chi_to_text, format_value, read_chi
from .config import ConfigError, RunConfig, apply_overrides, load_config, \
    parse_family, parse_mode_label, validate_config, _integer, _number
from .dynamics import FockSuperposition, fock_coherence, thermal_gate_infidelity
from .fockspace import CutoffError, StateMatchError
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


def _section(cfg: RunConfig, name: str) -> dict:
    if name not in cfg.sections:
        raise ConfigError(name, f"config section required for command {name!r}")
    return cfg.sections[name]


def _solved_spectrum(cfg: RunConfig):
    eq = solve_equilibrium(cfg.chain, cfg.potential)
    return mode_spectrum(eq)


def _chi_input(cfg: RunConfig, section: dict, config_dir: Path):
    """Golden chi file if configured, else chi computed from the chain."""
    if "chi_file" in section:
        path = Path(section["chi_file"])
        if not path.is_absolute():
            path = config_dir / path
        try:
            return read_chi(path)
        except OSError as exc:
            raise ConfigError("chi_file", str(exc)) from exc
    if cfg.trap3d is None:
        raise ConfigError("trap3d",
                          "required to compute chi (or provide chi_file)")
    return chi_from_configuration(solve_equilibrium(cfg.chain, cfg.potential))


def _mode_index(section, n_modes, default=None) -> int:
    """Config mode indices are 1-based in descending frequency order."""
    if "mode_index" in section:
        idx = _integer(section["mode_index"], "mode_index", minimum=1)
    elif default is not None:
        idx = default
    else:
        raise ConfigError("mode_index", "required")
    if idx > n_modes:
        raise ConfigError("mode_index", f"only {n_modes} modes available")
    return idx - 1


def cmd_modes(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    spectrum = _solved_spectrum(cfg)
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


def cmd_chi(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if cfg.trap3d is None:
        raise ConfigError("trap3d", "required for the chi command")
    chi = chi_from_configuration(solve_equilibrium(cfg.chain, cfg.potential))
    return chi_to_text(chi, prec)


def cmd_coherence(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if cfg.environment is None:
        raise ConfigError("environment", "required for the coherence command")
    if "t_max_s" not in section:
        raise ConfigError("coherence.t_max_s", "required")
    t_max = _number(section["t_max_s"], "coherence.t_max_s")
    if t_max <= 0:
        raise ConfigError("coherence.t_max_s", "must be positive")
    samples = _integer(section.get("samples", 501), "coherence.samples",
                       minimum=2)
    chi = _chi_input(cfg, section, config_dir)
    z = _mode_index(section, chi.n_modes, default=1)
    sup = FockSuperposition(mode=z,
                            n_upper=_integer(section.get("n_upper", 1),
                                             "coherence.n_upper", minimum=1))
    t = np.linspace(0.0, t_max, samples)
    c = fock_coherence(chi, sup, cfg.environment, t)
    out = ["# ionmodes coherence decay",
           f"# mode_index (1-based, descending): {z + 1}",
           f"# superposition: (|0> + |{sup.n_upper}>)/sqrt(2)",
           "# columns: time_s,coherence"]
    out += [f"{format_value(ti, prec)},{format_value(ci, prec)}"
            for ti, ci in zip(t, c)]
    return "\n".join(out) + "\n"


def cmd_gate(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if cfg.environment is None:
        raise ConfigError("environment", "required for the gate command")
    if "detuning_khz" not in section:
        raise ConfigError("gate.detuning_khz", "required")
    det = _number(section["detuning_khz"], "gate.detuning_khz", nonzero=True)
    chi = _chi_input(cfg, section, config_dir)
    z = _mode_index(section, chi.n_modes)
    delta = 2 * math.pi * det * 1e3
    inf = thermal_gate_infidelity(chi, z, delta, cfg.environment)
    out = ["# ionmodes thermal gate infidelity (dimensionless)",
           f"# gate mode_index (1-based, descending): {z + 1}",
           f"# detuning_khz: {format_value(det, prec)}",
           format_value(inf, prec)]
    return "\n".join(out) + "\n"


def cmd_scan(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if "n_max" not in section:
        raise ConfigError("scan.n_max", "required")
    n_min = _integer(section.get("n_min", 1), "scan.n_min", minimum=1)
    n_max = _integer(section["n_max"], "scan.n_max", minimum=n_min)
    result = com_frequency_scan(cfg.axial, cfg.chain[0],
                                range(n_min, n_max + 1))
    out = ["# ionmodes centre-of-mass frequency scan",
           f"# species: {cfg.chain[0].label}",
           f"# slope_hz_per_ion: {format_value(result.slope, prec)}",
           f"# intercept_hz: {format_value(result.intercept, prec)}",
           f"# r_squared: {format_value(result.r_squared, prec)}",
           "# columns: n_ions,f_com_hz"]
    out += [f"{n},{format_value(f, prec)}"
            for n, f in zip(result.counts, result.frequencies)]
    return "\n".join(out) + "\n"


def cmd_null(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if len(cfg.chain) != 2:
        raise ConfigError("chain", "null requires a two-ion chain")
    if "family" not in section:
        raise ConfigError("null.family", "required")
    if "bracket" not in section:
        raise ConfigError("null.bracket", "required")
    family = parse_family(section["family"], "null.family", cfg.axial)
    bracket = section["bracket"]
    if not isinstance(bracket, list) or len(bracket) != 2:
        raise ConfigError("null.bracket", "expected [p_lo, p_hi]")
    label = parse_mode_label(section.get("mode_label", IN_PHASE),
                             "null.mode_label")
    p_star = null_parameter(family, cfg.chain[0], cfg.chain[1], label,
                            (_number(bracket[0], "null.bracket[0]"),
                             _number(bracket[1], "null.bracket[1]")))
    out = ["# ionmodes odd-order anharmonicity null",
           f"# mode_label: {label}",
           "# root parameter p* (family parameter units):",
           format_value(p_star, prec)]
    return "\n".join(out) + "\n"


def cmd_sensitivity(cfg: RunConfig, section: dict, config_dir: Path, prec: int) -> str:
    if "field_v_per_m" not in section:
        raise ConfigError("sensitivity.field_v_per_m", "required")
    field = _number(section["field_v_per_m"], "sensitivity.field_v_per_m")
    mode = section.get("mode", "com")
    if mode != "com":
        mode = _integer(mode, "sensitivity.mode", minimum=0)
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


def _json_mirror(text: str, command: str) -> str | None:
    """JSON mirror of matrix output for machine comparison."""
    if command != "chi":
        return None
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

    try:
        prec = _precision()
        raw = load_config(args.config)
        raw = apply_overrides(raw, args.param)
        cfg = validate_config(raw)
        section = cfg.sections.get(args.command, {})
        if args.command not in cfg.sections and args.command not in ("modes", "chi"):
            section = _section(cfg, args.command)
        text = COMMANDS[args.command](cfg, section, Path(args.config).resolve().parent,
                                      prec)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResonanceError as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except BracketError as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (EquilibriumError, NotAtEquilibriumError, CutoffError,
            StateMatchError, np.linalg.LinAlgError, ZeroDivisionError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.out:
        Path(args.out).write_text(text)
        mirror = _json_mirror(text, args.command)
        if mirror is not None:
            Path(args.out).with_suffix(".json").write_text(mirror)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
