"""Run-configuration schema: a versioned JSON document, strictly validated.

Masses are in atomic mass units, lengths in micrometres, frequencies in MHz
(detunings in kHz), temperatures in millikelvin, curvatures in V m^-2;
everything is converted to SI here at the boundary.

Each rule has one owner.  This module owns the document's shape: every
object is parsed against one table that maps each allowed key to a parser
and a default (or ``_REQUIRED``), so unknown keys, wrong types and missing
fields are reported at the field's path.  Physical ranges belong to the
domain constructors (``make_species``, ``axial_from_lambdas``,
``AxialPotential``, ``TrapModel3D``, ``ThermalEnvironment``); their errors
are reported at the path of the object being built.  Every command section
in the document is checked at load, whichever command runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

from .calibration import IN_PHASE, OUT_OF_PHASE
from .dynamics import ThermalEnvironment
from .potentials import AxialPotential, TrapModel3D, axial_from_lambdas, \
    trap3d_from_frequencies
from .species import IonSpecies, make_species

CONFIG_VERSION = 1

_REQUIRED = object()  # table default of a key that must be present


class ConfigError(ValueError):
    """Invalid configuration; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj, path, allowed):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _number(obj, path, minimum=None, nonzero=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(obj).__name__}")
    v = float(obj)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    if nonzero and v == 0:
        raise ConfigError(path, "must be nonzero")
    return v


def _integer(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(path, f"expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return int(obj)


def _of_type(kind, name):
    def parse(obj, path):
        if not isinstance(obj, kind):
            raise ConfigError(path, f"expected {name}, got {type(obj).__name__}")
        return obj
    return parse


_string = _of_type(str, "a string")
_boolean = _of_type(bool, "a boolean")
_count = partial(_integer, minimum=1)


def _as_given(obj, path):
    """Passed on unparsed; the constructor that receives it checks it."""
    return obj


def _numbers(obj, path, length=None):
    """A non-empty list of numbers, with exactly ``length`` if given."""
    if not isinstance(obj, list) or not obj or len(obj) != (length or len(obj)):
        raise ConfigError(path, f"expected a list of {length or 'one or more'} "
                          "numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(obj))


def _order_key(text, path) -> int:
    try:
        n = int(text)
    except (TypeError, ValueError):
        raise ConfigError(path, f"polynomial order must be an integer, got {text!r}")
    if n < 3:
        raise ConfigError(path, "anharmonic orders start at 3")
    return n


def _orders(obj, path) -> dict[int, float]:
    """A map from polynomial order n >= 3 (as a string) to a number."""
    return {_order_key(n, f"{path}.{n}"): _number(v, f"{path}.{n}")
            for n, v in _require_mapping(obj, path).items()}


def _fields(obj, path, table) -> dict:
    """Parse an object against ``table``: key -> (parser, default).

    The table is also the object's list of allowed keys.  Absent keys take
    their default; an absent ``_REQUIRED`` key is an error.
    """
    _check_keys(_require_mapping(obj, path), path, table)
    out = {}
    for key, (parse, default) in table.items():
        if key in obj:
            out[key] = parse(obj[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "required")
        else:
            out[key] = default
    return out


def _build(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its rejection of the inputs reported at
    ``path``: the constructor owns the rule and its message."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``--param dotted.path=value`` overrides (values parsed as JSON)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError("<override>", f"expected key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = _require_mapping(raw, "<document>")
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object")
        node[parts[-1]] = value
    return raw


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration with domain objects built.

    ``sections`` holds the parsed (typed, defaults filled) section of every
    command present in the document, and always that of the command run.
    """

    species: dict[str, IonSpecies]
    chain: tuple[IonSpecies, ...]
    axial: AxialPotential
    trap3d: TrapModel3D | None
    environment: ThermalEnvironment | None
    sections: dict

    @property
    def potential(self):
        return self.trap3d if self.trap3d is not None else self.axial


def _lookup(table, label, path):
    if _string(label, path) not in table:
        raise ConfigError(path, f"unknown species {label!r}")
    return table[label]


_SPECIES = {"mass_u": (_number, _REQUIRED), "charge_e": (_integer, 1)}


def _parse_species(raw, path) -> dict[str, IonSpecies]:
    table = {}
    for label, body in _require_mapping(raw, path).items():
        p = f"{path}.{label}"
        f = _fields(body, p, _SPECIES)
        table[label] = _build(p, make_species, label, f["mass_u"], f["charge_e"])
    if not table:
        raise ConfigError(path, "at least one species is required")
    return table


_POTENTIAL = {
    "kappa2": (_number, _REQUIRED),
    "lambdas_um": (_orders, {}),
    "kappas": (_orders, {}),
    "field_v_per_m": (_number, 0.0),
    "pseudo_gradient_ev_per_m": (_number, 0.0),
    "pseudo_reference": (_string, None),
    "origin_um": (_number, 0.0),
}


def _parse_potential(raw, path, table) -> AxialPotential:
    f = _fields(raw, path, _POTENTIAL)
    lambdas = {n: lam * 1e-6 for n, lam in f["lambdas_um"].items()}
    kappa = _build(path, axial_from_lambdas, f["kappa2"], lambdas).kappa
    for n in f["kappas"]:
        if n in kappa:
            raise ConfigError(f"{path}.kappas.{n}",
                              "order given in both kappas and lambdas_um")
    ref = f["pseudo_reference"]
    if ref is not None:
        ref = _lookup(table, ref, f"{path}.pseudo_reference")
    return _build(path, AxialPotential, kappa={**kappa, **f["kappas"]},
                  uniform_field=f["field_v_per_m"],
                  pseudo_gradient=f["pseudo_gradient_ev_per_m"],
                  pseudo_reference=ref,
                  expansion_origin=f["origin_um"] * 1e-6)


_TRAP3D = {
    "reference": (_string, _REQUIRED),
    "radial_mhz": (partial(_numbers, length=2), _REQUIRED),
    "radial_mass_scaling": (_boolean, True),
    "cubic_tensor_v_per_m3": (_as_given, None),
    "quartic_tensor_v_per_m4": (_as_given, None),
}


def _parse_trap3d(raw, path, table, axial) -> TrapModel3D:
    f = _fields(raw, path, _TRAP3D)
    ref = _lookup(table, f["reference"], f"{path}.reference")
    fx, fy = f["radial_mhz"]
    return _build(path, trap3d_from_frequencies, ref, (fx * 1e6, fy * 1e6),
                  axial, trap_cubic=f["cubic_tensor_v_per_m3"],
                  trap_quartic=f["quartic_tensor_v_per_m4"],
                  radial_mass_scaling=f["radial_mass_scaling"])


_ENVIRONMENT = {"temperature_mk": (_number, None), "nbar": (_numbers, None)}


def _parse_environment(raw, path) -> ThermalEnvironment:
    f = _fields(raw, path, _ENVIRONMENT)
    t = f["temperature_mk"]
    return _build(path, ThermalEnvironment,
                  temperature=None if t is None else t * 1e-3, nbar=f["nbar"])


def _family(obj, path) -> dict:
    """Actions of a one-parameter potential family: d kappa_n/dp and dE/dp."""
    fam = _fields(obj, path, {"kappa": (_orders, {}), "field": (_number, 0.0)})
    if not fam["kappa"] and fam["field"] == 0.0:
        raise ConfigError(path, "family must act on at least one coefficient")
    return fam


def _mode_label(obj, path) -> str:
    if obj not in (IN_PHASE, OUT_OF_PHASE):
        raise ConfigError(path, f"expected '{IN_PHASE}' or '{OUT_OF_PHASE}'")
    return obj


def _mode(obj, path):
    """'com' or a 0-based mode index in descending frequency order."""
    return obj if obj == "com" else _integer(obj, path, minimum=0)


# One table per command section.  ``mode_index`` is 1-based in descending
# frequency order; its upper bound needs the computed mode count, so the
# command checks it.
_SECTIONS = {
    "modes": {},
    "chi": {},
    "coherence": {"chi_file": (_string, None),
                  "mode_index": (_count, 1),
                  "n_upper": (_count, 1),
                  "t_max_s": (partial(_number, minimum=0, nonzero=True),
                              _REQUIRED),
                  "samples": (partial(_integer, minimum=2), 501)},
    "gate": {"chi_file": (_string, None),
             "mode_index": (_count, _REQUIRED),
             "detuning_khz": (partial(_number, nonzero=True), _REQUIRED)},
    "scan": {"n_min": (_count, 1), "n_max": (_count, _REQUIRED)},
    "null": {"family": (_family, _REQUIRED),
             "bracket": (partial(_numbers, length=2), _REQUIRED),
             "mode_label": (_mode_label, IN_PHASE)},
    "sensitivity": {"field_v_per_m": (_number, _REQUIRED),
                    "mode": (_mode, "com")},
}
TOP_LEVEL_KEYS = ("version", "species", "chain", "potential", "trap3d",
                  "environment") + tuple(_SECTIONS)


def _check_command(cfg: RunConfig, command: str):
    """What ``command`` needs from the document besides its own section."""
    if command == "chi" and cfg.trap3d is None:
        raise ConfigError("trap3d", "required for the chi command")
    if command in ("coherence", "gate"):
        if cfg.environment is None:
            raise ConfigError("environment",
                              f"required for the {command} command")
        if cfg.sections[command]["chi_file"] is None and cfg.trap3d is None:
            raise ConfigError("trap3d",
                              "required to compute chi (or provide chi_file)")
    if command == "null" and len(cfg.chain) != 2:
        raise ConfigError("chain", "null requires a two-ion chain")


def validate_config(raw: dict, command: str) -> RunConfig:
    """Check the whole document and build its objects for running ``command``.

    ``command``'s section is parsed even when absent, so its required keys
    apply; the other sections are parsed when present.
    """
    _require_mapping(raw, "<document>")
    _check_keys(raw, "<document>", TOP_LEVEL_KEYS)
    if "version" not in raw:
        raise ConfigError("version", "required")
    # bool is an int subclass and True == 1: a flag is not a version number
    if isinstance(raw["version"], bool) or raw["version"] != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported version {raw['version']!r}; "
                          f"expected {CONFIG_VERSION}")
    for key in ("species", "chain", "potential"):
        if key not in raw:
            raise ConfigError(key, "required")
    table = _parse_species(raw["species"], "species")
    if not isinstance(raw["chain"], list) or not raw["chain"]:
        raise ConfigError("chain", "expected a non-empty list of species labels")
    chain = tuple(_lookup(table, lbl, f"chain[{i}]")
                  for i, lbl in enumerate(raw["chain"]))
    axial = _parse_potential(raw["potential"], "potential", table)
    trap3d = env = None
    if "trap3d" in raw:
        trap3d = _parse_trap3d(raw["trap3d"], "trap3d", table, axial)
    if "environment" in raw:
        env = _parse_environment(raw["environment"], "environment")
    sections = {name: _fields(raw.get(name, {}), name, fields)
                for name, fields in _SECTIONS.items()
                if name in raw or name == command}
    scan = sections.get("scan")
    if scan and scan["n_max"] < scan["n_min"]:
        raise ConfigError("scan.n_max", f"must be >= {scan['n_min']}")
    cfg = RunConfig(species=table, chain=chain, axial=axial, trap3d=trap3d,
                    environment=env, sections=sections)
    _check_command(cfg, command)
    return cfg
