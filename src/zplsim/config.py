"""INI configuration files describing a scene, laser, detection and electrode.

Sections: ``[scene]``, ``[molecule.<id>]``, ``[laser]``, ``[detection]``,
``[electrode]``.  Values may carry an SI suffix (``9.4 ns``, ``30 GHz``,
``18 um``, ``42 V``); bare numbers are taken in the field's native unit.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import DetectionSpec, ElectrodeSpec, LaserSpec, MoleculeSpec, SceneSpec

_UNITS = {
    "ps": 1e-12, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12,
    "nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0,
    "V": 1.0, "kV": 1e3,
}

_QUANTITY_RE = re.compile(
    r"\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z]*)\s*$")


def parse_quantity(text: str, field_unit_si: float = 1.0) -> float:
    """Parse ``"9.4 ns"`` style values.

    Suffixed values are converted from SI into the field's native unit
    (``field_unit_si`` = SI size of one field unit); bare numbers are
    returned unchanged.  Non-finite values are rejected.
    """
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    suffix = m.group(2)
    if suffix:
        if suffix not in _UNITS:
            raise ConfigError(f"unknown unit suffix {suffix!r} in {text!r}")
        value = value * _UNITS[suffix] / field_unit_si
    if not math.isfinite(value):
        raise ConfigError(f"quantity {text!r} is not finite")
    return value


def _integer(text: str) -> int:
    v = float(text)
    if v != int(v):
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(v)


def _position(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"position needs two comma-separated values, got {text!r}")
    return (parse_quantity(parts[0], 1e-6), parse_quantity(parts[1], 1e-6))


def _integer_ps(text: str) -> int:
    v = parse_quantity(text, 1e-12)
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise ConfigError(f"resolution must be an integer number of ps, got {text!r}")
    return iv


# per-section {key: converter}; converter raises ConfigError on bad values
_SCENE_KEYS = {
    "background_rate": parse_quantity,
}
_MOLECULE_KEYS = {
    "position": _position,
    "zpl_center": parse_quantity,
    "lifetime_t1": parse_quantity,
    "zpl_branching": parse_quantity,
    "vibronic_offset": parse_quantity,
    "vibronic_fwhm": parse_quantity,
    "stark_linear": parse_quantity,
    "stark_quadratic": parse_quantity,
    "polarization_angle": parse_quantity,
}
_LASER_KEYS = {
    "mode": str.strip,
    "frequency": parse_quantity,
    "cw_peak_pump_rate": parse_quantity,
    "laser_linewidth": parse_quantity,
    "pulse_width": parse_quantity,
    "pulse_rep_rate": parse_quantity,
    "pulse_divider": _integer,
    "pulse_peak_pump_rate": parse_quantity,
}
_DETECTION_KEYS = {
    "collection_efficiency": parse_quantity,
    "zpl_filter_transmission": parse_quantity,
    "vibronic_filter_transmission": parse_quantity,
    "fiber_coupling": parse_quantity,
    "dark_count_rate": parse_quantity,
    "timing_jitter_sigma": parse_quantity,
    "dead_time": parse_quantity,
    "resolution": _integer_ps,
}
_ELECTRODE_KEYS = {
    "gap": parse_quantity,
    "voltage": parse_quantity,
    "max_voltage": parse_quantity,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed contents of one configuration file."""

    scene: SceneSpec
    laser: LaserSpec = field(default_factory=LaserSpec)
    detection: DetectionSpec = field(default_factory=DetectionSpec)


def _parse_section(parser, section: str, keys: dict) -> dict:
    out = {}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        try:
            out[key] = keys[key](raw)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return out


def load_config(path) -> ExperimentConfig:
    """Read and validate a configuration file.

    Raises ConfigError for syntax/unknown-key problems and PhysicsError for
    out-of-range physical values.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    molecules = []
    scene_kwargs = {}
    laser_kwargs = {}
    detection_kwargs = {}
    electrode_kwargs = {}
    for section in parser.sections():
        if section == "scene":
            scene_kwargs = _parse_section(parser, section, _SCENE_KEYS)
        elif section.startswith("molecule."):
            try:
                mol_id = int(section.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"[{section}] molecule id must be an integer")
            fields = _parse_section(parser, section, _MOLECULE_KEYS)
            molecules.append(MoleculeSpec(id=mol_id, **fields))
        elif section == "laser":
            laser_kwargs = _parse_section(parser, section, _LASER_KEYS)
        elif section == "detection":
            detection_kwargs = _parse_section(parser, section, _DETECTION_KEYS)
        elif section == "electrode":
            electrode_kwargs = _parse_section(parser, section, _ELECTRODE_KEYS)
        else:
            raise ConfigError(f"unknown section [{section}]")

    electrode = ElectrodeSpec(**electrode_kwargs)
    scene = SceneSpec(molecules=tuple(molecules), electrode=electrode, **scene_kwargs)
    laser = LaserSpec(**laser_kwargs)
    detection = DetectionSpec(**detection_kwargs)
    return ExperimentConfig(scene=scene, laser=laser, detection=detection)
