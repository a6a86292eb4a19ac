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


def _number(text: str) -> float:
    return parse_quantity(text, 1.0)


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


def _mode(text: str) -> str:
    return text.strip()


# per-section {key: converter}; converter raises ConfigError on bad values
_SCENE_KEYS = {
    "background_rate": _number,
    "reference_wavelength": lambda t: parse_quantity(t, 1e-9),
}
_MOLECULE_KEYS = {
    "position": _position,
    "zpl_center": _number,
    "lifetime_t1": _number,
    "zpl_branching": _number,
    "vibronic_offset": _number,
    "vibronic_fwhm": _number,
    "stark_linear": _number,
    "stark_quadratic": _number,
    "polarization_angle": _number,
}
_LASER_KEYS = {
    "mode": _mode,
    "frequency": _number,
    "cw_peak_pump_rate": _number,
    "laser_linewidth": _number,
    "pulse_width": _number,
    "pulse_rep_rate": _number,
    "pulse_divider": _integer,
    "pulse_peak_pump_rate": _number,
}
_DETECTION_KEYS = {
    "collection_efficiency": _number,
    "zpl_filter_transmission": _number,
    "vibronic_filter_transmission": _number,
    "fiber_coupling": _number,
    "dark_count_rate": _number,
    "timing_jitter_sigma": _number,
    "dead_time": _number,
    "resolution": lambda t: _integer_ps(t),
}
_ELECTRODE_KEYS = {
    "gap": _number,
    "voltage": _number,
    "max_voltage": _number,
}


def _integer_ps(text: str) -> int:
    v = parse_quantity(text, 1e-12)
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise ConfigError(f"resolution must be an integer number of ps, got {text!r}")
    return iv


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
