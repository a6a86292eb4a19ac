"""Command-line front end: configuration files in, CSV/JSON/PGM artifacts out.

Every subcommand writes a ``manifest.json`` next to its outputs; re-running
with the same manifest inputs reproduces the outputs byte for byte.
Exit codes: 0 success, 1 configuration error, 2 physics precondition
violation, 3 I/O failure, 4 malformed tag file (truncated PTAG records,
channel ids outside the header's count, decreasing timestamps, unparsable
CSV) or tags the PTAG layout cannot hold.

Only ``stark`` and ``spectrum`` import scipy, and only for the Voigt line of
a laser with a linewidth; every fit runs on numpy alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import load_config, parse_quantity
from .correlator import correlate, fit_antibunching, normalize_g2, pulsed_peak_ratio
from .errors import ConfigError, FitError, PhysicsError, TagFileError
from .interference import hom_sweep, simulate_hom
from .kmc import apply_detection, simulate_stream
from .model import (DEFAULT_K_VIB, pump_rate, rate_budget, split_two_source,
                    steady_state)
from .spectroscopy import (confocal_scan, emission_spectrum, excitation_spectrum,
                           fit_gaussian, pgm_text, scan_cross_section, stark_scan)
from .tagio import (atomic_write_text, read_tags, write_ptag, write_tags_csv,
                    write_truth_csv)

#: most voltages a --sweep may hold
MAX_SWEEP_POINTS = 10_000


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _strict(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path, payload) -> None:
    """Strict JSON: non-finite floats are written as null."""
    text = json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")


def _write_manifest(args, outdir, extra=None) -> None:
    manifest = {"command": args.command, "version": __version__, "inputs": {}}
    if "seed" in args:
        manifest["seed"] = args.seed
    for attr in ("config", "tags"):
        path = getattr(args, attr, None)
        if path:
            manifest["inputs"][attr] = {"path": path, "sha256": _sha256(path)}
    if extra:
        manifest.update(extra)
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be start:stop:step, got {text!r}")
    start, stop, step = (parse_quantity(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"invalid sweep range {text!r}")
    # floor, so the last point never passes stop; the tolerance keeps a stop
    # that float division lands just short of (0:0.3:0.1) in the sweep
    steps = (stop - start) / step * (1 + 1e-9)
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    return [start + i * step for i in range(math.floor(steps) + 1)]


def _csv_lines(header, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each gets the parsed arguments, the loaded configuration (None
# for commands without --config) and the output directory, writes its
# artifacts and returns what it adds to the manifest

def _cmd_simulate(args, cfg, outdir) -> dict:
    duration = parse_quantity(args.duration)
    photons = simulate_stream(cfg.scene, cfg.laser, duration, args.seed)
    tags = apply_detection(photons, cfg.detection, split="hbt", seed=args.seed)
    if args.format == "bin":
        write_ptag(tags, os.path.join(outdir, "tags.ptag"))
    else:
        write_tags_csv(tags, os.path.join(outdir, "tags.csv"))
    write_truth_csv(photons, os.path.join(outdir, "truth.csv"))
    return {"duration_s": duration, "format": args.format}


def _cmd_correlate(args, cfg, outdir) -> dict:
    tags = read_tags(args.tags)
    bin_width = parse_quantity(args.bin_width)
    max_lag = parse_quantity(args.max_lag)
    hist = correlate(tags, bin_width, max_lag)
    rows = [(float(lag), int(c), float(v))
            for lag, c, v in zip(hist.lags, hist.bins, normalize_g2(hist))]
    atomic_write_text(os.path.join(outdir, "histogram.csv"),
                      _csv_lines("lag_s,counts,g2", rows))
    fit = fit_antibunching(hist)
    _write_json(os.path.join(outdir, "fit.json"), dataclasses.asdict(fit))
    return {"bin_width_s": bin_width, "max_lag_s": max_lag}


def _cmd_pulsed_g2(args, cfg, outdir) -> dict:
    tags = read_tags(args.tags)
    period = parse_quantity(args.period)
    window = parse_quantity(args.window)
    bin_width = parse_quantity(args.bin_width)
    if args.max_lag:
        max_lag = parse_quantity(args.max_lag)
    else:  # 4.5 periods, to the nearest whole tick
        tick = tags.resolution_ps * 1e-12
        max_lag = round(4.5 * period / tick) * tick
    hist = correlate(tags, bin_width, max_lag)
    ratio = pulsed_peak_ratio(hist, period, window)
    _write_json(os.path.join(outdir, "ratio.json"), {
        "ratio": ratio, "period_s": period, "window_s": window,
    })
    return {"period_s": period, "window_s": window}


def _cmd_hom(args, cfg, outdir) -> dict:
    scene_a, scene_b = split_two_source(cfg.scene)
    if args.sweep:
        voltages = _parse_sweep(args.sweep)
        results = hom_sweep(scene_a, scene_b, cfg.laser, args.pulses,
                            voltages, args.seed)
        rows = [(r.voltage_b, r.p_estimate, r.p_error) for r in results]
        atomic_write_text(os.path.join(outdir, "hom_sweep.csv"),
                          _csv_lines("voltage,p_estimate,p_error", rows))
        return {"pulses": args.pulses, "sweep": args.sweep}
    r = simulate_hom(scene_a, scene_b, cfg.laser, args.pulses,
                     scene_a.electrode.voltage, args.voltage, args.seed)
    _write_json(os.path.join(outdir, "hom.json"), {
        "n_pulses": r.n_pulses, "both_emitted": r.both_emitted,
        "singles": r.singles, "coincidences": r.coincidences,
        "p_estimate": r.p_estimate, "p_error": r.p_error,
        "voltage": r.voltage_b,
    })
    return {"pulses": args.pulses, "voltage": args.voltage}


def _cmd_spectrum(args, cfg, outdir) -> dict:
    if args.kind == "excitation":
        span = parse_quantity(args.span)
        axis = np.linspace(-span / 2, span / 2, args.points)
        spec = excitation_spectrum(cfg.scene, axis, saturation_s=args.saturation,
                                   laser_linewidth=cfg.laser.laser_linewidth,
                                   detection=cfg.detection)
    else:
        if not cfg.scene.molecules:
            raise PhysicsError("emission spectrum needs at least one molecule")
        spec = emission_spectrum(cfg.scene.molecules[0],
                                 electrode=cfg.scene.electrode)
    rows = list(zip(spec.axis.tolist(), spec.values.tolist()))
    atomic_write_text(os.path.join(outdir, "spectrum.csv"),
                      _csv_lines("axis,value", rows))
    return {"kind": args.kind}


def _cmd_stark(args, cfg, outdir) -> dict:
    scene_a, scene_b = split_two_source(cfg.scene)
    voltages = _parse_sweep(args.sweep)
    span = parse_quantity(args.span)
    axis = np.linspace(-span / 2, span / 2, args.points)
    rows, separations = stark_scan(scene_a, scene_b, voltages, axis=axis,
                                   laser_linewidth=cfg.laser.laser_linewidth)
    csv_rows = []
    for v, row in zip(voltages, rows):
        for f, val in zip(row.axis.tolist(), row.values.tolist()):
            csv_rows.append((float(v), f, val))
    atomic_write_text(os.path.join(outdir, "stark.csv"),
                      _csv_lines("voltage,axis,value", csv_rows))
    _write_json(os.path.join(outdir, "stark_summary.json"), {
        "rows": [{"voltage": float(v), "separation_hz": s.separation,
                  "resolved": s.resolved, "fwhm_hz": s.fwhm}
                 for v, s in zip(voltages, separations)],
    })
    return {"sweep": args.sweep}


def _cmd_scan(args, cfg, outdir) -> dict:
    image = confocal_scan(cfg.scene, psf_fwhm_nm=args.psf_fwhm,
                          grid=(args.grid, args.grid), pixel_pitch_um=args.pitch,
                          brightness=args.brightness, background=args.background,
                          seed=args.seed)
    atomic_write_text(os.path.join(outdir, "scan.pgm"), pgm_text(image))
    x, profile = scan_cross_section(image)
    fit = fit_gaussian(x, profile)
    _write_json(os.path.join(outdir, "scan.json"), {
        "grid": list(image.grid), "pixel_pitch_um": image.pixel_pitch,
        "psf_fwhm_nm": args.psf_fwhm,
        "fit": {"center_um": fit.center, "fwhm_um": fit.fwhm,
                "fwhm_nm": fit.fwhm * 1e3, "amplitude": fit.amplitude,
                "offset": fit.offset},
    })
    return {"psf_fwhm_nm": args.psf_fwhm, "grid": args.grid, "pitch_um": args.pitch}


def _cmd_budget(args, cfg, outdir) -> dict:
    if not cfg.scene.molecules:
        raise PhysicsError("budget needs at least one molecule")
    mol = cfg.scene.molecules[0]
    pump = pump_rate(mol, cfg.laser, cfg.scene.electrode)
    populations = steady_state(pump, DEFAULT_K_VIB, 1.0 / mol.lifetime_t1)
    detected = rate_budget(mol, cfg.detection, populations[2])
    _write_json(os.path.join(outdir, "budget.json"), {
        "pump_rate_hz": pump, "p_excited": populations[2],
        "detected_zpl_rate_hz": detected,
    })
    return {}


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zplsim",
        description="Single-molecule photon source simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=False):
        if config:
            p.add_argument("--config", required=True, help="INI scene configuration")
        if seed:  # only commands that draw random numbers take a seed
            p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="generate time tags and a truth dump")
    common(p, seed=True)
    p.add_argument("--duration", required=True, help="e.g. '0.1 s' or seconds")
    p.add_argument("--format", choices=("csv", "bin"), default="bin")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("correlate", help="g2 histogram and antibunching fit")
    common(p, config=False)
    p.add_argument("--tags", required=True, help="PTAG or CSV tag file")
    p.add_argument("--bin-width", default="250 ps")
    p.add_argument("--max-lag", default="100 ns")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("pulsed-g2", help="central/side peak-area ratio")
    common(p, config=False)
    p.add_argument("--tags", required=True)
    p.add_argument("--period", required=True, help="pulse period, e.g. '263.16 ns'")
    p.add_argument("--window", default="100 ns")
    p.add_argument("--bin-width", default="250 ps")
    p.add_argument("--max-lag", default=None)
    p.set_defaults(func=_cmd_pulsed_g2)

    p = sub.add_parser("hom", help="two-source interference Monte Carlo")
    common(p, seed=True)
    p.add_argument("--pulses", type=int, default=100_000)
    p.add_argument("--voltage", type=float, default=0.0,
                   help="voltage on microscope B")
    p.add_argument("--sweep", default=None, help="start:stop:step voltage sweep")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("spectrum", help="excitation or emission spectrum CSV")
    common(p)
    p.add_argument("--kind", choices=("excitation", "emission"), default="excitation")
    p.add_argument("--span", default="1 GHz")
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--saturation", type=float, default=0.0)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("stark", help="voltage map of two-source spectra")
    common(p)
    p.add_argument("--sweep", default="0:42:1")
    p.add_argument("--span", default="800 MHz")
    p.add_argument("--points", type=int, default=801)
    p.set_defaults(func=_cmd_stark)

    p = sub.add_parser("scan", help="confocal image plus Gaussian fit")
    common(p, seed=True)
    p.add_argument("--psf-fwhm", type=float, default=330.0, help="nm")
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--pitch", type=float, default=0.05, help="um")
    p.add_argument("--brightness", type=float, default=2.0e5)
    p.add_argument("--background", type=float, default=20.0)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("budget", help="detected ZPL rate through the chain")
    common(p)
    p.set_defaults(func=_cmd_budget)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if "config" in args else None
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args, args.out, args.func(args, cfg, args.out))
        return 0
    except ConfigError as exc:
        print(f"zplsim: configuration error: {exc}", file=sys.stderr)
        return 1
    except TagFileError as exc:
        print(f"zplsim: malformed tag file: {exc}", file=sys.stderr)
        return 4
    except (PhysicsError, FitError, ValueError) as exc:
        print(f"zplsim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"zplsim: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
