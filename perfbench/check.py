"""Output checks of the benchmark's commands, built from the physics model.

Every expectation comes from zplsim's model functions (``steady_state``,
``rate_budget``, ``pump_rate``, ``analytic_g2``, ...) or from an independent
recount of the tags in integer ticks, never from outputs of earlier runs.
Statistical tolerances are 5 standard deviations of the counts involved.

    python3 perfbench/check.py pass.json

reads the commands of one pass (label, output directory, exit code, check)
and prints one JSON list with a verdict per command.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys

import numpy as np

import gen_tags
from zplsim.config import load_config, parse_quantity
from zplsim.model import (DEFAULT_K_VIB, analytic_g2, natural_linewidth,
                          pump_rate, rate_budget, shifted_center,
                          split_two_source, steady_state)

N_SIGMA = 5.0
_HEADER = struct.Struct("<BQQI")
_RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])


class CheckFailed(Exception):
    """An output does not match what the model or the inputs require."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# input readers (independent of zplsim's own readers)

def read_ptag(path):
    """Strictly validated PTAG file -> (duration_ps, {channel: int64 ticks})."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = 4 + _HEADER.size
    require(len(data) >= head and data[:4] == b"PTAG", f"{path}: no PTAG header")
    version, resolution_ps, duration_ps, n_channels = _HEADER.unpack_from(data, 4)
    require(version == 1 and resolution_ps == 1, f"{path}: version {version}, "
            f"resolution {resolution_ps} ps (expected 1, 1 ps)")
    require((len(data) - head) % _RECORD.itemsize == 0,
            f"{path}: truncated record ({len(data) - head} record bytes)")
    records = np.frombuffer(data, dtype=_RECORD, offset=head)
    ts = records["timestamp"].astype(np.int64)
    require(bool(np.all(records["channel"] < n_channels)), f"{path}: channel >= {n_channels}")
    require(bool(np.all(np.diff(ts) >= 0)), f"{path}: tags not in time order")
    require(len(ts) == 0 or (ts[0] >= 0 and ts[-1] < duration_ps),
            f"{path}: tag outside [0, duration)")
    return duration_ps, {c: ts[records["channel"] == c] for c in range(n_channels)}


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        require(first == header, f"{path}: header {first!r}, expected {header!r}")
        rows = list(csv.reader(fh))
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _count_lines(path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 23), b""):
            n += block.count(b"\n")
    return n


def _close(a, b, rtol=1e-9, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


# ---------------------------------------------------------------------------
# simulate

def expected_counts(cfg, duration: float):
    """(emitted photons, detected tags per channel, dead-time loss bound per
    channel) of a scene, from steady_state / rate_budget."""
    laser, det, el = cfg.laser, cfg.detection, cfg.scene.electrode
    emitted, detected = 0.0, []
    for mol in cfg.scene.molecules:
        pump = pump_rate(mol, laser, el)
        vib_share = ((1.0 - mol.zpl_branching) * det.collection_efficiency
                     * det.vibronic_filter_transmission * det.fiber_coupling)
        if laser.mode == "pulsed":
            # per window: P(excitation) = 1 - exp(-pump * width)
            pulses = duration / laser.pulse_period
            p_exc = 1.0 - math.exp(-pump * laser.pulse_width)
            emitted += pulses * p_exc
            # rate_budget(p) * T1 is the detected ZPL probability per pulse
            per_pulse = (rate_budget(mol, det, p_exc) * mol.lifetime_t1
                         + p_exc * vib_share)
            detected.append(pulses * per_pulse)
        else:
            p_e = steady_state(pump, DEFAULT_K_VIB, 1.0 / mol.lifetime_t1)[2]
            rate = p_e / mol.lifetime_t1
            emitted += rate * duration
            detected.append((rate_budget(mol, det, p_e) + rate * vib_share) * duration)
    bg = cfg.scene.background_rate * duration
    emitted += bg
    bg_detected = (bg * det.collection_efficiency * det.vibronic_filter_transmission
                   * det.fiber_coupling)
    per_channel = 0.5 * (sum(detected) + bg_detected) + det.dark_count_rate * duration
    if laser.mode == "pulsed":
        # two molecules detected on one channel in the same pulse, closer than
        # the dead time; bounded with the slowest decay plus the pulse width
        gamma = min(1.0 / m.lifetime_t1 for m in cfg.scene.molecules)
        near = 1.0 - math.exp(-gamma * (det.dead_time + laser.pulse_width))
        pulses = duration / laser.pulse_period
        d = np.array(detected) / pulses
        loss = pulses * 0.25 * (d.sum() ** 2 - np.square(d).sum()) * near
    else:
        # Poisson bound; antibunching only lowers it
        loss = per_channel * (per_channel / duration) * det.dead_time
    return emitted, per_channel, loss


def check_simulate(check, out):
    cfg = load_config(check["config"])
    duration = check["duration_s"]
    duration_ps, channels = read_ptag(os.path.join(out, "tags.ptag"))
    require(duration_ps == round(duration * 1e12), f"header duration {duration_ps} ps")
    require(sorted(channels) == [0, 1], f"channels {sorted(channels)}, expected HBT 0, 1")
    emitted, per_channel, loss = expected_counts(cfg, duration)
    for c, ticks in channels.items():
        tol = N_SIGMA * math.sqrt(per_channel) + 1.0
        require(per_channel - loss - tol <= len(ticks) <= per_channel + tol,
                f"channel {c}: {len(ticks)} tags, model {per_channel:.1f} "
                f"(-{loss:.1f} dead time) +/- {tol:.1f}")
    truth = os.path.join(out, "truth.csv")
    with open(truth) as fh:
        require(fh.readline() == "time_s,freq_hz,source,branch\n", "truth.csv header")
    rows = _count_lines(truth) - 1
    tol = N_SIGMA * math.sqrt(emitted) + 1.0
    require(abs(rows - emitted) <= tol,
            f"truth.csv: {rows} photons, model {emitted:.1f} +/- {tol:.1f}")
    return f"tags {[len(t) for t in channels.values()]}, photons {rows}"


# ---------------------------------------------------------------------------
# correlate

def half_bins(max_lag_ps: int, bin_ps: int) -> int:
    """Smallest n with (n + 1/2) * bin > max_lag, in exact integer arithmetic."""
    n = (2 * max_lag_ps + bin_ps) // (2 * bin_ps)
    if (2 * n + 1) * bin_ps <= 2 * max_lag_ps:
        n += 1
    return n


def _pair_lags(a, b, reach: int):
    """Every lag b - a with |b - a| <= reach, in chunks of starts."""
    for start in range(0, len(a), 1 << 16):
        chunk = a[start:start + (1 << 16)]
        lo = np.searchsorted(b, chunk - reach, side="left")
        hi = np.searchsorted(b, chunk + reach, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total:
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            yield b[np.repeat(lo, counts) + offsets] - np.repeat(chunk, counts)


def pair_total_bounds(a, b, max_lag_ps: int):
    """(certain, possible) number of pairs within +/-max_lag.

    Pairs within one tick of +/-max_lag are not certain: the correlator
    compares float seconds there.
    """
    def within(reach):
        return int((np.searchsorted(b, a + reach, side="right")
                    - np.searchsorted(b, a - reach, side="left")).sum())
    return within(max_lag_ps - 2), within(max_lag_ps + 1)


def bin_bounds(a, b, bin_ps: int, max_lag_ps: int):
    """Per-bin (lower, upper) pair counts of the correlation histogram.

    Bin k holds lags in [(k - 1/2) bin, (k + 1/2) bin); a lag exactly on an
    edge, or within one tick of +/-max_lag, may land on either side.
    """
    n = half_bins(max_lag_ps, bin_ps)
    lower = np.zeros(2 * n + 1, dtype=np.int64)
    upper = np.zeros(2 * n + 1, dtype=np.int64)
    for lag in _pair_lags(a, b, max_lag_ps + 1):
        shifted = 2 * lag + bin_ps
        k = shifted // (2 * bin_ps) + n
        on_edge = shifted % (2 * bin_ps) == 0
        unsure = np.abs(np.abs(lag) - max_lag_ps) <= 1
        sure = ~on_edge & ~unsure
        lower += np.bincount(k[sure], minlength=2 * n + 1)[:2 * n + 1]
        for cand in (k[~sure], k[on_edge] - 1):
            cand = cand[(cand >= 0) & (cand <= 2 * n)]
            upper += np.bincount(cand, minlength=2 * n + 1)
    return lower, lower + upper


def _g2_scale(channels, duration_ps, bin_ps):
    """Expected counts per bin for g2 = 1: N_a N_b bin / duration."""
    return len(channels[0]) * len(channels[1]) * bin_ps / duration_ps


def _model_rates(model) -> tuple[float, float]:
    """(pump, gamma) of the single emitter behind the antibunching dip."""
    if model.get("synthetic"):
        return gen_tags.PUMP_HZ, gen_tags.GAMMA_HZ
    cfg = load_config(model["config"])
    require(len(cfg.scene.molecules) == 1 and cfg.scene.background_rate == 0,
            "fit check needs a single-molecule scene without background")
    mol = cfg.scene.molecules[0]
    return pump_rate(mol, cfg.laser, cfg.scene.electrode), 1.0 / mol.lifetime_t1


def _fit_model(x, g0, tau, p):
    return p - (p - g0) * np.exp(-np.abs(x) / tau)


def fit_tolerance(lags, pump, gamma, scale, duration):
    """Asymptotic target and 5-sigma window of the CLI's least-squares fit.

    The expected histogram is analytic_g2 averaged over each bin, times the
    finite-duration factor 1 - |lag|/duration.  The unweighted least-squares
    estimator converges to the best fit of that curve; its covariance under
    Poisson counts is the sandwich (J'J)^-1 J' diag(var) J (J'J)^-1.
    Returns ((g0, tau), (sigma_g0, sigma_tau)).
    """
    from scipy.optimize import least_squares

    width = lags[1] - lags[0]
    sub = (np.arange(25) + 0.5) / 25 - 0.5
    curve = analytic_g2(pump, gamma, lags[:, None] + sub * width).mean(axis=1)
    curve *= 1.0 - np.abs(lags) / duration
    tau0 = 1.0 / (pump + gamma)
    best = least_squares(lambda th: _fit_model(lags, *th) - curve, (0.0, tau0, 1.0),
                         x_scale=(1.0, tau0, 1.0), xtol=1e-14, ftol=1e-14).x
    g0, tau, p = best
    e = np.exp(-np.abs(lags) / tau)
    jac = np.column_stack([e, -(p - g0) * e * np.abs(lags) / tau**2, 1.0 - e])
    var = np.maximum(curve, 1e-12) / scale
    bread = np.linalg.inv(jac.T @ jac)
    cov = bread @ (jac.T * var) @ jac @ bread
    return (g0, tau), (math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]))


def check_correlate(check, out):
    duration_ps, channels = read_ptag(check["tags"])
    a, b = channels[0], channels[1]
    bin_ps, max_lag_ps = check["bin_ps"], check["max_lag_ps"]
    n = half_bins(max_lag_ps, bin_ps)
    hist = _read_csv(os.path.join(out, "histogram.csv"), "lag_s,counts,g2")
    require(hist.shape == (2 * n + 1, 3), f"histogram shape {hist.shape}, "
            f"expected ({2 * n + 1}, 3)")
    lags = (np.arange(2 * n + 1) - n) * (bin_ps * 1e-12)
    require(np.allclose(hist[:, 0], lags, rtol=1e-9, atol=1e-6 * bin_ps * 1e-12),
            "lag column does not match the bin centers")
    counts = hist[:, 1].astype(np.int64)
    require(bool(np.all(hist[:, 1] == counts)) and bool(np.all(counts >= 0)),
            "counts are not non-negative integers")
    scale = _g2_scale(channels, duration_ps, bin_ps)
    require(np.allclose(hist[:, 2], counts / scale, rtol=1e-9, atol=0.0),
            "g2 column is not counts / (N_a N_b bin / duration)")
    certain, possible = pair_total_bounds(a, b, max_lag_ps)
    total = int(counts.sum())
    require(certain <= total <= possible,
            f"histogram holds {total} pairs, integer-tick count {certain}..{possible}")
    detail = [f"pairs {total}"]
    if check.get("per_bin"):
        lower, upper = bin_bounds(a, b, bin_ps, max_lag_ps)
        bad = np.flatnonzero((counts < lower) | (counts > upper))
        require(len(bad) == 0, f"{len(bad)} bins differ from the integer-tick "
                f"count, first at lag {lags[bad[0]] if len(bad) else 0:.4g} s")
    duration = duration_ps * 1e-12
    if check.get("plateau"):
        far = np.abs(lags) >= 0.5 * lags[-1]
        expected = scale * float(np.sum(1.0 - np.abs(lags[far]) / duration))
        plateau = counts[far].sum() / expected
        tol = N_SIGMA / math.sqrt(expected)
        require(abs(plateau - 1.0) <= tol,
                f"far-lag plateau {plateau:.5f}, model 1 +/- {tol:.5f}")
        detail.append(f"plateau {plateau:.5f}")
    if check.get("fit_model"):
        fit = _read_json(os.path.join(out, "fit.json"))
        (g0, tau), (s_g0, s_tau) = fit_tolerance(
            lags, *_model_rates(check["fit_model"]), scale, duration)
        got_g0, got_tau = fit["g2_zero"], fit["decay_time_s"]
        require(math.isfinite(got_g0) and math.isfinite(got_tau), f"fit is {fit}")
        require(abs(got_g0 - g0) <= N_SIGMA * s_g0,
                f"fit g2(0) = {got_g0:.4f}, analytic_g2 {g0:.4f} +/- {N_SIGMA * s_g0:.4f}")
        require(abs(got_tau - tau) <= N_SIGMA * s_tau,
                f"fit tau = {got_tau * 1e9:.3f} ns, analytic_g2 {tau * 1e9:.3f} "
                f"+/- {N_SIGMA * s_tau * 1e9:.3f} ns")
        detail.append(f"g2(0) {got_g0:.3f}, tau {got_tau * 1e9:.2f} ns")
    return ", ".join(detail)


# ---------------------------------------------------------------------------
# pulsed-g2

def _peak_windows(n_bins, bin_width, period, window, max_lag):
    """Window id per histogram bin, as the CLI selects them: 0 central,
    1.. side peaks, -1 none.  Uses the CLI's own float arithmetic."""
    lags = (np.arange(n_bins) - (n_bins - 1) // 2) * bin_width
    k_max = int(math.floor((max_lag - window / 2) / period))
    require(k_max >= 1, "no complete side peak in range")
    win = np.full(n_bins, -1)
    win[np.abs(lags) <= window / 2] = 0
    side = 0
    for k in range(1, k_max + 1):
        for sign in (-1, 1):
            side += 1
            win[np.abs(lags - sign * k * period) <= window / 2] = side
    return win, side


def peak_ratio_bounds(a, b, bin_ps, period, window, bin_width, max_lag):
    """(lowest, highest) central/mean-side ratio the tags allow, and the
    certain central and side counts."""
    max_lag_ps = int(math.floor(max_lag * 1e12))
    n = half_bins(max_lag_ps, bin_ps)
    win, n_side = _peak_windows(2 * n + 1, bin_width, period, window, max_lag)
    sure = np.zeros(n_side + 1, dtype=np.int64)
    maybe = np.zeros(n_side + 1, dtype=np.int64)
    for lag in _pair_lags(a, b, max_lag_ps - 2):
        shifted = 2 * lag + bin_ps
        k = shifted // (2 * bin_ps) + n
        w_hi = win[k]
        w_lo = np.where(shifted % (2 * bin_ps) == 0, win[k - 1], w_hi)
        agree = w_lo == w_hi
        sure += np.bincount(w_hi[agree & (w_hi >= 0)], minlength=n_side + 1)
        for w in (w_hi[~agree], w_lo[~agree]):
            maybe += np.bincount(w[w >= 0], minlength=n_side + 1)
    central_lo, central_hi = sure[0], sure[0] + maybe[0]
    side_lo, side_hi = sure[1:].sum(), sure[1:].sum() + maybe[1:].sum()
    require(side_lo > 0, "side peaks are empty")
    return ((central_lo * n_side / side_hi, central_hi * n_side / side_lo),
            int(central_lo), int(side_lo))


def model_peak_ratio(cfg) -> float:
    """Central/side area ratio of independent triggered emitters:
    sum_{i != j} d_i d_j / (sum_i d_i)^2, d_i the detection probability
    per pulse."""
    d = []
    for mol in cfg.scene.molecules:
        p_exc = 1.0 - math.exp(-pump_rate(mol, cfg.laser, cfg.scene.electrode)
                               * cfg.laser.pulse_width)
        d.append(rate_budget(mol, cfg.detection, p_exc) * mol.lifetime_t1)
    d = np.array(d)
    return float((d.sum() ** 2 - np.square(d).sum()) / d.sum() ** 2)


def check_pulsed_ratio(check, out):
    _, channels = read_ptag(check["tags"])
    period = parse_quantity(check["period"])
    window = parse_quantity(check["window"])
    bin_width = parse_quantity(check["bin_width"])
    got = _read_json(os.path.join(out, "ratio.json"))["ratio"]
    (lo, hi), central, side = peak_ratio_bounds(
        channels[0], channels[1], int(round(bin_width * 1e12)), period, window,
        bin_width, 4.5 * period)
    require(lo * (1 - 1e-12) <= got <= hi * (1 + 1e-12),
            f"ratio {got:.6f}, integer-tick recount {lo:.6f}..{hi:.6f}")
    model = model_peak_ratio(load_config(check["config"]))
    sigma = got * math.sqrt(1.0 / max(central, 1) + 1.0 / side)
    require(abs(got - model) <= N_SIGMA * sigma,
            f"ratio {got:.4f}, model {model:.4f} +/- {N_SIGMA * sigma:.4f}")
    return f"ratio {got:.4f} (model {model:.4f})"


# ---------------------------------------------------------------------------
# hom

def _truncated_exp_weights(pump, width, m=600):
    t = (np.arange(m) + 0.5) * width / m
    w = np.exp(-pump * t)
    return t, w / w.sum()


def hom_prediction(cfg, voltage_b: float):
    """(P(coincidence | both emitted), P(both emitted per pulse)) at a voltage.

    Averages the pairwise coincidence probability 0.5 * (1 - |<a|b>|^2) over
    the excitation times, each exponential truncated to the pulse window.
    The 1 ps vibrational relaxation is neglected (a 1e-4 change of the
    overlap).
    """
    scene_a, scene_b = split_two_source(cfg.scene)
    scene_b = scene_b.with_voltage(voltage_b)
    mol_a, mol_b = scene_a.molecules[0], scene_b.molecules[0]
    laser, width = cfg.laser, cfg.laser.pulse_width
    g_a, g_b = 1.0 / mol_a.lifetime_t1, 1.0 / mol_b.lifetime_t1
    pump_a = pump_rate(mol_a, laser, scene_a.electrode)
    pump_b = pump_rate(mol_b, laser, scene_b.electrode)
    delta = 2 * math.pi * (shifted_center(mol_b, scene_b.electrode)
                           - shifted_center(mol_a, scene_a.electrode))
    t_a, w_a = _truncated_exp_weights(pump_a, width)
    t_b, w_b = _truncated_exp_weights(pump_b, width)
    ta, tb = t_a[:, None], t_b[None, :]
    g_mean = 0.5 * (g_a + g_b)
    overlap = (g_a * g_b * np.exp(g_a * ta + g_b * tb - 2 * g_mean * np.maximum(ta, tb))
               / (g_mean**2 + delta**2))
    overlap = overlap * math.cos(mol_a.polarization_angle - mol_b.polarization_angle) ** 2
    p_coinc = float(w_a @ (0.5 * (1.0 - overlap)) @ w_b)
    p_a = (1.0 - math.exp(-pump_a * width)) * mol_a.zpl_branching
    p_b = (1.0 - math.exp(-pump_b * width)) * mol_b.zpl_branching
    return p_coinc, p_a * p_b


def _check_hom_point(cfg, voltage, p_est, p_err):
    pred, _ = hom_prediction(cfg, voltage)
    require(p_err > 0 and abs(p_est - pred) <= N_SIGMA * p_err,
            f"{voltage:g} V: p = {p_est:.5f}, model {pred:.5f} +/- {N_SIGMA * p_err:.5f}")


def sweep_voltages(text: str) -> np.ndarray:
    start, stop, step = (float(v) for v in text.split(":"))
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def check_hom_sweep(check, out):
    cfg = load_config(check["config"])
    voltages = sweep_voltages(check["sweep"])
    rows = _read_csv(os.path.join(out, "hom_sweep.csv"), "voltage,p_estimate,p_error")
    require(rows.shape == (len(voltages), 3), f"{rows.shape[0]} sweep rows, "
            f"expected {len(voltages)}")
    require(np.allclose(rows[:, 0], voltages), "sweep voltages differ")
    for v, p_est, p_err in rows:
        _check_hom_point(cfg, v, p_est, p_err)
    return f"{len(rows)} points"


def check_hom(check, out):
    cfg = load_config(check["config"])
    r = _read_json(os.path.join(out, "hom.json"))
    require(r["n_pulses"] == check["pulses"] and r["voltage"] == check["voltage"],
            f"hom.json is for {r['n_pulses']} pulses at {r['voltage']} V")
    require(r["both_emitted"] > 0 and _close(r["p_estimate"],
                                             r["coincidences"] / r["both_emitted"]),
            "p_estimate is not coincidences / both_emitted")
    _, p_both = hom_prediction(cfg, check["voltage"])
    mean = check["pulses"] * p_both
    tol = N_SIGMA * math.sqrt(mean * (1.0 - p_both))
    require(abs(r["both_emitted"] - mean) <= tol,
            f"both emitted in {r['both_emitted']} pulses, model {mean:.0f} +/- {tol:.0f}")
    _check_hom_point(cfg, check["voltage"], r["p_estimate"], r["p_error"])
    return f"p = {r['p_estimate']:.4f}"


# ---------------------------------------------------------------------------
# spectroscopy and budget

def check_stark(check, out):
    cfg = load_config(check["config"])
    scene_a, scene_b = split_two_source(cfg.scene)
    summary = _read_json(os.path.join(out, "stark_summary.json"))["rows"]
    step = check["span_hz"] / (check["points"] - 1)
    voltages = sweep_voltages(check["sweep"])
    require([r["voltage"] for r in summary] == voltages.tolist(),
            f"stark rows are not the {check['sweep']} V sweep")
    require(_count_lines(os.path.join(out, "stark.csv")) == 1 + len(voltages) * check["points"],
            "stark.csv row count")
    merge = float(voltages[-1])

    def separation(v):
        b = scene_b.with_voltage(v)
        return abs(shifted_center(b.molecules[0], b.electrode)
                   - shifted_center(scene_a.molecules[0], scene_a.electrode))

    sep0 = summary[0]["separation_hz"]
    require(abs(sep0 - separation(0.0)) <= step,
            f"0 V separation {sep0 / 1e6:.1f} MHz, model {separation(0.0) / 1e6:.1f} MHz")
    linewidth = natural_linewidth(scene_a.molecules[0].lifetime_t1)
    require(separation(merge) < linewidth and not summary[-1]["resolved"],
            f"{merge:g} V: resolved={summary[-1]['resolved']}, model separation "
            f"{separation(merge) / 1e6:.2f} MHz")
    return f"{sep0 / 1e6:.0f} MHz at 0 V, merged at {merge:g} V"


def scan_fwhm_sigma(cfg, check, row: int) -> float:
    """Standard deviation of the CLI's Gaussian-fit FWHM (nm) of one scan row.

    The expected image is ``background`` plus ``brightness`` times each
    molecule's Gaussian spot normalized over the grid; pixel counts are
    Poisson.  The fit is unweighted least squares, so its covariance is the
    sandwich (J'J)^-1 J' diag(mean) J (J'J)^-1 at the true parameters.
    """
    require(len(cfg.scene.molecules) == 1, "scan check needs one molecule")
    grid, pitch = check["grid"], check["pitch_um"]
    k = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    s = check["psf_fwhm_nm"] * 1e-3 * k
    xs = (np.arange(grid) + 0.5) * pitch
    gx, gy = np.meshgrid(xs, xs)
    mean = np.full((grid, grid), check["background"])
    for mol in cfg.scene.molecules:
        spot = np.exp(-0.5 * ((gx - mol.position[0]) ** 2 + (gy - mol.position[1]) ** 2) / s**2)
        mean += check["brightness"] * spot / spot.sum()
    center = cfg.scene.molecules[0].position[0]
    y = mean[row]
    e = np.exp(-0.5 * ((xs - center) / s) ** 2)
    a = float(y.max() - check["background"])
    jac = np.column_stack([a * e * (xs - center) / s**2, a * e * (xs - center) ** 2 / s**3 * k,
                           e, np.ones_like(xs)])
    bread = np.linalg.inv(jac.T @ jac)
    cov = bread @ (jac.T * y) @ jac @ bread
    return math.sqrt(cov[1, 1]) * 1e3


def check_scan(check, out):
    cfg = load_config(check["config"])
    r = _read_json(os.path.join(out, "scan.json"))
    grid = check["grid"]
    with open(os.path.join(out, "scan.pgm")) as fh:
        lines = fh.read().split("\n")
    require(lines[:3] == ["P2", f"{grid} {grid}", "65535"]
            and all(len(line.split()) == grid for line in lines[3:3 + grid]),
            "scan.pgm is not a complete grid image")
    levels = np.array([line.split() for line in lines[3:3 + grid]], dtype=np.int64)
    # the CLI fits the row through the brightest pixel
    row = int(np.unravel_index(np.argmax(levels), levels.shape)[0])
    fwhm = r["fit"]["fwhm_nm"]
    tol = N_SIGMA * scan_fwhm_sigma(cfg, check, row)
    require(abs(fwhm - check["psf_fwhm_nm"]) <= tol,
            f"scan FWHM {fwhm:.1f} nm, PSF {check['psf_fwhm_nm']} nm +/- {tol:.1f} nm")
    return f"FWHM {fwhm:.1f} nm"


def check_spectrum(check, out):
    cfg = load_config(check["config"])
    rows = _read_csv(os.path.join(out, "spectrum.csv"), "axis,value")
    axis = np.linspace(-check["span_hz"] / 2, check["span_hz"] / 2, check["points"])
    require(rows.shape == (len(axis), 2) and np.allclose(rows[:, 0], axis),
            "spectrum axis differs")
    require(len(cfg.scene.molecules) == 1, "spectrum check needs one molecule")
    mol, det = cfg.scene.molecules[0], cfg.detection
    step = axis[1] - axis[0]
    values = rows[:, 1]
    peak = int(np.argmax(values))
    center = shifted_center(mol, cfg.scene.electrode)
    require(abs(axis[peak] - center) <= step, f"peak at {axis[peak]:.4g} Hz, model {center:.4g}")
    height = (mol.zpl_branching * det.collection_efficiency * det.zpl_filter_transmission
              * det.fiber_coupling)
    require(_close(values[peak], height, rtol=1e-3),
            f"peak {values[peak]:.6g}, model {height:.6g}")
    above = np.flatnonzero(values >= 0.5 * values[peak])
    fwhm = (above[-1] - above[0]) * step
    lo = natural_linewidth(mol.lifetime_t1)
    hi = lo + cfg.laser.laser_linewidth
    require(lo - 2 * step <= fwhm <= hi + 2 * step,
            f"FWHM {fwhm / 1e6:.2f} MHz, model {lo / 1e6:.2f}..{hi / 1e6:.2f} MHz")
    return f"FWHM {fwhm / 1e6:.2f} MHz"


def check_budget(check, out):
    cfg = load_config(check["config"])
    r = _read_json(os.path.join(out, "budget.json"))
    mol = cfg.scene.molecules[0]
    pump = pump_rate(mol, cfg.laser, cfg.scene.electrode)
    p_e = steady_state(pump, DEFAULT_K_VIB, 1.0 / mol.lifetime_t1)[2]
    rate = rate_budget(mol, cfg.detection, p_e)
    for key, want in (("pump_rate_hz", pump), ("p_excited", p_e),
                      ("detected_zpl_rate_hz", rate)):
        require(_close(r[key], want, rtol=1e-12), f"{key} = {r[key]!r}, model {want!r}")
    return f"{rate:.4g} /s"


CHECKS = {
    "simulate": check_simulate, "correlate": check_correlate,
    "pulsed_ratio": check_pulsed_ratio, "hom_sweep": check_hom_sweep,
    "hom": check_hom, "stark": check_stark, "scan": check_scan,
    "spectrum": check_spectrum, "budget": check_budget,
}


def run_check(check: dict, out: str) -> tuple[bool, str]:
    """(passed, detail) for one command's outputs."""
    try:
        return True, CHECKS[check["kind"]](check, out)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError,
            json.JSONDecodeError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = _read_json(argv[0])
    verdicts = []
    for cmd in spec["commands"]:
        if cmd["exit_code"] != 0:
            verdicts.append({"label": cmd["label"], "ok": False,
                             "detail": f"exit code {cmd['exit_code']}"})
            continue
        ok, detail = run_check(cmd["check"], cmd["out"])
        verdicts.append({"label": cmd["label"], "ok": ok, "detail": detail})
    print(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
