"""End-to-end acceptance checks.

Each test covers one headline capability and prints a single PASS/FAIL line
to the real stdout so the verdicts survive pytest's output capture.
"""

import math
import sys

import numpy as np
from scipy import integrate

from correlator_oracle import brute_force_coincidences
from zplsim import (DetectionSpec, LaserSpec, MoleculeSpec, SceneSpec,
                    apply_detection, confocal_scan, correlate,
                    diffraction_fwhm, excitation_spectrum,
                    fit_antibunching, fit_gaussian, fit_lorentzian,
                    natural_linewidth, normalize_g2, pulsed_peak_ratio,
                    pump_for_excited_population, pump_rate, rate_budget,
                    scan_cross_section, shifted_center, simulate_hom,
                    simulate_stream, split_two_source, stark_calibrate,
                    stark_scan, steady_state)
from zplsim.cli import main as cli_main
from zplsim.config import load_config

GAMMA = 1 / 9.4e-9
PUMP_81 = 1 / 8.1e-9 - GAMMA

CLEAN_DETECTION = DetectionSpec(dead_time=0.0)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:2d} [{verdict}] {label}{suffix}", file=sys.__stdout__)
    assert ok, f"{label}{suffix}"


def hbt_g2(scene, laser, duration, seed, bin_width=250e-12, max_lag=100e-9):
    photons = simulate_stream(scene, laser, duration, seed)
    tags = apply_detection(photons, CLEAN_DETECTION, split="hbt", seed=seed)
    hist = correlate(tags.channel_times(0), tags.channel_times(1),
                     bin_width, max_lag, duration=duration)
    n_detected = sum(len(c) for c in tags.channels.values())
    return normalize_g2(hist), n_detected


def test_criterion_01_fourier_limit():
    fwhm = natural_linewidth(9.4e-9)
    ok = (abs(fwhm - 16.93e6) < 0.01e6) and (16.1e6 < fwhm < 18.9e6)
    report(1, "Fourier-limited linewidth of a 9.4 ns lifetime",
           ok, f"{fwhm / 1e6:.3f} MHz")


def test_criterion_02_cw_antibunching_clean():
    scene = SceneSpec(molecules=(MoleculeSpec(id=1, zpl_branching=1.0),))
    laser = LaserSpec(mode="cw", frequency=40e12, cw_peak_pump_rate=PUMP_81)
    g2, n_detected = hbt_g2(scene, laser, duration=0.08, seed=101)
    fit = fit_antibunching(g2)
    ok = (n_detected >= 1_000_000 and fit.g2_zero < 0.05
          and abs(fit.decay_time_s - 8.1e-9) <= 0.05 * 8.1e-9)
    report(2, "cw antibunching: g2(0) < 0.05, decay 8.1 ns +/- 5%", ok,
           f"n={n_detected}, g2(0)={fit.g2_zero:.4f}, "
           f"decay={fit.decay_time_s * 1e9:.3f} ns")


def test_criterion_03_residual_g2_mixture():
    # neighbor pumped so its intensity fraction is 0.2172, giving
    # 2 f (1 - f) = 0.34 at zero lag
    fraction = 0.2172
    p_e_a = steady_state(PUMP_81, 1e12, GAMMA)[2]
    p_e_b = p_e_a * fraction / (1.0 - fraction)
    pump_b = pump_for_excited_population(p_e_b, GAMMA)
    # place the neighbor's pump line so the shared laser drives it at pump_b
    detuning = 15e9 * math.sqrt(PUMP_81 / pump_b - 1.0)
    scene = SceneSpec(molecules=(
        MoleculeSpec(id=1, zpl_center=0.0, zpl_branching=1.0),
        MoleculeSpec(id=2, zpl_center=detuning, zpl_branching=1.0),
    ))
    laser = LaserSpec(mode="cw", frequency=40e12, cw_peak_pump_rate=PUMP_81)
    g2, _ = hbt_g2(scene, laser, duration=0.1, seed=103)
    fit = fit_antibunching(g2)
    ok = abs(fit.g2_zero - 0.34) <= 0.03
    report(3, "two-emitter residual g2(0) = 0.34 +/- 0.03", ok,
           f"g2(0)={fit.g2_zero:.4f}")


def test_criterion_04_pulsed_peak_ratio(config_dir):
    cfg = load_config(str(config_dir / "fig4b.ini"))
    n_pulses = 1_000_000
    duration = n_pulses * cfg.laser.pulse_period

    def ratio_for(scene, laser, seed):
        photons = simulate_stream(scene, laser, duration, seed)
        tags = apply_detection(photons, CLEAN_DETECTION, split="hbt", seed=seed)
        hist = correlate(tags.channel_times(0), tags.channel_times(1),
                         bin_width=1e-9, max_lag=4.5 * laser.pulse_period,
                         duration=duration)
        return pulsed_peak_ratio(hist, laser.pulse_period, 100e-9)

    ratio = ratio_for(cfg.scene, cfg.laser, seed=104)
    control = ratio_for(cfg.scene.single_molecule(0), cfg.laser, seed=105)
    ok = abs(ratio - 0.44) <= 0.04 and control < 0.02
    report(4, "pulsed central/side peak ratio 0.44 +/- 0.04; clean control < 0.02",
           ok, f"ratio={ratio:.4f}, control={control:.4f}")


def test_criterion_05_correlator_oracle():
    ok = True
    detail = ""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(0, 300))
        n_b = int(rng.integers(0, 300))
        a = np.sort(rng.random(n_a) * 1e-4)
        b = np.sort(rng.random(n_b) * 1e-4)
        bw = float(rng.uniform(0.5e-9, 5e-9))
        lag = bw * float(rng.uniform(5, 50))
        fast = correlate(a, b, bw, lag)
        slow = brute_force_coincidences(a, b, bw, lag)
        if not np.array_equal(fast.bins, slow.bins):
            ok = False
            detail = f"mismatch at seed {seed}"
            break
    report(5, "correlate matches the exhaustive oracle on 100 random streams",
           ok, detail or "bin-exact")


def test_criterion_06_stark_merge(config_dir):
    cfg = load_config(str(config_dir / "fig5a.ini"))
    scene_a, scene_b = split_two_source(cfg.scene)
    coeff = stark_calibrate(180e6, 42.0, 18e-6)
    coeff_ok = abs(scene_b.molecules[0].stark_linear - coeff) < 1e-3 * coeff
    voltages = list(range(0, 43, 6))
    _, seps = stark_scan(scene_a, scene_b, voltages)
    step = 800e6 / 800  # default 801-point axis over 800 MHz
    sep0_ok = abs(seps[0].separation - 180e6) <= step
    merged_ok = not seps[-1].resolved
    values = [s.separation for s in seps]
    monotone_ok = all(x >= y for x, y in zip(values, values[1:]))
    ok = coeff_ok and sep0_ok and merged_ok and monotone_ok
    report(6, "Stark scan: 180 MHz at 0 V, monotone closure, merged at 42 V",
           ok, f"separations={[f'{v / 1e6:.0f}' for v in values]} MHz")


def _hom_prediction(scene_a, scene_b, laser, voltage_b):
    """Conditional coincidence probability averaged over the kinetic timing."""
    scene_b = scene_b.with_voltage(voltage_b)
    mol_a, mol_b = scene_a.molecules[0], scene_b.molecules[0]
    gamma = 1.0 / mol_a.lifetime_t1
    delta = 2 * math.pi * (shifted_center(mol_b, scene_b.electrode)
                           - shifted_center(mol_a, scene_a.electrode))
    lorentz = gamma * gamma / (gamma * gamma + delta * delta)
    width = laser.pulse_width

    def trunc_exp_pdf(t, p):
        return p * math.exp(-p * t) / (1.0 - math.exp(-p * width))

    p_a = pump_rate(mol_a, laser, scene_a.electrode)
    p_b = pump_rate(mol_b, laser, scene_b.electrode)
    decay_avg, _ = integrate.dblquad(
        lambda t2, t1: (trunc_exp_pdf(t1, p_a) * trunc_exp_pdf(t2, p_b)
                        * math.exp(-gamma * abs(t1 - t2))),
        0.0, width, 0.0, width, epsabs=1e-10, epsrel=1e-10)
    return 0.5 * (1.0 - lorentz * decay_avg)


def test_criterion_07_hom_consistency(config_dir):
    from zplsim import Wavepacket, wavepacket_overlap
    a = Wavepacket(GAMMA)
    b = Wavepacket(GAMMA, carrier=180e6)
    closed = wavepacket_overlap(a, b)

    def integrand_re(t):
        return (np.conj(a.amplitude(t)) * b.amplitude(t)).real

    def integrand_im(t):
        return (np.conj(a.amplitude(t)) * b.amplitude(t)).imag

    kw = dict(limit=400, epsabs=1e-13, epsrel=1e-13)
    re = integrate.quad(integrand_re, 0, 30 / GAMMA, **kw)[0]
    im = integrate.quad(integrand_im, 0, 30 / GAMMA, **kw)[0]
    numeric = re * re + im * im
    overlap_ok = abs(closed - numeric) < 1e-6 and abs(closed - 0.00876) < 1e-4

    cfg = load_config(str(config_dir / "fig5a.ini"))
    scene_a, scene_b = split_two_source(cfg.scene)
    mc_ok = True
    details = [f"overlap={closed:.6f}"]
    for voltage in (0.0, 42.0):
        r = simulate_hom(scene_a, scene_b, cfg.laser, 1_000_000,
                         0.0, voltage, seed=107)
        predicted = _hom_prediction(scene_a, scene_b, cfg.laser, voltage)
        details.append(f"{voltage:.0f}V: {r.p_estimate:.4f} vs {predicted:.4f}")
        if abs(r.p_estimate - predicted) > 3 * r.p_error:
            mc_ok = False
    report(7, "HOM overlap matches quadrature; Monte Carlo within 3 SE",
           overlap_ok and mc_ok, "; ".join(details))


def test_criterion_08_resolution(config_dir):
    limit = diffraction_fwhm(590.0, 1.12)
    limit_ok = abs(limit - 268.7) < 0.1
    cfg = load_config(str(config_dir / "fig3b.ini"))
    img = confocal_scan(cfg.scene, psf_fwhm_nm=330.0, grid=(50, 50),
                        pixel_pitch_um=0.05, brightness=2e5, background=20.0,
                        seed=108)
    x, profile = scan_cross_section(img)
    fwhm_nm = fit_gaussian(x, profile).fwhm * 1e3
    fit_ok = abs(fwhm_nm - 330.0) <= 5.0
    report(8, "diffraction limit 268.7 nm; scanned 330 nm spot recovered +/- 5 nm",
           limit_ok and fit_ok, f"limit={limit:.1f} nm, fit={fwhm_nm:.1f} nm")


def test_criterion_09_saturation_law():
    scene = SceneSpec(molecules=(MoleculeSpec(id=1),))
    base = natural_linewidth(9.4e-9)
    axis = np.linspace(-300e6, 300e6, 6001)
    ok = True
    ratios = []
    for s in (0.0, 1.0, 3.0, 8.0):
        fwhm = fit_lorentzian(excitation_spectrum(scene, axis, saturation_s=s)).fwhm
        ratio = fwhm / base
        ratios.append(f"s={s:g}: {ratio:.4f}")
        if abs(ratio - math.sqrt(1 + s)) > 0.01 * math.sqrt(1 + s):
            ok = False
    report(9, "power broadening follows sqrt(1+s) within 1%", ok, ", ".join(ratios))


def test_criterion_10_brightness_budget():
    det = DetectionSpec(collection_efficiency=0.2, zpl_filter_transmission=0.5,
                        fiber_coupling=0.3, dead_time=0.0)
    p_e = steady_state(PUMP_81, 1e12, GAMMA)[2]
    rate = rate_budget(MoleculeSpec(id=1), det, p_e)
    ok = rate >= 1e5
    report(10, "detected ZPL budget exceeds 1e5 photons/s", ok,
           f"{rate:.3e} /s at p_e={p_e:.4f}")


def test_criterion_11_determinism(config_dir, tmp_path):
    fixtures = ("fig2b.ini", "fig3b.ini", "fig4a.ini", "fig4b.ini", "fig5a.ini")
    ok = True
    checked = 0
    for name in fixtures:
        config = str(config_dir / name)
        for fmt, fname in (("bin", "tags.ptag"), ("csv", "tags.csv")):
            outputs = []
            for run in ("first", "second"):
                out = tmp_path / f"{name}-{fmt}-{run}"
                code = cli_main(["simulate", "--config", config,
                                 "--duration", "2 ms", "--seed", "42",
                                 "--format", fmt, "--out", str(out)])
                assert code == 0, f"simulate failed for {name}"
                outputs.append(out)
            for artifact in (fname, "truth.csv"):
                first = (outputs[0] / artifact).read_bytes()
                second = (outputs[1] / artifact).read_bytes()
                checked += 1
                if first != second:
                    ok = False
    report(11, "bit-identical tag and truth outputs across reruns of every fixture",
           ok, f"{checked} artifact pairs compared")
