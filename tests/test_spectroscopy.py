import math

import numpy as np
import pytest

from zplsim import (InsufficientDataError, MoleculeSpec,
                    PhysicsError, SceneSpec, Spectrum, confocal_scan,
                    emission_spectrum, excitation_spectrum, fit_gaussian,
                    fit_lorentzian, natural_linewidth, peak_separation,
                    pgm_text, scan_cross_section, stark_scan)
from zplsim.errors import FitConvergenceError

LINEWIDTH = natural_linewidth(9.4e-9)  # 16.93 MHz


def one_molecule_scene(**kwargs):
    return SceneSpec(molecules=(MoleculeSpec(id=1, **kwargs),))


class TestExcitationSpectrum:
    def test_linewidth_is_fourier_limited(self):
        axis = np.linspace(-200e6, 200e6, 2001)
        spec = excitation_spectrum(one_molecule_scene(), axis)
        fit = fit_lorentzian(spec)
        assert fit.center == pytest.approx(0.0, abs=1e4)
        assert fit.fwhm == pytest.approx(LINEWIDTH, rel=1e-6)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_saturation_broadening(self, s):
        axis = np.linspace(-400e6, 400e6, 4001)
        fit = fit_lorentzian(excitation_spectrum(one_molecule_scene(), axis, saturation_s=s))
        assert fit.fwhm == pytest.approx(LINEWIDTH * math.sqrt(1 + s), rel=1e-6)

    def test_laser_linewidth_smear(self):
        axis = np.linspace(-400e6, 400e6, 4001)
        smeared = excitation_spectrum(one_molecule_scene(), axis,
                                      laser_linewidth=10e6)
        half = 0.5 * smeared.values.max()
        above = axis[smeared.values >= half]
        fwhm = float(above.max() - above.min())
        # Olivero-Longbothum approximation of the Voigt width
        approx = 0.5346 * LINEWIDTH + math.sqrt(0.2166 * LINEWIDTH**2 + (10e6) ** 2)
        assert fwhm > LINEWIDTH
        assert fwhm == pytest.approx(approx, rel=0.03)

    def test_two_lines_at_180mhz(self):
        scene = SceneSpec(molecules=(MoleculeSpec(id=1, zpl_center=0.0),
                                     MoleculeSpec(id=2, zpl_center=180e6)))
        axis = np.linspace(-400e6, 580e6, 1963)
        result = peak_separation(excitation_spectrum(scene, axis))
        assert result.separation == pytest.approx(180e6, abs=1e6)
        assert result.resolved
        assert result.fwhm == pytest.approx(LINEWIDTH, rel=0.05)

    def test_merged_lines_not_resolved(self):
        scene = SceneSpec(molecules=(MoleculeSpec(id=1, zpl_center=0.0),
                                     MoleculeSpec(id=2, zpl_center=5e6)))
        axis = np.linspace(-200e6, 200e6, 2001)
        assert not peak_separation(excitation_spectrum(scene, axis)).resolved


class TestEmissionSpectrum:
    def test_total_weight_is_one(self):
        spec = emission_spectrum(MoleculeSpec(id=1))
        assert np.trapezoid(spec.values, spec.axis) == pytest.approx(1.0, rel=1e-3)

    def test_zpl_carries_branching_fraction(self):
        spec = emission_spectrum(MoleculeSpec(id=1, zpl_branching=0.3))
        near_zpl = np.abs(spec.axis) < 1.5e12
        weight = np.trapezoid(spec.values[near_zpl], spec.axis[near_zpl])
        assert weight == pytest.approx(0.3, rel=1e-3)

    def test_red_shifted_sidebands_only(self):
        spec = emission_spectrum(MoleculeSpec(id=1))
        blue = spec.axis > 1.5e12
        assert np.trapezoid(spec.values[blue], spec.axis[blue]) < 1e-6

    def test_pure_zpl_when_branching_is_one(self):
        spec = emission_spectrum(MoleculeSpec(id=1, zpl_branching=1.0))
        fit = fit_gaussian(spec)
        assert fit.center == pytest.approx(0.0, abs=1e9)
        assert fit.fwhm == pytest.approx(200e9, rel=1e-3)


class TestStarkScan:
    def scenes(self):
        mol_a = MoleculeSpec(id=1, zpl_center=0.0)
        mol_b = MoleculeSpec(id=2, zpl_center=180e6, stark_linear=77.142857)
        return SceneSpec(molecules=(mol_a,)), SceneSpec(molecules=(mol_b,))

    def test_separation_closes_linearly(self):
        scene_a, scene_b = self.scenes()
        voltages = [0.0, 10.0, 21.0, 42.0]
        rows, seps = stark_scan(scene_a, scene_b, voltages)
        assert len(rows) == len(seps) == 4
        expected = [180e6, 180e6 * (1 - 10 / 42), 90e6, 0.0]
        for sep, exp in zip(seps, expected):
            assert sep.separation == pytest.approx(exp, abs=2e6)
        assert seps[0].resolved and seps[2].resolved
        assert not seps[3].resolved

    def test_rows_hold_both_lines(self):
        scene_a, scene_b = self.scenes()
        rows, _ = stark_scan(scene_a, scene_b, [0.0])
        peak_height = rows[0].values.max()
        # merged case doubles the height
        merged, _ = stark_scan(scene_a, scene_b, [42.0])
        assert merged[0].values.max() == pytest.approx(2 * peak_height, rel=0.01)


class TestConfocalScan:
    def test_noiseless_spot_size_and_position(self):
        scene = one_molecule_scene(position=(1.25, 1.25))
        img = confocal_scan(scene, psf_fwhm_nm=330.0, grid=(50, 50),
                            pixel_pitch_um=0.05, brightness=2e5, background=0.0)
        x, row = scan_cross_section(img)
        fit = fit_gaussian(x, row)
        assert fit.center == pytest.approx(1.25, abs=0.01)
        assert fit.fwhm * 1000 == pytest.approx(330.0, abs=5.0)

    def test_poisson_noise_unbiased(self):
        scene = one_molecule_scene(position=(1.25, 1.25))
        widths = []
        for seed in range(30):
            img = confocal_scan(scene, 330.0, (50, 50), 0.05, brightness=2e5,
                                background=20.0, seed=seed)
            x, row = scan_cross_section(img)
            widths.append(fit_gaussian(x, row).fwhm * 1000)
        assert np.mean(widths) == pytest.approx(330.0, rel=0.02)

    def test_background_level(self):
        img = confocal_scan(SceneSpec(), 330.0, (20, 20), 0.1, background=7.5)
        assert np.all(img.values == 7.5)

    def test_integrated_brightness(self):
        scene = one_molecule_scene(position=(1.25, 1.25))
        img = confocal_scan(scene, 330.0, (50, 50), 0.05, brightness=2e5)
        assert img.values.sum() == pytest.approx(2e5, rel=1e-6)

    def test_seeded_noise_deterministic(self):
        scene = one_molecule_scene(position=(0.5, 0.5))
        a = confocal_scan(scene, 330.0, (10, 10), 0.1, seed=3)
        b = confocal_scan(scene, 330.0, (10, 10), 0.1, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_rejects_bad_grid(self):
        with pytest.raises(PhysicsError):
            confocal_scan(SceneSpec(), 330.0, (0, 10), 0.1)


class TestPeakFits:
    def test_gaussian_recovery(self):
        x = np.linspace(-5, 5, 201)
        y = 1.5 + 4.0 * np.exp(-0.5 * ((x - 0.7) / (2.0 / 2.3548200450309493)) ** 2)
        fit = fit_gaussian(x, y)
        assert fit.center == pytest.approx(0.7, abs=1e-6)
        assert fit.fwhm == pytest.approx(2.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(4.0, rel=1e-6)
        assert fit.offset == pytest.approx(1.5, rel=1e-6)

    def test_lorentzian_recovery(self):
        x = np.linspace(-5, 5, 201)
        y = 0.2 + 3.0 * 1.0 / (1.0 + ((x + 1.2) / 1.0) ** 2)
        fit = fit_lorentzian(x, y)
        assert fit.center == pytest.approx(-1.2, abs=1e-6)
        assert fit.fwhm == pytest.approx(2.0, rel=1e-6)

    def test_noisy_fit_low_bias(self):
        x = np.linspace(-200e6, 200e6, 801)
        clean = 1.0 / (1.0 + (x / (LINEWIDTH / 2)) ** 2)
        widths = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = clean + rng.normal(0, 0.05, len(x))
            widths.append(fit_lorentzian(x, y).fwhm)
        assert np.mean(widths) == pytest.approx(LINEWIDTH, rel=0.02)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_lorentzian(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))

    def test_zero_span_rejected(self):
        x = np.zeros(8)
        y = np.ones(8)
        with pytest.raises(InsufficientDataError):
            fit_lorentzian(x, y)

    @pytest.mark.parametrize("fit", [fit_lorentzian, fit_gaussian])
    def test_flat_data_does_not_converge(self, fit):
        # no peak: the width and center do not move the model, so the
        # normal equations are singular
        with pytest.raises(FitConvergenceError):
            fit(np.linspace(-5, 5, 50), np.ones(50))

    def test_accepts_spectrum_object(self):
        x = np.linspace(-5, 5, 101)
        spec = Spectrum(x, np.exp(-0.5 * x**2))
        assert fit_gaussian(spec).center == pytest.approx(0.0, abs=1e-9)


class TestPgm:
    def test_header_and_scaling(self):
        from zplsim.spectroscopy import ScanImage
        img = ScanImage(np.array([[0.0, 2.0], [1.0, 4.0]]), 0.1)
        lines = pgm_text(img).strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "65535"
        assert lines[3] == "0 32768"
        assert lines[4] == "16384 65535"

    def test_all_zero_image(self):
        from zplsim.spectroscopy import ScanImage
        img = ScanImage(np.zeros((2, 3)), 0.1)
        lines = pgm_text(img).strip().split("\n")
        assert lines[3] == "0 0 0"
