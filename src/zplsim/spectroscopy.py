"""Synthetic spectroscopic observables and their peak fits.

Excitation spectra (power-broadened Lorentzians smeared by the laser
linewidth), emission line lists, Stark voltage maps with a peak-separation
metric, and confocal scan images with Poisson pixel noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, InsufficientDataError, PhysicsError
from .model import (DetectionSpec, MoleculeSpec, SceneSpec, lorentzian,
                    natural_linewidth, shifted_center)

_GAUSS_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

#: Placeholder red-shifted vibronic emission lines as (offset_hz, relative
#: weight); the real positions are sample-specific and not modeled.
DEFAULT_VIBRONIC_LINES = ((-7.5e12, 0.40), (-16.0e12, 0.35), (-37.0e12, 0.25))


@dataclass
class Spectrum:
    """Intensity vs frequency axis (Hz offsets from the scene reference)."""

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.axis.shape != self.values.shape:
            raise PhysicsError("axis and values must have equal length")
        if len(self.axis) > 1 and not np.all(np.diff(self.axis) > 0):
            raise PhysicsError("axis must be strictly increasing")
        if np.any(self.values < 0):
            raise PhysicsError("intensities must be >= 0")


@dataclass
class ScanImage:
    """Confocal image: counts per pixel on a square-pixel grid."""

    values: np.ndarray
    pixel_pitch: float  # micrometers

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise PhysicsError("image must be a 2-D array")
        if not np.all(np.isfinite(self.values)):
            raise PhysicsError("image values must be finite")

    @property
    def grid(self) -> tuple[int, int]:
        return (self.values.shape[1], self.values.shape[0])


def _peak_normalized_line(detuning: np.ndarray, lorentz_fwhm: float,
                          gauss_fwhm: float) -> np.ndarray:
    if gauss_fwhm <= 0:
        return lorentzian(detuning, lorentz_fwhm)
    from scipy.special import voigt_profile  # imported on use; see _fit_peak
    sigma = gauss_fwhm * _GAUSS_FWHM_TO_SIGMA
    gamma = 0.5 * lorentz_fwhm
    profile = voigt_profile(detuning, sigma, gamma)
    return profile / voigt_profile(0.0, sigma, gamma)


def excitation_spectrum(scene: SceneSpec, axis, saturation_s: float = 0.0,
                        laser_linewidth: float = 0.0,
                        detection: DetectionSpec | None = None) -> Spectrum:
    """Fluorescence-excitation spectrum of all molecules in the scene.

    Each line is a Lorentzian of FWHM natural_linewidth * sqrt(1 + s) at the
    Stark-shifted center, smeared by the Gaussian laser linewidth.
    """
    axis = np.asarray(axis, dtype=np.float64)
    if saturation_s < 0:
        raise PhysicsError("saturation parameter must be >= 0")
    chain = 1.0
    if detection is not None:
        chain = (detection.collection_efficiency * detection.zpl_filter_transmission
                 * detection.fiber_coupling)
    values = np.zeros_like(axis)
    broadening = math.sqrt(1.0 + saturation_s)
    for mol in scene.molecules:
        center = shifted_center(mol, scene.electrode)
        fwhm = natural_linewidth(mol.lifetime_t1) * broadening
        values += (mol.zpl_branching * chain
                   * _peak_normalized_line(axis - center, fwhm, laser_linewidth))
    return Spectrum(axis, values)


def emission_spectrum(mol: MoleculeSpec, axis=None,
                      vibronic_lines=DEFAULT_VIBRONIC_LINES,
                      spectrometer_fwhm: float = 200.0e9,
                      electrode=None) -> Spectrum:
    """Emission line list rendered at a finite spectrometer resolution.

    The 0-0 line carries the branching fraction; the configured red-shifted
    lines share the remainder.  Total integrated weight is 1.
    """
    center = mol.zpl_center if electrode is None else shifted_center(mol, electrode)
    rel = np.array([w for _, w in vibronic_lines], dtype=np.float64)
    offsets = np.array([o for o, _ in vibronic_lines], dtype=np.float64)
    lines = [(center, mol.zpl_branching)]
    if mol.zpl_branching < 1.0 and len(rel):
        weights = rel / rel.sum() * (1.0 - mol.zpl_branching)
        lines += [(center + o, w) for o, w in zip(offsets, weights)]
    if axis is None:
        lo = min(f for f, _ in lines) - 6 * spectrometer_fwhm
        hi = max(f for f, _ in lines) + 6 * spectrometer_fwhm
        axis = np.linspace(lo, hi, 4096)
    axis = np.asarray(axis, dtype=np.float64)
    sigma = spectrometer_fwhm * _GAUSS_FWHM_TO_SIGMA
    values = np.zeros_like(axis)
    for f, w in lines:
        values += w / (sigma * math.sqrt(2 * math.pi)) * np.exp(
            -0.5 * np.square((axis - f) / sigma))
    return Spectrum(axis, values)


@dataclass
class PeakSeparation:
    """Separation of the two dominant maxima of one spectrum row."""

    separation: float
    resolved: bool
    fwhm: float


def _local_linewidth(spec: Spectrum, smoothed: np.ndarray) -> float:
    """Fitted FWHM of the tallest line, using only samples near that peak."""
    i_max = int(np.argmax(smoothed))
    base = float(smoothed.min())
    half = base + 0.5 * (smoothed[i_max] - base)
    lo = i_max
    while lo > 0 and smoothed[lo - 1] >= half:
        lo -= 1
    hi = i_max
    while hi < len(smoothed) - 1 and smoothed[hi + 1] >= half:
        hi += 1
    pad = max(hi - lo, 2)
    lo = max(lo - pad, 0)
    hi = min(hi + pad, len(smoothed) - 1)
    try:
        return fit_lorentzian(spec.axis[lo:hi + 1], spec.values[lo:hi + 1]).fwhm
    except (FitConvergenceError, InsufficientDataError):
        return math.inf


def peak_separation(spec: Spectrum, smooth_steps: int = 3) -> PeakSeparation:
    """Distance between the two largest local maxima after light smoothing.

    The row counts as resolved only when two maxima exist and are farther
    apart than one fitted linewidth.
    """
    v = np.convolve(spec.values, np.ones(smooth_steps) / smooth_steps, mode="same")
    interior = np.arange(1, len(v) - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] >= v[interior + 1])
    peaks = interior[is_max]
    fwhm = _local_linewidth(spec, v)
    if len(peaks) < 2:
        return PeakSeparation(0.0, False, fwhm)
    top_two = peaks[np.argsort(v[peaks])[-2:]]
    separation = abs(float(spec.axis[top_two[1]] - spec.axis[top_two[0]]))
    return PeakSeparation(separation, separation > fwhm, fwhm)


def stark_scan(scene_a: SceneSpec, scene_b: SceneSpec, voltages, axis=None,
               saturation_s: float = 0.0, laser_linewidth: float = 0.0
               ) -> tuple[list[Spectrum], list[PeakSeparation]]:
    """Overlaid excitation spectra of both microscopes per applied voltage.

    The voltage is applied to microscope B only; microscope A keeps its own
    electrode setting.  Returns one overlaid row and one separation metric
    per voltage.
    """
    if axis is None:
        axis = np.linspace(-400.0e6, 400.0e6, 801)
    rows, separations = [], []
    for v in voltages:
        spec_a = excitation_spectrum(scene_a, axis, saturation_s, laser_linewidth)
        spec_b = excitation_spectrum(scene_b.with_voltage(float(v)), axis,
                                     saturation_s, laser_linewidth)
        row = Spectrum(np.asarray(axis), spec_a.values + spec_b.values)
        rows.append(row)
        separations.append(peak_separation(row))
    return rows, separations


def confocal_scan(scene: SceneSpec, psf_fwhm_nm: float, grid: tuple[int, int],
                  pixel_pitch_um: float, brightness: float = 1.0e5,
                  background: float = 0.0, seed: int | None = None) -> ScanImage:
    """Confocal image: Gaussian spots at the molecule positions plus background.

    ``brightness`` is the expected integrated count per molecule and
    ``background`` the expected count per pixel; with a seed, pixel values
    are Poisson draws around that expectation.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise PhysicsError("grid dimensions must be positive")
    if psf_fwhm_nm <= 0 or pixel_pitch_um <= 0:
        raise PhysicsError("psf_fwhm and pixel pitch must be > 0")
    x = (np.arange(nx) + 0.5) * pixel_pitch_um
    y = (np.arange(ny) + 0.5) * pixel_pitch_um
    xx, yy = np.meshgrid(x, y)
    sigma_um = psf_fwhm_nm * 1e-3 * _GAUSS_FWHM_TO_SIGMA
    mean = np.full((ny, nx), float(background))
    for mol in scene.molecules:
        mx, my = mol.position
        spot = np.exp(-0.5 * ((xx - mx) ** 2 + (yy - my) ** 2) / sigma_um**2)
        total = spot.sum()
        if total > 0:
            mean += brightness * spot / total
    if seed is None:
        return ScanImage(mean, pixel_pitch_um)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ScanImage(rng.poisson(mean).astype(np.float64), pixel_pitch_um)


@dataclass
class PeakFit:
    """Least-squares peak parameters with the fit residual norm."""

    center: float
    fwhm: float
    amplitude: float
    offset: float
    residual_norm: float


def _fit_peak(x, y, shape: str) -> PeakFit:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 5:
        raise InsufficientDataError("need at least 5 samples spanning the peak")
    span = float(x.max() - x.min())
    if span <= 0:
        raise InsufficientDataError("samples do not span a peak")

    offset0 = float(y.min())
    amp0 = float(y.max() - y.min())
    center0 = float(x[np.argmax(y)])
    above = x[y > offset0 + 0.5 * amp0]
    fwhm0 = float(above.max() - above.min()) if len(above) > 1 else span / 4
    fwhm0 = max(fwhm0, span / len(x))

    if shape == "lorentzian":
        def model(x, c, w, a, o):
            return o + a * (w / 2) ** 2 / ((w / 2) ** 2 + (x - c) ** 2)
    else:
        def model(x, c, w, a, o):
            s = w * _GAUSS_FWHM_TO_SIGMA
            return o + a * np.exp(-0.5 * ((x - c) / s) ** 2)

    # scipy is imported here, not at module top, so that commands which never
    # fit do not pay its import time
    from scipy.optimize import curve_fit
    try:
        popt, _ = curve_fit(model, x, y, p0=(center0, fwhm0, amp0, offset0),
                            maxfev=20_000)
    except RuntimeError as exc:
        raise FitConvergenceError(f"{shape} fit did not converge: {exc}") from exc
    center, fwhm, amp, offset = (float(v) for v in popt)
    fwhm = abs(fwhm)
    if fwhm > 10 * span:
        raise InsufficientDataError("samples do not span the fitted peak width")
    residual = float(np.linalg.norm(y - model(x, *popt)))
    return PeakFit(center, fwhm, amp, offset, residual)


def fit_lorentzian(x, y=None) -> PeakFit:
    """Fit offset + Lorentzian; accepts a Spectrum or (axis, values) arrays."""
    if y is None:
        x, y = x.axis, x.values
    return _fit_peak(x, y, "lorentzian")


def fit_gaussian(x, y=None) -> PeakFit:
    """Fit offset + Gaussian; accepts a Spectrum or (axis, values) arrays."""
    if y is None:
        x, y = x.axis, x.values
    return _fit_peak(x, y, "gaussian")


def scan_cross_section(image: ScanImage, row: int | None = None):
    """One image row through the brightest pixel, as (position_um, counts)."""
    if row is None:
        row = int(np.unravel_index(np.argmax(image.values), image.values.shape)[0])
    x = (np.arange(image.values.shape[1]) + 0.5) * image.pixel_pitch
    return x, image.values[row]


def pgm_text(image: ScanImage) -> str:
    """Render the image as ASCII PGM (P2), scaled to a 65535 max level."""
    v = image.values
    peak = float(v.max()) if v.size else 0.0
    scale = 65535.0 / peak if peak > 0 else 0.0
    levels = np.rint(v * scale).astype(int)
    lines = ["P2", f"{v.shape[1]} {v.shape[0]}", "65535"]
    for r in levels:
        lines.append(" ".join(str(int(c)) for c in r))
    return "\n".join(lines) + "\n"
