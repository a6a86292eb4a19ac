"""Value types and closed-form photophysics of a three-level molecular emitter.

The emitter cycles ground -> vibronic -> emitting -> ground.  Optical
coherence is destroyed by the broad (~30 GHz) vibronic pump transition, so
everything here is rate-equation physics: Lorentzian lineshapes, steady-state
populations, the analytic antibunching correlation and simple budgets.
All types are immutable and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PhysicsError

TWO_PI = 2.0 * math.pi

#: Default vibronic (v=1 -> v=0) relaxation rate, "a few ps" timescale.
DEFAULT_K_VIB = 1.0e12

BRANCH_ZPL = 0
BRANCH_VIBRONIC = 1


@dataclass(frozen=True)
class MoleculeSpec:
    """One emitter: position, line center and photophysical constants.

    Frequencies are offsets in Hz from the scene reference; position is in
    micrometers; ``stark_linear``/``stark_quadratic`` are Hz per (V/m) and
    Hz per (V/m)^2.
    """

    id: int
    position: tuple[float, float] = (0.0, 0.0)
    zpl_center: float = 0.0
    lifetime_t1: float = 9.4e-9
    zpl_branching: float = 0.3
    vibronic_offset: float = 40.0e12
    vibronic_fwhm: float = 30.0e9
    stark_linear: float = 0.0
    stark_quadratic: float = 0.0
    polarization_angle: float = 0.0

    def __post_init__(self):
        if self.lifetime_t1 <= 0:
            raise PhysicsError(f"molecule {self.id}: lifetime_t1 must be > 0")
        if not 0.0 < self.zpl_branching <= 1.0:
            raise PhysicsError(f"molecule {self.id}: zpl_branching must be in (0, 1]")
        if self.vibronic_fwhm <= 0:
            raise PhysicsError(f"molecule {self.id}: vibronic_fwhm must be > 0")


@dataclass(frozen=True)
class LaserSpec:
    """Excitation laser; ``frequency`` is an offset in Hz from the scene reference."""

    mode: str = "cw"
    frequency: float = 0.0
    cw_peak_pump_rate: float = 0.0
    laser_linewidth: float = 1.0e6
    pulse_width: float = 700.0e-12
    pulse_rep_rate: float = 76.0e6
    pulse_divider: int = 1
    pulse_peak_pump_rate: float = 0.0

    def __post_init__(self):
        if self.mode not in ("cw", "pulsed"):
            raise PhysicsError(f"laser mode must be 'cw' or 'pulsed', got {self.mode!r}")
        for name in ("cw_peak_pump_rate", "laser_linewidth", "pulse_width",
                     "pulse_rep_rate", "pulse_peak_pump_rate"):
            if getattr(self, name) < 0:
                raise PhysicsError(f"laser {name} must be >= 0")
        if self.pulse_divider < 1:
            raise PhysicsError("laser pulse_divider must be >= 1")
        if self.mode == "pulsed":
            if self.pulse_rep_rate <= 0:
                raise PhysicsError("pulsed mode requires pulse_rep_rate > 0")
            if self.pulse_width >= self.pulse_period:
                raise PhysicsError("pulse_width must be shorter than the divided period")

    @property
    def pulse_period(self) -> float:
        """Period of the divided pulse train in seconds."""
        return self.pulse_divider / self.pulse_rep_rate

    def peak_pump_rate(self) -> float:
        return self.pulse_peak_pump_rate if self.mode == "pulsed" else self.cw_peak_pump_rate


@dataclass(frozen=True)
class ElectrodeSpec:
    """Stark electrodes in the plate-capacitor approximation (field = V/gap)."""

    gap: float = 18.0e-6
    voltage: float = 0.0
    max_voltage: float = 90.0

    def __post_init__(self):
        if self.gap <= 0:
            raise PhysicsError("electrode gap must be > 0")
        if abs(self.voltage) > self.max_voltage:
            raise PhysicsError(
                f"electrode voltage {self.voltage} V exceeds max_voltage {self.max_voltage} V")

    @property
    def fieldstrength(self) -> float:
        """Electric field in V/m."""
        return self.voltage / self.gap


@dataclass(frozen=True)
class DetectionSpec:
    """Detection chain: efficiencies, filters, timing response, dark counts."""

    collection_efficiency: float = 1.0
    zpl_filter_transmission: float = 1.0
    vibronic_filter_transmission: float = 0.0
    fiber_coupling: float = 1.0
    dark_count_rate: float = 0.0
    timing_jitter_sigma: float = 0.0
    dead_time: float = 50.0e-9
    resolution: int = 1  # picoseconds per tag unit

    def __post_init__(self):
        for name in ("collection_efficiency", "zpl_filter_transmission",
                     "vibronic_filter_transmission", "fiber_coupling"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PhysicsError(f"detection {name} must be in [0, 1]")
        if self.dark_count_rate < 0:
            raise PhysicsError("detection dark_count_rate must be >= 0")
        if self.timing_jitter_sigma < 0:
            raise PhysicsError("detection timing_jitter_sigma must be >= 0")
        if self.dead_time < 0:
            raise PhysicsError("detection dead_time must be >= 0")
        if self.resolution < 1:
            raise PhysicsError("detection resolution must be >= 1 ps")


@dataclass(frozen=True)
class SceneSpec:
    """A collection of molecules plus background and electrode, i.e. one microscope."""

    molecules: tuple[MoleculeSpec, ...] = ()
    background_rate: float = 0.0
    electrode: ElectrodeSpec = field(default_factory=ElectrodeSpec)
    reference_wavelength: float = 590.0  # nm

    def __post_init__(self):
        object.__setattr__(self, "molecules", tuple(self.molecules))
        ids = [m.id for m in self.molecules]
        if len(set(ids)) != len(ids):
            raise PhysicsError(f"molecule ids must be unique, got {ids}")
        if self.background_rate < 0:
            raise PhysicsError("background_rate must be >= 0")

    def with_voltage(self, voltage: float) -> "SceneSpec":
        """Copy of the scene with the electrode voltage replaced."""
        el = ElectrodeSpec(self.electrode.gap, voltage, self.electrode.max_voltage)
        return SceneSpec(self.molecules, self.background_rate, el, self.reference_wavelength)

    def single_molecule(self, index: int) -> "SceneSpec":
        """Sub-scene containing only the molecule at the given list index."""
        return SceneSpec((self.molecules[index],), self.background_rate,
                         self.electrode, self.reference_wavelength)


def split_two_source(scene: SceneSpec) -> tuple[SceneSpec, SceneSpec]:
    """Split a two-molecule scene into the two one-molecule microscopes.

    By convention the first listed molecule belongs to microscope A and the
    second to microscope B (the Stark-tuned one).
    """
    if len(scene.molecules) != 2:
        raise PhysicsError("two-source split requires exactly two molecules")
    return scene.single_molecule(0), scene.single_molecule(1)


# ---------------------------------------------------------------------------
# closed-form operations

def natural_linewidth(t1: float) -> float:
    """Fourier-limited FWHM of the 0-0 line, 1/(2*pi*T1), in Hz."""
    if t1 <= 0:
        raise PhysicsError("t1 must be > 0")
    return 1.0 / (TWO_PI * t1)


def lorentzian(detuning, fwhm: float):
    """Peak-normalized Lorentzian (Gamma/2)^2 / ((Gamma/2)^2 + detuning^2)."""
    if fwhm <= 0:
        raise PhysicsError("fwhm must be > 0")
    half = 0.5 * fwhm
    return half * half / (half * half + np.square(detuning))


def stark_shift(mol: MoleculeSpec, electrode: ElectrodeSpec) -> float:
    """Frequency shift in Hz added to the ZPL center by the applied field.

    Positive coefficients shift the line to lower frequency for positive
    voltage.
    """
    e_field = electrode.fieldstrength
    return -(mol.stark_linear * e_field + mol.stark_quadratic * e_field * e_field)


def shifted_center(mol: MoleculeSpec, electrode: ElectrodeSpec) -> float:
    """Stark-shifted 0-0 line center in Hz."""
    return mol.zpl_center + stark_shift(mol, electrode)


def stark_calibrate(separation_at_zero: float, merge_voltage: float, gap: float) -> float:
    """Linear Stark coefficient (Hz per V/m) that cancels a given separation.

    The returned coefficient makes ``stark_shift`` move a line by exactly
    ``-separation_at_zero`` at ``merge_voltage``.
    """
    if merge_voltage <= 0:
        raise PhysicsError("merge_voltage must be > 0")
    if gap <= 0:
        raise PhysicsError("gap must be > 0")
    return separation_at_zero / (merge_voltage / gap)


def pump_rate(mol: MoleculeSpec, laser: LaserSpec, electrode: ElectrodeSpec) -> float:
    """Vibronic pump rate in 1/s for this molecule under the given laser.

    The laser linewidth (~MHz) is negligible against the ~30 GHz vibronic
    width and is not convolved here.
    """
    vibronic_line = shifted_center(mol, electrode) + mol.vibronic_offset
    detuning = laser.frequency - vibronic_line
    return laser.peak_pump_rate() * float(lorentzian(detuning, mol.vibronic_fwhm))


def steady_state(pump: float, k_vib: float, gamma: float) -> tuple[float, float, float]:
    """Steady-state populations (ground, vibronic, emitting) of the closed cycle."""
    if pump < 0 or k_vib < 0:
        raise PhysicsError("rates must be >= 0")
    if gamma <= 0:
        raise PhysicsError("gamma must be > 0")
    if pump == 0:
        return (1.0, 0.0, 0.0)
    if k_vib <= 0:
        raise PhysicsError("k_vib must be > 0 when pump > 0")
    w_v = pump / k_vib if math.isfinite(k_vib) else 0.0
    w_e = pump / gamma
    total = 1.0 + w_v + w_e
    return (1.0 / total, w_v / total, w_e / total)


def pump_for_excited_population(p_excited: float, gamma: float,
                                k_vib: float = DEFAULT_K_VIB) -> float:
    """Pump rate that yields a given steady-state emitting population.

    Inverse of ``steady_state`` in its third component.
    """
    if gamma <= 0 or k_vib <= 0:
        raise PhysicsError("gamma and k_vib must be > 0")
    beta = 1.0 + gamma / k_vib
    if not 0.0 <= p_excited < 1.0 / beta:
        raise PhysicsError(f"p_excited must be in [0, {1.0 / beta:.6f}) for these rates")
    return p_excited * gamma / (1.0 - p_excited * beta)


def analytic_g2(pump: float, gamma: float, tau):
    """Rate-equation g2(tau) = 1 - exp(-(pump+gamma)|tau|) in the fast-k_vib limit."""
    if pump < 0:
        raise PhysicsError("pump must be >= 0")
    if gamma <= 0:
        raise PhysicsError("gamma must be > 0")
    return 1.0 - np.exp(-(pump + gamma) * np.abs(tau))


def mixture_g2_zero(fractions, g2_each) -> float:
    """g2(0) of a sum of independent sources with given intensity fractions.

    Cross terms between independent sources are uncorrelated; background
    enters as a source with g2 = 1.
    """
    fractions = np.asarray(fractions, dtype=float)
    g2_each = np.asarray(g2_each, dtype=float)
    if fractions.shape != g2_each.shape:
        raise PhysicsError("fractions and g2_each must have the same length")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise PhysicsError("fractions must sum to 1")
    sq = np.square(fractions)
    return float(np.dot(sq, g2_each) + (1.0 - sq.sum()))


def rate_budget(mol: MoleculeSpec, det: DetectionSpec, p_excited: float) -> float:
    """Detected ZPL photon rate in 1/s through the full detection chain."""
    if not 0.0 <= p_excited <= 1.0:
        raise PhysicsError("p_excited must be in [0, 1]")
    return (p_excited / mol.lifetime_t1 * mol.zpl_branching
            * det.collection_efficiency * det.zpl_filter_transmission
            * det.fiber_coupling)


def diffraction_fwhm(wavelength: float, na: float) -> float:
    """Diffraction-limited focus FWHM, 0.51*lambda/NA (same unit as wavelength)."""
    if not 0.0 < na <= 2.0:
        raise PhysicsError("numerical aperture must be in (0, 2]")
    return 0.51 * wavelength / na
