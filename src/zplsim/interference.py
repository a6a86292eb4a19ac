"""Two-source photon indistinguishability.

Photons are single-sided exponential wavepackets; the mode overlap fixes the
Hong-Ou-Mandel coincidence probability behind a balanced beam splitter, and
the time-resolved coincidence density shows quantum beats at the detuning.
``simulate_hom`` runs a semi-analytic Monte Carlo two-microscope experiment:
emission times come from the per-pulse draws of the pulsed sampler in
``kmc`` (``pulse_draws``/``start_times``, the same one ``simulate_stream``
uses), coincidences are Bernoulli with the pairwise analytic probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .kmc import pulse_draws, start_times
from .model import (DEFAULT_K_VIB, TWO_PI, LaserSpec, SceneSpec, pump_rate,
                    shifted_center)


@dataclass(frozen=True)
class Wavepacket:
    """Exponential single-photon wavepacket sqrt(G)*exp(-G(t-t0)/2) for t >= t0."""

    decay_rate: float
    carrier: float = 0.0
    emit_time: float = 0.0

    def __post_init__(self):
        if self.decay_rate <= 0:
            raise PhysicsError("decay_rate must be > 0")

    def amplitude(self, t):
        """Complex temporal amplitude, zero before the emission time."""
        t = np.asarray(t, dtype=np.float64)
        env = np.where(t >= self.emit_time,
                       np.sqrt(self.decay_rate)
                       * np.exp(-0.5 * self.decay_rate * (t - self.emit_time)),
                       0.0)
        return env * np.exp(-1j * TWO_PI * self.carrier * t)


def mode_overlap(gamma_a, gamma_b, t_a, t_b, delta):
    """|<a|b>|^2 of exponential wavepackets with decay rates gamma_a, gamma_b,
    emission times t_a, t_b (arrays broadcast) and angular detuning delta.

    For equal decay rates this reduces to
    G^2/(G^2 + delta^2) * exp(-G |t_b - t_a|).
    """
    g_mean = 0.5 * (gamma_a + gamma_b)
    return (gamma_a * gamma_b
            * np.exp(gamma_a * t_a + gamma_b * t_b - 2.0 * g_mean * np.maximum(t_a, t_b))
            / (g_mean * g_mean + delta * delta))


def wavepacket_overlap(a: Wavepacket, b: Wavepacket) -> float:
    """|<a|b>|^2 of two exponential wavepackets, in [0, 1]."""
    return float(mode_overlap(a.decay_rate, b.decay_rate, a.emit_time, b.emit_time,
                              TWO_PI * (b.carrier - a.carrier)))


def hom_coincidence_prob(overlap_sq: float) -> float:
    """Coincidence probability behind a balanced beam splitter, (1 - |<a|b>|^2)/2."""
    if not 0.0 <= overlap_sq <= 1.0 + 1e-12:
        raise PhysicsError("overlap_sq must be in [0, 1]")
    return 0.5 * (1.0 - min(overlap_sq, 1.0))


def beat_coincidence_density(a: Wavepacket, b: Wavepacket, t1, t2):
    """Time-resolved HOM coincidence density G(t1, t2) in 1/s^2.

    Antisymmetrized two-photon amplitude: vanishes on the diagonal, beats at
    the carrier detuning, and integrates over both times to
    ``hom_coincidence_prob(wavepacket_overlap(a, b))``.
    """
    amp = (a.amplitude(t1) * b.amplitude(t2) - a.amplitude(t2) * b.amplitude(t1))
    return 0.25 * np.abs(amp) ** 2


@dataclass
class HomResult:
    """Outcome of a Monte Carlo two-source interference run."""

    n_pulses: int
    both_emitted: int
    singles: int
    coincidences: int
    p_estimate: float
    p_error: float
    voltage_b: float


def simulate_hom(scene_a: SceneSpec, scene_b: SceneSpec, laser: LaserSpec,
                 n_pulses: int, voltage_a: float, voltage_b: float,
                 seed: int | np.random.SeedSequence,
                 k_vib: float = DEFAULT_K_VIB) -> HomResult:
    """Monte Carlo HOM experiment between one molecule in each microscope.

    Per pulse each source independently emits at most one ZPL photon; when
    both emit, a coincidence is scored with the analytic pairwise probability
    computed from the actual emission-time offset and the Stark-shifted
    carriers.  The estimate is conditional on both-emitted pulses.
    """
    if laser.mode != "pulsed":
        raise PhysicsError("simulate_hom requires a pulsed laser")
    if n_pulses < 1:
        raise PhysicsError("n_pulses must be >= 1")
    if len(scene_a.molecules) != 1 or len(scene_b.molecules) != 1:
        raise PhysicsError("each scene must hold exactly one designated molecule")

    scene_a = scene_a.with_voltage(voltage_a)
    scene_b = scene_b.with_voltage(voltage_b)
    mol_a = scene_a.molecules[0]
    mol_b = scene_b.molecules[0]
    gamma_a = 1.0 / mol_a.lifetime_t1
    gamma_b = 1.0 / mol_b.lifetime_t1
    carrier_a = shifted_center(mol_a, scene_a.electrode)
    carrier_b = shifted_center(mol_b, scene_b.electrode)
    pump_a = pump_rate(mol_a, laser, scene_a.electrode)
    pump_b = pump_rate(mol_b, laser, scene_b.electrode)

    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng_a, rng_b, rng_bs = (np.random.default_rng(s) for s in seed.spawn(3))
    em_a, u_a = pulse_draws(rng_a, pump_a, laser.pulse_width,
                            mol_a.zpl_branching, n_pulses)
    em_b, u_b = pulse_draws(rng_b, pump_b, laser.pulse_width,
                            mol_b.zpl_branching, n_pulses)

    both = em_a & em_b
    singles = int(np.count_nonzero(em_a ^ em_b))
    n_both = int(np.count_nonzero(both))
    if n_both == 0:
        return HomResult(n_pulses, 0, singles, 0, math.nan, math.nan, voltage_b)

    t_a = start_times(rng_a, u_a[both], pump_a, mol_a.zpl_branching, k_vib)
    t_b = start_times(rng_b, u_b[both], pump_b, mol_b.zpl_branching, k_vib)
    overlap = mode_overlap(gamma_a, gamma_b, t_a, t_b, TWO_PI * (carrier_b - carrier_a))
    mismatch = mol_a.polarization_angle - mol_b.polarization_angle
    if mismatch:
        overlap = overlap * math.cos(mismatch) ** 2
    p_coinc = 0.5 * (1.0 - overlap)
    coincidences = int(np.count_nonzero(rng_bs.random(n_both) < p_coinc))

    p_estimate = coincidences / n_both
    p_error = math.sqrt(max(p_estimate * (1.0 - p_estimate), 1.0 / n_both) / n_both)
    return HomResult(n_pulses, n_both, singles, coincidences,
                     p_estimate, p_error, voltage_b)


def hom_sweep(scene_a: SceneSpec, scene_b: SceneSpec, laser: LaserSpec,
              n_pulses: int, voltages, seed: int,
              k_vib: float = DEFAULT_K_VIB) -> list[HomResult]:
    """Voltage sweep applied to microscope B; one independent run per point.

    Point ``i`` draws from child ``i`` of ``SeedSequence(seed)``, so no point
    of one sweep repeats a point of a sweep with another seed.
    """
    voltages = list(voltages)
    points = np.random.SeedSequence(seed).spawn(len(voltages))
    return [simulate_hom(scene_a, scene_b, laser, n_pulses,
                         scene_a.electrode.voltage, float(v), point, k_vib)
            for v, point in zip(voltages, points)]
