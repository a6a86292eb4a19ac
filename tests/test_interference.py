import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from zplsim import (LaserSpec, MoleculeSpec, PhysicsError, SceneSpec,
                    Wavepacket, beat_coincidence_density, hom_coincidence_prob,
                    hom_sweep, simulate_hom, wavepacket_overlap)
from zplsim.kmc import pulse_draws, start_times

GAMMA = 1 / 9.4e-9


def numeric_overlap(a, b):
    """|integral a*(t) b(t) dt|^2 by complex quadrature."""
    t0 = max(a.emit_time, b.emit_time)
    span = 30 / min(a.decay_rate, b.decay_rate)

    def re(t):
        return (np.conj(a.amplitude(t)) * b.amplitude(t)).real

    def im(t):
        return (np.conj(a.amplitude(t)) * b.amplitude(t)).imag

    kw = dict(limit=400, epsabs=1e-12, epsrel=1e-12)
    real = integrate.quad(re, t0, t0 + span, **kw)[0]
    imag = integrate.quad(im, t0, t0 + span, **kw)[0]
    return real * real + imag * imag


class TestWavepacketOverlap:
    def test_identical_packets(self):
        w = Wavepacket(GAMMA)
        assert wavepacket_overlap(w, w) == pytest.approx(1.0)

    def test_normalization(self):
        w = Wavepacket(GAMMA, carrier=3e8, emit_time=2e-9)
        norm = integrate.quad(lambda t: abs(w.amplitude(t)) ** 2,
                              2e-9, 2e-9 + 30 / GAMMA, limit=200)[0]
        assert norm == pytest.approx(1.0, rel=1e-9)

    def test_detuned_180mhz(self):
        a = Wavepacket(GAMMA)
        b = Wavepacket(GAMMA, carrier=180e6)
        m = wavepacket_overlap(a, b)
        assert m == pytest.approx(GAMMA**2 / (GAMMA**2 + (2 * math.pi * 180e6) ** 2),
                                  rel=1e-12)
        assert m == pytest.approx(0.0087703, rel=1e-4)

    def test_delay_decay(self):
        a = Wavepacket(GAMMA)
        b = Wavepacket(GAMMA, emit_time=9.4e-9)
        assert wavepacket_overlap(a, b) == pytest.approx(math.exp(-1), rel=1e-12)

    @pytest.mark.parametrize("ga,gb,nu,dt", [
        (GAMMA, GAMMA, 0.0, 0.0),
        (GAMMA, GAMMA, 180e6, 0.0),
        (GAMMA, GAMMA, 0.0, 3e-9),
        (GAMMA, 2 * GAMMA, 50e6, 1e-9),
        (1 / 4.7e-9, GAMMA, 300e6, -2e-9),
    ])
    def test_matches_quadrature(self, ga, gb, nu, dt):
        a = Wavepacket(ga)
        b = Wavepacket(gb, carrier=nu, emit_time=dt)
        assert wavepacket_overlap(a, b) == pytest.approx(numeric_overlap(a, b),
                                                         abs=1e-6, rel=1e-6)

    @given(st.floats(min_value=-1e9, max_value=1e9),
           st.floats(min_value=-20e-9, max_value=20e-9))
    @settings(max_examples=50)
    def test_bounded_and_symmetric(self, nu, dt):
        a = Wavepacket(GAMMA)
        b = Wavepacket(GAMMA, carrier=nu, emit_time=dt)
        m = wavepacket_overlap(a, b)
        assert 0.0 <= m <= 1.0
        assert m == pytest.approx(wavepacket_overlap(b, a), rel=1e-12)

    def test_monotone_in_detuning(self):
        a = Wavepacket(GAMMA)
        vals = [wavepacket_overlap(a, Wavepacket(GAMMA, carrier=nu))
                for nu in (0.0, 50e6, 100e6, 180e6, 400e6)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestHomCoincidenceProb:
    def test_limits(self):
        assert hom_coincidence_prob(1.0) == 0.0
        assert hom_coincidence_prob(0.0) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(PhysicsError):
            hom_coincidence_prob(1.5)


class TestBeatCoincidenceDensity:
    def make_pair(self, detuning=180e6):
        return Wavepacket(GAMMA), Wavepacket(GAMMA, carrier=detuning)

    def test_diagonal_vanishes(self):
        a, b = self.make_pair()
        t = np.linspace(0, 50e-9, 64)
        assert np.allclose(beat_coincidence_density(a, b, t, t), 0.0)

    def test_reduced_form_equal_rates(self):
        # G^2 exp(-G(t1+t2)) sin^2(pi dnu (t2 - t1)) for equal decay rates
        a, b = self.make_pair()
        t1, t2 = 3e-9, 10e-9
        expected = (GAMMA**2 * math.exp(-GAMMA * (t1 + t2))
                    * math.sin(math.pi * 180e6 * (t2 - t1)) ** 2)
        assert beat_coincidence_density(a, b, t1, t2) == pytest.approx(expected, rel=1e-9)

    def test_first_beat_maximum(self):
        # along t2 - t1, the beat term first peaks at 1/(2 dnu) = 2.78 ns
        a, b = self.make_pair()
        dt = np.linspace(0, 6e-9, 6001)
        dens = beat_coincidence_density(a, b, 0.0, dt) * np.exp(GAMMA * dt)
        assert dt[np.argmax(dens)] == pytest.approx(2.78e-9, abs=2e-12)

    def test_integrates_to_coincidence_prob(self):
        a, b = self.make_pair()
        span = 25 / GAMMA
        total, _ = integrate.dblquad(
            lambda t2, t1: beat_coincidence_density(a, b, t1, t2),
            0, span, 0, span, epsabs=1e-6, epsrel=1e-6)
        expected = hom_coincidence_prob(wavepacket_overlap(a, b))
        assert total == pytest.approx(expected, abs=1e-3)

    def test_symmetric_in_time_arguments(self):
        a, b = self.make_pair()
        assert beat_coincidence_density(a, b, 2e-9, 7e-9) == \
            pytest.approx(beat_coincidence_density(a, b, 7e-9, 2e-9), rel=1e-12)


def hom_setup(detuning=180e6, stark=77.142857):
    mol_a = MoleculeSpec(id=1, zpl_center=0.0)
    mol_b = MoleculeSpec(id=2, zpl_center=detuning, stark_linear=stark)
    scene_a = SceneSpec(molecules=(mol_a,))
    scene_b = SceneSpec(molecules=(mol_b,))
    laser = LaserSpec(mode="pulsed", frequency=40e12, pulse_width=700e-12,
                      pulse_rep_rate=76e6, pulse_divider=20,
                      pulse_peak_pump_rate=3e9)
    return scene_a, scene_b, laser


class TestSimulateHom:
    def test_distinguishable_limit(self):
        scene_a, scene_b, laser = hom_setup(detuning=5e9, stark=0.0)
        r = simulate_hom(scene_a, scene_b, laser, 300_000, 0.0, 0.0, seed=1)
        assert r.p_estimate == pytest.approx(0.5, abs=3 * r.p_error)

    def test_merged_lines_interfere(self):
        scene_a, scene_b, laser = hom_setup()
        r = simulate_hom(scene_a, scene_b, laser, 300_000, 0.0, 42.0, seed=2)
        assert r.p_estimate < 0.02

    def test_detuned_at_zero_volts(self):
        scene_a, scene_b, laser = hom_setup()
        r = simulate_hom(scene_a, scene_b, laser, 300_000, 0.0, 0.0, seed=3)
        # 180 MHz detuning: overlap ~0.0088, residual dip barely visible
        assert 0.45 < r.p_estimate < 0.51

    def test_polarization_mismatch_kills_dip(self):
        mol_a = MoleculeSpec(id=1)
        mol_b = MoleculeSpec(id=2, polarization_angle=math.pi / 2)
        laser = hom_setup()[2]
        r = simulate_hom(SceneSpec(molecules=(mol_a,)), SceneSpec(molecules=(mol_b,)),
                         laser, 200_000, 0.0, 0.0, seed=4)
        assert r.p_estimate == pytest.approx(0.5, abs=3 * r.p_error)

    def test_deterministic(self):
        scene_a, scene_b, laser = hom_setup()
        a = simulate_hom(scene_a, scene_b, laser, 50_000, 0.0, 21.0, seed=5)
        b = simulate_hom(scene_a, scene_b, laser, 50_000, 0.0, 21.0, seed=5)
        assert (a.coincidences, a.both_emitted, a.singles) == \
            (b.coincidences, b.both_emitted, b.singles)

    def test_counts_are_consistent(self):
        scene_a, scene_b, laser = hom_setup()
        r = simulate_hom(scene_a, scene_b, laser, 100_000, 0.0, 0.0, seed=6)
        assert 0 <= r.coincidences <= r.both_emitted <= r.n_pulses
        assert r.both_emitted + r.singles <= r.n_pulses

    def test_requires_pulsed_laser(self):
        scene_a, scene_b, _ = hom_setup()
        with pytest.raises(PhysicsError):
            simulate_hom(scene_a, scene_b, LaserSpec(mode="cw"), 100, 0.0, 0.0, seed=1)

    def test_sweep_monotone_dip(self):
        scene_a, scene_b, laser = hom_setup()
        results = hom_sweep(scene_a, scene_b, laser, 150_000,
                            [0.0, 21.0, 42.0], seed=7)
        ps = [r.p_estimate for r in results]
        assert ps[0] > ps[1] > ps[2]
        assert [r.voltage_b for r in results] == [0.0, 21.0, 42.0]


class TestPerPulseSampler:
    """The pulsed sampler shared by the HOM Monte Carlo and the photon stream:
    one uniform per pulse decides emission, and for emitted pulses the same
    uniform gives the truncated-exponential excitation time."""

    PUMP, WIDTH, BRANCHING = 3e9, 700e-12, 0.35

    def draw(self, n=400_000, seed=11):
        rng = np.random.default_rng(seed)
        return rng, pulse_draws(rng, self.PUMP, self.WIDTH, self.BRANCHING, n)

    def test_emitted_fraction(self):
        n = 400_000
        _, (emitted, _) = self.draw(n)
        p = -math.expm1(-self.PUMP * self.WIDTH) * self.BRANCHING
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(np.count_nonzero(emitted) - n * p) < 5 * sigma

    def test_excitation_times_are_truncated_exponential(self):
        rng, (emitted, u) = self.draw()
        # an infinite k_vib makes the vibrational delay zero
        t_exc = start_times(rng, u[emitted], self.PUMP, self.BRANCHING, math.inf)
        p_exc = -math.expm1(-self.PUMP * self.WIDTH)
        assert t_exc.min() >= 0 and t_exc.max() <= self.WIDTH

        def cdf(t):
            return -np.expm1(-self.PUMP * np.clip(t, 0, self.WIDTH)) / p_exc

        assert stats.kstest(t_exc, cdf).pvalue > 1e-3

    def test_vibrational_delay_mean(self):
        rng, (emitted, u) = self.draw()
        k_vib = 1e11
        u = u[emitted]
        t_exc = -np.log1p(-u / self.BRANCHING) / self.PUMP
        delay = start_times(rng, u, self.PUMP, self.BRANCHING, k_vib) - t_exc
        # exponential delay: mean 1/k_vib, standard error 1/(k_vib sqrt(n))
        assert abs(delay.mean() - 1 / k_vib) < 5 / (k_vib * math.sqrt(len(u)))

    def test_no_pump_never_emits(self):
        emitted, _ = pulse_draws(np.random.default_rng(0), 0.0, self.WIDTH,
                                 self.BRANCHING, 100)
        assert not emitted.any()


def test_sweep_points_do_not_repeat_other_seeds():
    # point i of a sweep once used seed + i, so seed 1 point 1 equalled seed 2 point 0
    scene_a, scene_b, laser = hom_setup()
    later = hom_sweep(scene_a, scene_b, laser, 20_000, [0.0, 0.0], seed=1)[1]
    first = hom_sweep(scene_a, scene_b, laser, 20_000, [0.0], seed=2)[0]
    assert (later.coincidences, later.both_emitted, later.singles) != \
        (first.coincidences, first.both_emitted, first.singles)
