"""Simulation and analysis toolkit for cryogenic single-molecule photon sources."""

from .correlator import correlate, fit_antibunching, normalize_g2, pulsed_peak_ratio
from .errors import ConfigError, InsufficientDataError, PhysicsError
from .interference import (Wavepacket, beat_coincidence_density, hom_coincidence_prob,
                           hom_sweep, simulate_hom, wavepacket_overlap)
from .kmc import apply_detection, simulate_stream
from .model import (BRANCH_VIBRONIC, BRANCH_ZPL, DetectionSpec, ElectrodeSpec,
                    LaserSpec, MoleculeSpec, SceneSpec, analytic_g2,
                    diffraction_fwhm, lorentzian, mixture_g2_zero, natural_linewidth,
                    pump_for_excited_population, pump_rate, rate_budget,
                    shifted_center, split_two_source, stark_calibrate,
                    stark_shift, steady_state)
from .spectroscopy import (Spectrum, confocal_scan, emission_spectrum,
                           excitation_spectrum, fit_gaussian, fit_lorentzian,
                           peak_separation, pgm_text, scan_cross_section, stark_scan)

__version__ = "0.1.0"
