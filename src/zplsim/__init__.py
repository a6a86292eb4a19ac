"""Simulation and analysis toolkit for cryogenic single-molecule photon sources."""

from .config import ExperimentConfig, load_config, parse_quantity
from .correlator import (AntibunchingFit, CorrelationHistogram, correlate,
                         fit_antibunching, normalize_g2, pulsed_peak_ratio)
from .errors import (ConfigError, FitConvergenceError, FitError,
                     InsufficientDataError, PhysicsError, TagFileError)
from .interference import (HomResult, Wavepacket, beat_coincidence_density,
                           hom_coincidence_prob, hom_sweep, simulate_hom,
                           wavepacket_overlap)
from .kmc import PhotonStream, TimeTagSet, apply_detection, simulate_stream
from .model import (BRANCH_VIBRONIC, BRANCH_ZPL, DEFAULT_K_VIB, DetectionSpec,
                    ElectrodeSpec, LaserSpec, MoleculeSpec, SceneSpec,
                    analytic_g2, diffraction_fwhm, lorentzian, mixture_g2_zero,
                    natural_linewidth, pump_for_excited_population, pump_rate,
                    rate_budget, shifted_center, split_two_source,
                    stark_calibrate, stark_shift, steady_state)
from .spectroscopy import (PeakFit, PeakSeparation, ScanImage, Spectrum,
                           confocal_scan, emission_spectrum, excitation_spectrum,
                           fit_gaussian, fit_lorentzian, peak_separation,
                           pgm_text, scan_cross_section, stark_scan)

__version__ = "0.1.0"
