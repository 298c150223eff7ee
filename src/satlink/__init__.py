"""Satellite optical link budgets, fading-channel bounds and CV-QKD key rates."""

from .atmosphere import ExtinctionModel, eta_atm, eta_atm_secant, eta_atm_zenith
from .beam import BeamParams, ReceiverParams, bound_v, diffraction_waist, eta_diffraction, eta_total, plob
from .cvqkd import ProtocolParams, composable_rate, holevo_bound, postselected_rate
from .errors import ConfigError, NumericalError, StrongTurbulenceError
from .fading import FadingModel, fading_model, fading_pdf, p_threshold, sample_fading
from .geometry import EarthConstants, altitude_from_slant, slant_range
from .noise import NoiseEnvironment, nbar_background, nbar_total
from .orbit import orbital_period, slice_orbit, sun_sync_inclination, transit_times
from .scenario import SETUPS, Scenario
from .turbulence import TurbulenceProfile, cn2, coherence_length, i_infty, spot_sizes

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "ConfigError",
    "EarthConstants",
    "ExtinctionModel",
    "FadingModel",
    "NoiseEnvironment",
    "NumericalError",
    "ProtocolParams",
    "ReceiverParams",
    "SETUPS",
    "Scenario",
    "StrongTurbulenceError",
    "TurbulenceProfile",
    "altitude_from_slant",
    "bound_v",
    "cn2",
    "coherence_length",
    "composable_rate",
    "diffraction_waist",
    "eta_atm",
    "eta_atm_secant",
    "eta_atm_zenith",
    "eta_diffraction",
    "eta_total",
    "fading_model",
    "fading_pdf",
    "holevo_bound",
    "i_infty",
    "nbar_background",
    "nbar_total",
    "orbital_period",
    "p_threshold",
    "plob",
    "postselected_rate",
    "sample_fading",
    "slant_range",
    "slice_orbit",
    "spot_sizes",
    "sun_sync_inclination",
    "transit_times",
    "__version__",
]
