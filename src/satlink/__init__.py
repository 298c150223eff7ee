"""Satellite optical link budgets, fading-channel bounds and CV-QKD key rates."""

from .atmosphere import ExtinctionModel, eta_atm
from .beam import BeamParams, ReceiverParams, diffraction_waist, eta_diffraction, plob
from .cvqkd import ProtocolParams, holevo_bound, postselected_rate
from .errors import ConfigError, NumericalError, StrongTurbulenceError
from .fading import FadingModel, fading_model, p_threshold
from .geometry import slant_range
from .noise import nbar_background, nbar_total
from .orbit import orbital_period, slice_orbit, sun_sync_inclination, transit_times
from .scenario import SETUPS, Scenario
from .turbulence import TurbulenceProfile, cn2, i_infty, spot_sizes

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "ConfigError",
    "ExtinctionModel",
    "FadingModel",
    "NumericalError",
    "ProtocolParams",
    "ReceiverParams",
    "SETUPS",
    "Scenario",
    "StrongTurbulenceError",
    "TurbulenceProfile",
    "cn2",
    "diffraction_waist",
    "eta_atm",
    "eta_diffraction",
    "fading_model",
    "holevo_bound",
    "i_infty",
    "nbar_background",
    "nbar_total",
    "orbital_period",
    "p_threshold",
    "plob",
    "postselected_rate",
    "slant_range",
    "slice_orbit",
    "spot_sizes",
    "sun_sync_inclination",
    "transit_times",
    "__version__",
]
