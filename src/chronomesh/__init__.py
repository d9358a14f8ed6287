"""chronomesh: simulator for cooperative pulse-based time synchronization.

Dense networks of unsynchronized nodes emit odd-symmetric pulses around a
common target instant; receivers lock onto the zero crossing of the summed
waveform. The subpackages cover the stochastic channel and clock models, the
aggregate-waveform machinery, the linear arrival-time estimators, the
network-scale phase engine, a pulse-coupled oscillator baseline, and a
multi-hop cascade used as the scaling contrast.
"""

__version__ = "0.1.0"

from .channel import ChannelModel
from .clock import SkewPopulation
from .engine import NetworkState, PhaseReport, ScenarioConfig, estimate_epsilon, run_phase, run_phases
from .errors import ConfigurationError, DomainError, NumericsError
from .estimator import EVEN_ODD, STANDARD, epsilon_variant, fit
from .geometry import NodePosition, Region
from .multihop import HopChainConfig, hop_count_estimate, run_cascade
from .pco import PcoConfig, log_charging_map, pco_run_to_sync
from .waveform import Pulse, find_zero_crossing

__all__ = [
    "ChannelModel",
    "ConfigurationError",
    "DomainError",
    "EVEN_ODD",
    "HopChainConfig",
    "NetworkState",
    "NodePosition",
    "NumericsError",
    "PcoConfig",
    "PhaseReport",
    "Pulse",
    "Region",
    "STANDARD",
    "ScenarioConfig",
    "SkewPopulation",
    "epsilon_variant",
    "estimate_epsilon",
    "find_zero_crossing",
    "fit",
    "hop_count_estimate",
    "log_charging_map",
    "pco_run_to_sync",
    "run_cascade",
    "run_phase",
    "run_phases",
    "__version__",
]
