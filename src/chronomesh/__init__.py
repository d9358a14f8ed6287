"""chronomesh: simulator for cooperative pulse-based time synchronization.

Dense networks of unsynchronized nodes emit odd-symmetric pulses around a
common target instant; receivers lock onto the zero crossing of the summed
waveform. The subpackages cover the stochastic channel and clock models, the
aggregate-waveform machinery, the linear arrival-time estimators, the
network-scale phase engine, a pulse-coupled oscillator baseline, and a
multi-hop cascade used as the scaling contrast.
"""

__version__ = "0.1.0"

from .engine import NetworkState, PhaseReport, ScenarioConfig, run_phase, run_phases
from .errors import ConfigurationError, DomainError

__all__ = ["ConfigurationError", "DomainError", "NetworkState", "PhaseReport", "ScenarioConfig",
           "run_phase", "run_phases", "__version__"]
