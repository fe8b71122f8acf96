"""Max-min fair faucet allocation: a conventional authority-driven
distributor (CMF), its user-driven autonomous counterparts (AMF, WAMF),
an independent water-filling oracle, and a deterministic block-by-block
simulator with abstract cost metering.
"""

from .clock import ClockParams
from .cmf import CmfDistributor
from .costs import cost_report
from .faucet import AutonomousFaucet
from .oracle import AllocationProblem, waterfill
from .sim import Scenario, run_scenario, scenario_from_dict
from .verify import verify_run

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem", "AutonomousFaucet", "ClockParams", "CmfDistributor",
    "Scenario", "cost_report", "run_scenario", "scenario_from_dict",
    "verify_run", "waterfill",
]
