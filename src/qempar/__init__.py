"""Deterministic simulator of QoS- and energy-aware multi-path routing for
wireless sensor networks, with a minimum-hop baseline for comparison."""

from .config import ScenarioConfig
from .energy import RadioParams, rx_energy, tx_energy
from .engine import compare, run
from .link_metrics import NetworkState
from .routing import beacon_exchange, discover_paths, minhop_paths
from .topology import place_nodes

__version__ = "0.1.0"

__all__ = [
    "NetworkState", "RadioParams", "ScenarioConfig", "beacon_exchange",
    "compare", "discover_paths", "minhop_paths", "place_nodes", "run",
    "rx_energy", "tx_energy",
]
