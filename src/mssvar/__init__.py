"""Markov-switching structural VAR with data-driven exclusion restrictions
and stochastic volatility."""

from .config import ModelConfig, load_config, parse_config
from .data import ColumnTransform, Dataset, build_design, empty_dataset, load_dataset
from .engine import gibbs_sweep, initialize_state, run_chain
from .patterns import Pattern, PatternSet, apply_pattern, build_pattern_set
from .simulate import DgpTruth, generate_dgp
from .state import ParameterState
from .store import DrawStore, load_store, persist_store

__version__ = "0.1.0"

__all__ = [
    "ColumnTransform",
    "Dataset",
    "DgpTruth",
    "DrawStore",
    "ModelConfig",
    "ParameterState",
    "Pattern",
    "PatternSet",
    "apply_pattern",
    "build_design",
    "build_pattern_set",
    "empty_dataset",
    "generate_dgp",
    "gibbs_sweep",
    "initialize_state",
    "load_config",
    "load_dataset",
    "load_store",
    "parse_config",
    "persist_store",
    "run_chain",
    "__version__",
]
