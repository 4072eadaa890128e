"""Execution-time opacity checking and controller synthesis for timed
automata."""

from .ta import (
    Action,
    Atom,
    Clock,
    Edge,
    TimedAutomaton,
    add_tick_clock,
    duplicate,
    make_finals_urgent,
    prepare,
    validate,
)
from .regions import RegionContext
from .beliefs import BOTTOM, DEAD, BeliefSpace
from .strategies import (
    Bucket,
    MetaStrategy,
    UnitPlan,
    all_enabled,
    encountered_beliefs,
)
from .game import (
    Mode,
    SolveResult,
    WinningWitness,
    check_exists,
    check_metastrategy,
    solve,
    witness_to_metastrategy,
)
from .oracle import oracle_buckets, oracle_verdict

__all__ = [
    "Action",
    "Atom",
    "BOTTOM",
    "BeliefSpace",
    "Bucket",
    "Clock",
    "DEAD",
    "Edge",
    "MetaStrategy",
    "Mode",
    "RegionContext",
    "SolveResult",
    "TimedAutomaton",
    "UnitPlan",
    "WinningWitness",
    "add_tick_clock",
    "all_enabled",
    "check_exists",
    "check_metastrategy",
    "duplicate",
    "encountered_beliefs",
    "make_finals_urgent",
    "oracle_buckets",
    "oracle_verdict",
    "prepare",
    "solve",
    "validate",
    "witness_to_metastrategy",
]

__version__ = "0.1.0"
