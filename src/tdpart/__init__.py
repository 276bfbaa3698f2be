"""Distributed symbolic execution with test-depth region partitioning."""

from .engine import Engine, EngineStats, RegionResult, Strategy, TestDepthPair
from .harness import (
    RunConfig,
    RunOutput,
    calibrate_depth,
    gen_corpus,
    load_report,
    path_digest,
    program_digest,
    run_program,
    verify_reports,
    write_report,
)
from .lang import ParseError, Program, parse_program, print_program, validate
from .solve import PathCondition, QueryCache, solve_model, solve_path

__all__ = [
    "Engine",
    "EngineStats",
    "ParseError",
    "PathCondition",
    "Program",
    "QueryCache",
    "RegionResult",
    "RunConfig",
    "RunOutput",
    "Strategy",
    "TestDepthPair",
    "calibrate_depth",
    "gen_corpus",
    "load_report",
    "parse_program",
    "path_digest",
    "print_program",
    "program_digest",
    "run_program",
    "solve_model",
    "solve_path",
    "verify_reports",
    "write_report",
]

__version__ = "0.1.0"
