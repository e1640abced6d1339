"""Named topology suites used by the benchmarks and examples."""

from .suites import (
    DEFAULT_SUITE,
    DYNAMIC_SCENARIOS,
    PROTOCOL_SCENARIOS,
    SUITES,
    dynamic_scenario,
    mixed_suite,
    param_grid,
    poorly_connected_suite,
    protocol_scenario,
    robustness_curves,
    scaling_family,
    suite_by_name,
    sweep_specs,
    tiny_suite,
    well_connected_suite,
)

__all__ = [
    "DEFAULT_SUITE",
    "DYNAMIC_SCENARIOS",
    "PROTOCOL_SCENARIOS",
    "SUITES",
    "dynamic_scenario",
    "param_grid",
    "protocol_scenario",
    "robustness_curves",
    "suite_by_name",
    "sweep_specs",
    "well_connected_suite",
    "poorly_connected_suite",
    "mixed_suite",
    "scaling_family",
    "tiny_suite",
]
