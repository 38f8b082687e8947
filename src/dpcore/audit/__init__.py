"""Audit harness: sampler goodness-of-fit and black-box DP-violation search
(built-in targets release through `mechanisms.release`, as a query does).
The exhaustive stability and sensitivity checks are test code, in
`tests/propcheck.py`.  Exported: what `dpcore audit` and perfbench import;
other names come from their modules."""

from .blackbox import (MechanismUnderTest, default_neighbor_suite, dp_hypothesis_test,
                       event_search)
from .gof import anderson_darling, laplace_cdf
from .report import black_box_battery
from .targets import BUILTIN_TARGETS

__all__ = ["BUILTIN_TARGETS", "MechanismUnderTest", "anderson_darling", "black_box_battery",
           "default_neighbor_suite", "dp_hypothesis_test", "event_search", "laplace_cdf"]
