"""Audit harness: sampler goodness-of-fit, black-box DP-violation search,
and empirical stability/sensitivity verification.  The package exports what
`dpcore audit` and perfbench import; other names come from their modules."""

from .blackbox import (MechanismUnderTest, default_neighbor_suite, dp_hypothesis_test,
                       event_search)
from .gof import anderson_darling, laplace_cdf
from .report import black_box_battery
from .targets import BUILTIN_TARGETS

__all__ = ["BUILTIN_TARGETS", "MechanismUnderTest", "anderson_darling", "black_box_battery",
           "default_neighbor_suite", "dp_hypothesis_test", "event_search", "laplace_cdf"]
