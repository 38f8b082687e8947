"""Audit harness: sampler goodness-of-fit, black-box DP-violation search,
and empirical stability/sensitivity verification."""

from .blackbox import (
    MechanismUnderTest,
    NeighborPair,
    OutcomeEvent,
    PValueVerdict,
    aggregate_pvalues,
    default_neighbor_suite,
    dp_hypothesis_test,
    event_search,
)
from .gof import (
    AD_CRITICAL_99,
    anderson_darling,
    chi_squared_gof,
    laplace_cdf,
    two_sided_geometric_pmf,
)
from .propcheck import (
    CheckResult,
    enumerate_neighbor_pairs,
    expmech_ratio_check,
    lipschitz_check,
    output_distance,
    sensitivity_check,
    stability_check,
)
from .report import (
    AuditEntry,
    AuditReport,
    Counterexample,
    DEFAULT_N_SEARCH,
    DEFAULT_N_TEST,
    DEFAULT_REPETITIONS,
    EXIT_NO_VIOLATION,
    EXIT_VIOLATION,
    audit_pair,
    black_box_battery,
)
from .bugs import CATALOG
from .targets import BUILTIN_TARGETS

__all__ = [name for name in dir() if not name.startswith("_")]
