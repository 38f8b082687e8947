"""dpcore: a differentially private query engine with a built-in audit
harness.

Layering (strictly one-directional):

* relational / transforms / registry -- the data access layer: exact
  computation plus deterministic bounds, stability and sensitivity tracking.
* randomness / mechanisms / accounting / gateway -- the privacy layer: the
  only path from exact statistics to released values, always mediated by
  the accountant.
* service / cli -- the postprocessing layer and user-facing plumbing; never
  touches raw data.
* audit -- statistical tests that try to falsify the rest of the package.
"""

from .accounting import (
    Accountant,
    PURE_EPS,
    PrivacyCharge,
    linear_query_epsilon,
    power_bound,
    verify_accounting,
)
from .errors import (
    BudgetExceededError,
    ContractViolation,
    ParameterError,
    RejectedOperationError,
    UnknownColumnError,
)
from .mechanisms import (
    MechanismResult,
    exponential_mechanism,
    laplace_mechanism,
    noisy_histogram,
    report_noisy_max,
)
from .randomness import (
    RandomSource,
    derive_source,
    log_add,
    sample_discrete_laplace,
    sample_exponential,
    sample_laplace,
)
from .relational import (
    ColumnKind,
    ColumnMeta,
    DevLog,
    GroupedTable,
    Schema,
    StabilityBound,
    StatVector,
    Table,
    dev_log,
    load_csv,
    load_schema,
    make_table,
    parse_schema,
    symmetric_difference,
)
from .transforms import (
    Affine,
    Clamp,
    Comparison,
    Predicate,
    Square,
    TransformPlan,
    aggregate,
    bernoulli_sample,
    distinct,
    group_by,
    map_column,
    parse_plan,
    project,
    rejected_operation,
    select_where,
    union,
)

__version__ = "0.1.0"
