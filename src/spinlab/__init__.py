"""Exact computation, phase analysis and testing reductions for discrete
spin systems (Ising / Potts Gibbs distributions in log space)."""

from .errors import (
    BudgetExceededError,
    GuardViolation,
    InfeasibleParametersError,
    InvalidConfigurationError,
    InvalidModelError,
    SpinLabError,
    TargetUnreachableError,
)
from .model import (
    Configuration,
    SpinSystem,
    classify_field,
    disjoint_union,
    load_model,
    log_weight,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .exact import (
    CollapsedSpace,
    ExactDistribution,
    partition_log,
    restricted_partition_log,
    sample_exact,
    tv_collapsed,
    tv_exact,
)
from .meanfield import (
    find_critical_Bo,
    metastability_report,
    phase_split,
    solve_beta_H,
)
from .potts import (
    PottsInstance,
    build_potts_instance,
    sample_hidden_potts,
)
from .hubs import (
    HubInstance,
    build_hub_instance,
    closed_form_phase,
    sample_hidden_hub,
)
from .gadget import (
    BlowupInstance,
    Gadget,
    GadgetParams,
    build_blowup,
    ground_state_mass,
    lift_sample,
    project_good,
    sample_gadget,
)
from .counting import (
    ANSWER_HIGH,
    ANSWER_LOW,
    CountingOutcome,
    DecisionQuery,
    amplify_copies,
    bisection_counter,
    boosted_decider,
    crude_bounds,
    empirical_tester,
    oracle_tv_tester,
    run_generic_reduction,
    testing_rate,
)
from .rng import named_rng

__version__ = "0.1.0"
