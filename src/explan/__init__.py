"""Cost-optimal STRIPS planning with model-reconciliation explanations."""

from .errors import (
    ArityMismatch,
    ExplanError,
    ExtraFeatures,
    GroundingError,
    GuardExceeded,
    InconsistentTask,
    ModelError,
    NonCanonicalPlan,
    NonOptimalPlan,
    NotReconcilable,
    PddlError,
    PddlSyntaxError,
    PrefixNotExecutable,
    SearchExhausted,
    TypeMismatch,
    UndeclaredSymbol,
    UniverseMismatch,
    UnknownAction,
    UnknownFact,
    UnknownFeature,
    UnsupportedFeature,
)
from .bench import (
    BenchRecord,
    SuiteConfig,
    SuiteEntry,
    emit_table,
    load_problem,
    load_task,
    run_suite,
)
from .grounding import GroundedTask, align_universes, ground
from .model import (
    FeatureSet,
    GroundAction,
    GroundedModel,
    ModelDiff,
    ModelFeature,
    apply_features,
    diff,
    gamma,
    parse_feature_name,
    remove_features,
)
from .oracle import (
    Overflow,
    PlanSet,
    enumerate_optimal_plans,
    min_complete_subsets,
    optimal_plans_of,
)
from .pddl import (
    ActionSchema,
    DomainAST,
    ProblemAST,
    domain_to_pddl,
    parse_domain,
    parse_problem,
    problem_to_pddl,
)
from .planner import (
    CompiledTask,
    Invalid,
    Plan,
    compile_prefix,
    exists_optimal_with_prefix,
    first_diff,
    matches_through,
    plan_distance,
    plan_optimal,
    validate,
)
from .reconcile import (
    OnlineExplanation,
    ReconciliationProblem,
    StepCheck,
    SubExplanation,
    VerificationReport,
    mce,
    mce_random,
    oeg_ap,
    oeg_na,
    oeg_pp,
    verify_online,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Filesystem path of a bundled example domain/problem/suite file."""
    from importlib.resources import files
    from pathlib import Path

    return Path(str(files("explan") / "fixtures" / name))
