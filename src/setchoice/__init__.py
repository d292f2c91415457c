"""Set-based utility measures and social evaluation.

Individuals and alternatives are subsets (or weighted subsets) of one
universe of objectives.  The package scores alternatives per individual
with three measures, takes the exact mean of the scores as the social
profile, and ranks the alternatives; a CLI drives the same pipeline from
scenario files.
"""

from .errors import (
    EmptyIndividual,
    LengthMismatch,
    MeasureError,
    NonCrispIndividual,
    ScenarioError,
    ZeroMembershipMass,
)
from .evaluation import (
    EvaluationProcess,
    IndividualProfile,
    Ranking,
    RankingTier,
    SocialProfile,
    build_process,
    evaluate,
    individual_profile,
    rank,
)
from .measures import (
    Alternative,
    Environment,
    Individual,
    Society,
    UtilityMeasure,
    cardinal_utility,
    fuzzy_utility,
    normalized_cardinal_utility,
    utility,
)
from .scenario_io import (
    Finding,
    PipelineResult,
    Scenario,
    ValidationReport,
    compute_pipeline,
    format_decimal,
    format_utility,
    parse_scenario,
    run_pipeline,
    validate_scenario,
)
from .universe import (
    ObjectiveSet,
    Universe,
    UniversePartition,
    exigence_universe,
    opportunity_universe,
    partition_universe,
)

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "EmptyIndividual",
    "Environment",
    "EvaluationProcess",
    "Finding",
    "Individual",
    "IndividualProfile",
    "LengthMismatch",
    "MeasureError",
    "NonCrispIndividual",
    "ObjectiveSet",
    "PipelineResult",
    "Ranking",
    "RankingTier",
    "Scenario",
    "ScenarioError",
    "SocialProfile",
    "Society",
    "Universe",
    "UniversePartition",
    "UtilityMeasure",
    "ValidationReport",
    "ZeroMembershipMass",
    "build_process",
    "cardinal_utility",
    "compute_pipeline",
    "evaluate",
    "exigence_universe",
    "format_decimal",
    "format_utility",
    "fuzzy_utility",
    "individual_profile",
    "normalized_cardinal_utility",
    "opportunity_universe",
    "parse_scenario",
    "partition_universe",
    "rank",
    "run_pipeline",
    "utility",
    "validate_scenario",
    "__version__",
]
