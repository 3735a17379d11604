"""Voting rules on top-k truncated ballots.

Winner computation for classical rules and their top-k approximations from
one exact integer tally per ballot list, worst-case score-ratio bounds with
the pathological profiles that attain them, a Mallows sampler, PrefLib
ingestion, and a seeded Monte-Carlo experiment harness.
"""

from .ballots import (
    BallotList,
    DomainError,
    PairwiseTally,
    Profile,
    TieBreak,
    TopKProfile,
    truncate,
)
from .bounds import (
    INFINITY,
    AdversarialInstance,
    ConstructionInapplicableError,
    RatioBound,
    UnsupportedRuleError,
    copeland_adversarial,
    copeland_bounds,
    is_infinite,
    maximin_adversarial,
    maximin_bounds,
    price_of_truncation,
    psr_adversarial,
    psr_bounds,
    rule_adversarial,
    rule_bound,
)
from .experiments import (
    ExperimentConfig,
    FixedSource,
    MallowsSource,
    PreflibSource,
    run_success_rate,
    shutdown_pool,
    sweep_real_data,
    write_csv,
)
from .mallows import MallowsModel, kendall_tau, make_rng, normalization, pmf, sample_profile, trial_rng
from .preflib import (
    ElectionDataset,
    PreflibParseError,
    effective_truncate,
    load,
    parse_preflib,
    resample,
    serialize_classic,
)
from .rules import (
    RuleId,
    RuleParseError,
    apply_rule,
    approval_vector,
    borda_vector,
    co_winners,
    completion_score,
    copeland_scores,
    harmonic_vector,
    maximin_scores,
    parse_rule,
    scoring_vector,
)
from .tally import IntegerTally, dominance_tally, pairwise_tally

__version__ = "0.1.0"
