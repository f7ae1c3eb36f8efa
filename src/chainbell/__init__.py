"""Chained Bell inequality simulation and memory-robust local-content certification."""

__version__ = "0.1.0"

from .chain import (
    BRIGHT,
    DARK,
    ChainEstimate,
    ChainParams,
    PairStats,
    SettingPair,
    TrialLog,
    TrialRecord,
    as_trial_log,
    c_statistic,
    chain_estimate,
    chain_estimate_from_stats,
    chsh_parameter,
    make_pair,
    min_detection_efficiency,
    pair_stats_from_log,
    settings_set,
    t_statistic,
)
from .certify import (
    LocalContentBound,
    binomial_tail,
    binomial_tail_exact,
    coverage_monte_carlo,
    local_content_bound,
    proposition_brute_force,
)
from .mixtures import (
    BlockPeriodicSchedule,
    ChainPRBox,
    ConstantSchedule,
    DeterministicStrategy,
    LocalMixture,
    MixtureModel,
    OutcomeReactiveSchedule,
    RampSchedule,
    check_nonsignaling,
    distribution_chain_value,
    minimal_local,
    uniform_local,
)
from .quantum import (
    BETA_S,
    NoiseSpec,
    TSIRELSON,
    apply_noise,
    ideal_chain_value,
    joint_probabilities,
    phi_minus,
    phi_plus,
    self_test_fidelity,
    setting_rotation,
)
from .simulate import (
    AnalysisSelection,
    CollisionSpec,
    DetectionSpec,
    HeraldSpec,
    MixtureSource,
    ProtocolSpec,
    QuantumSource,
    adversary_schedules,
    extract_analysis_trials,
    herald_flags,
    run_protocol,
)
