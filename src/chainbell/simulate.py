"""Randomized-block trial generation with heralding and collision events.

A run consists of blocks; one setting pair is drawn per block by a seeded
generator, and every trial in the block uses that pair.  Fluorescence checks
run continuously between trials; a trial is heralded when the sum of the g
preceding check counts exceeds g * H_thres, so the herald decision uses only
information gathered before the trial begins.

Three independent RNG streams (settings, outcomes, counts/collisions) are
forked from one seed, so logs are bit-for-bit reproducible and block
generation cannot cross-talk between streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from .chain import (
    OUTCOMES,
    ChainParams,
    SettingPair,
    TrialLog,
    TrialRecord,
    as_trial_log,
    settings_set,
    t_statistic,
)
from .mixtures import (
    BlockPeriodicSchedule,
    ConstantSchedule,
    MixtureModel,
    OutcomeReactiveSchedule,
    RampSchedule,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """Randomized-block protocol: block count/size and the analyzed trial."""

    blocks: int
    block_size: int = 100
    analyzed_index: int = 50
    pair_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.blocks < 0:
            raise ValueError(f"blocks must be >= 0, got {self.blocks}")
        if not 1 <= self.analyzed_index <= self.block_size:
            raise ValueError(
                f"analyzed_index must be in [1, block_size], got "
                f"{self.analyzed_index} with block_size {self.block_size}"
            )
        if self.pair_weights is not None:
            if abs(sum(self.pair_weights) - 1.0) > 1e-9:
                raise ValueError("pair_weights must sum to 1")


@dataclass(frozen=True)
class HeraldSpec:
    """Fluorescence-check window rule for heralding trials."""

    g: int = 8
    h_thres: int = 20
    bright_mean: float = 30.0
    dark_mean: float = 2.0

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"window length g must be >= 1, got {self.g}")
        if self.bright_mean <= 0 or self.dark_mean <= 0:
            raise ValueError("count means must be positive")


@dataclass(frozen=True)
class DetectionSpec:
    """Fluorescence readout of the measurement outcome itself.

    The "ideal" model records the sampled outcome directly.  The "counts"
    model draws a photon count per ion (bright or dark mean) and records
    bright iff the count exceeds the threshold, so threshold misclassification
    becomes a real, configurable detection error.
    """

    model: str = "ideal"  # or "counts"
    threshold: int = 6
    bright_mean: float = 30.0
    dark_mean: float = 2.0

    def __post_init__(self) -> None:
        if self.model not in ("ideal", "counts"):
            raise ValueError(f"detection model must be ideal or counts, got {self.model!r}")
        if self.bright_mean <= 0 or self.dark_mean <= 0:
            raise ValueError("count means must be positive")


@dataclass(frozen=True)
class CollisionSpec:
    """Background-gas collision events that darken the ions."""

    event_rate: float = 0.0
    recovery: str = "permanent"  # or "transient"
    duration: int = 50

    def __post_init__(self) -> None:
        if not 0.0 <= self.event_rate <= 1.0:
            raise ValueError(f"event_rate must be in [0, 1], got {self.event_rate}")
        if self.recovery not in ("permanent", "transient"):
            raise ValueError(f"recovery must be permanent or transient, got {self.recovery!r}")


class SourceModel(Protocol):
    """Generative model for trial outcomes."""

    history_dependent: bool

    def outcome_probabilities(
        self, pair: SettingPair, history: Sequence[int]
    ) -> np.ndarray: ...


class QuantumSource:
    """History-independent source: a two-qubit state with optional noise."""

    history_dependent = False

    def __init__(self, state: np.ndarray, noise=None):
        from .quantum import NoiseSpec, apply_noise, joint_probabilities

        self.state = np.asarray(state, dtype=complex)
        self.noise = noise if noise is not None else NoiseSpec()
        self._joint = joint_probabilities
        self._apply_noise = apply_noise

    def outcome_probabilities(self, pair, history=()):
        return self._apply_noise(self._joint(self.state, pair), self.noise)


class MixtureSource:
    """Source backed by a local/nonlocal mixture with a weight schedule.

    The schedule sees the history of per-trial scores, so one MixtureSource
    must be confined to a single generation stream.
    """

    def __init__(self, model: MixtureModel):
        self.model = model

    @property
    def history_dependent(self) -> bool:
        return not isinstance(self.model.schedule, ConstantSchedule)

    def outcome_probabilities(self, pair, history=()):
        return self.model.probabilities(pair, history)


def adversary_schedules() -> dict[str, type]:
    """Named library of local-weight schedules usable as memory adversaries."""
    return {
        "constant": ConstantSchedule,
        "ramp": RampSchedule,
        "outcome_reactive": OutcomeReactiveSchedule,
        "block_periodic": BlockPeriodicSchedule,
    }


def _ion_status(total: int, collisions: CollisionSpec, rng: np.random.Generator) -> np.ndarray:
    """Boolean healthy/dark status per trial under the collision model."""
    healthy = np.ones(total, dtype=bool)
    if collisions.event_rate == 0.0 or total == 0:
        return healthy
    events = np.cumsum(rng.random(total) < collisions.event_rate)
    if collisions.recovery == "permanent":
        return events == 0
    # A transient event darkens its own trial and the `duration` trials after it.
    span = max(collisions.duration, 0) + 1
    return events == np.concatenate([np.zeros(span, dtype=events.dtype), events])[:total]


def _detect_outcomes(
    idx: np.ndarray, detection: DetectionSpec, rng: np.random.Generator
) -> np.ndarray:
    """Map underlying outcomes through the fluorescence-count readout."""
    if detection.model == "ideal":
        return idx
    a_bright = idx < 2
    b_bright = idx % 2 == 0
    counts_a = rng.poisson(np.where(a_bright, detection.bright_mean, detection.dark_mean))
    counts_b = rng.poisson(np.where(b_bright, detection.bright_mean, detection.dark_mean))
    read_a = counts_a > detection.threshold
    read_b = counts_b > detection.threshold
    return np.where(read_a, 0, 2) + np.where(read_b, 0, 1)


def herald_flags(check_counts: np.ndarray, herald: HeraldSpec) -> np.ndarray:
    """Window rule: trial q is heralded iff the g preceding checks sum above g*H_thres.

    ``check_counts`` holds one check per trial plus ``g`` warm-up checks at the
    front, so the window for trial q is checks [q, q+g).
    """
    g = herald.g
    total = len(check_counts) - g
    csum = np.concatenate([[0], np.cumsum(check_counts)])
    window = csum[g : g + total] - csum[:total]
    return window > g * herald.h_thres


def run_protocol(
    source: SourceModel,
    params: ChainParams,
    protocol: ProtocolSpec,
    herald: HeraldSpec = HeraldSpec(),
    collisions: CollisionSpec = CollisionSpec(),
    detection: DetectionSpec = DetectionSpec(),
    seed: int = 0,
) -> TrialLog:
    """Generate a full randomized-block trial log.

    Identical (source, params, specs, seed) reproduce the log bit-for-bit.
    """
    pairs = settings_set(params)
    n_pairs = len(pairs)
    ss = np.random.SeedSequence(seed)
    settings_rng, outcome_rng, count_rng, detect_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )

    total = protocol.blocks * protocol.block_size
    weights = protocol.pair_weights
    block_pairs = settings_rng.choice(n_pairs, size=protocol.blocks, p=weights)
    pair_idx = np.repeat(block_pairs, protocol.block_size)

    healthy = _ion_status(total, collisions, count_rng)

    # One fluorescence check precedes each trial; g warm-up checks before the
    # first trial give every trial a full window.  Both ions contribute.
    per_check_mean = np.empty(total + herald.g)
    per_check_mean[: herald.g] = 2.0 * herald.bright_mean
    per_check_mean[herald.g :] = np.where(
        healthy, 2.0 * herald.bright_mean, 2.0 * herald.dark_mean
    )
    checks = count_rng.poisson(per_check_mean)
    flags = herald_flags(checks, herald)

    if not source.history_dependent:
        probs_by_pair = np.array(
            [source.outcome_probabilities(p, ()) for p in pairs], dtype=float
        )
        cdf = np.cumsum(probs_by_pair, axis=1)
        u = outcome_rng.random(total)
        out_idx = (u[:, None] > cdf[pair_idx]).sum(axis=1)
        out_idx = np.where(healthy, out_idx, 3)  # dark ions read DD
        out_idx = _detect_outcomes(out_idx, detection, detect_rng)
    else:
        # Score every (pair, outcome) once; the schedule's history looks them up.
        scores = [[t_statistic(TrialRecord(0, 0, p, x, y), params) for x, y in OUTCOMES]
                  for p in pairs]
        out_idx = np.empty(total, dtype=np.uint8)
        history: list[int] = []
        for q, j in enumerate(pair_idx.tolist()):
            if healthy[q]:
                p = np.asarray(source.outcome_probabilities(pairs[j], history), dtype=float)
                idx = int(outcome_rng.choice(4, p=p / p.sum()))
            else:
                idx = 3
            idx = int(_detect_outcomes(np.array([idx]), detection, detect_rng)[0])
            out_idx[q] = idx
            history.append(scores[j][idx])
    trial_index = np.arange(total)
    return TrialLog(
        tuple(pairs), trial_index, trial_index // protocol.block_size,
        pair_idx.astype(np.min_scalar_type(n_pairs)), out_idx.astype(np.uint8), flags,
        checks, trial_index, herald.g,
    )


@dataclass
class AnalysisSelection:
    """The analyzed trial of each block, after herald filtering."""

    trials: TrialLog
    blocks: int
    discarded_unheralded: int

    @property
    def n(self) -> int:
        return len(self.trials)


def extract_analysis_trials(
    log: TrialLog | Iterable[TrialRecord], protocol: ProtocolSpec
) -> AnalysisSelection:
    """Select the pre-registered trial of each block, keeping heralded ones.

    The log must hold trials 0 .. blocks * block_size - 1 in order, trial q in
    block q // block_size; block b's analyzed trial is b * block_size + analyzed_index - 1.
    """
    log = as_trial_log(log)
    size = protocol.block_size
    expected = np.arange(protocol.blocks * size)
    if len(log) != len(expected):
        relation = "fewer" if len(log) < len(expected) else "more"
        raise ValueError(
            f"log has {len(log)} trials, {relation} than blocks x block_size = {len(expected)}"
        )
    misplaced = np.flatnonzero(
        (log.trial_index != expected) | (log.block_index != expected // size)
    )
    if misplaced.size:
        i = misplaced[0]
        raise ValueError(
            f"row {i} holds trial {log.trial_index[i]} of block {log.block_index[i]}, "
            f"expected trial {i} of block {i // size}: trials are missing, "
            f"duplicated or out of order"
        )
    analyzed = log.trial_index == log.block_index * size + protocol.analyzed_index - 1
    return AnalysisSelection(
        trials=log[analyzed & log.heralded],
        blocks=protocol.blocks,
        discarded_unheralded=int((analyzed & ~log.heralded).sum()),
    )
