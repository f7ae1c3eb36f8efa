"""Local/nonlocal mixture models of a chained Bell experiment.

A trial distribution is modeled as p_local * P_L + (1 - p_local) * P_NL,
where P_L is a mixture of local deterministic strategies (which satisfies
I_N >= 1) and P_NL is a nonsignaling distribution.  The per-trial weight
p_local may drift or react to earlier outcomes, but never below a declared
minimum; the certification machinery bounds exactly that minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chain import BRIGHT, DARK, OUTCOMES, ChainParams, SettingPair, is_closing_pair, settings_set


@dataclass(frozen=True)
class DeterministicStrategy:
    """A local hidden-variable assignment of a fixed outcome to each setting.

    ``a_outcomes[k]`` is the outcome party a produces under setting a_k, and
    likewise for b.  Constant maps model the "always bright"/"always dark"
    strategies.
    """

    a_outcomes: Mapping[int, str]
    b_outcomes: Mapping[int, str]

    @classmethod
    def constant(cls, N: int, a: str, b: str) -> "DeterministicStrategy":
        return cls({k: a for k in range(1, N + 1)}, {l: b for l in range(1, N + 1)})

    def probabilities(self, pair: SettingPair) -> np.ndarray:
        probs = np.zeros(4)
        x = self.a_outcomes[pair.a_index]
        y = self.b_outcomes[pair.b_index]
        probs[OUTCOMES.index((x, y))] = 1.0
        return probs


class LocalMixture:
    """A probabilistic mixture of deterministic strategies (the local part)."""

    def __init__(
        self,
        strategies: Sequence[DeterministicStrategy],
        weights: Sequence[float] | None = None,
    ):
        if not strategies:
            raise ValueError("at least one deterministic strategy is required")
        if weights is None:
            weights = [1.0 / len(strategies)] * len(strategies)
        if len(weights) != len(strategies) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("weights must match strategies and sum to 1")
        self.strategies = list(strategies)
        self.weights = list(weights)

    def probabilities(self, pair: SettingPair) -> np.ndarray:
        probs = np.zeros(4)
        for w, s in zip(self.weights, self.strategies):
            probs += w * s.probabilities(pair)
        return probs


def uniform_local(N: int) -> LocalMixture:
    """Uniform mixture of the four constant strategies; attains I_N = N."""
    return LocalMixture(
        [
            DeterministicStrategy.constant(N, a, b)
            for a in (BRIGHT, DARK)
            for b in (BRIGHT, DARK)
        ]
    )


def minimal_local(N: int) -> LocalMixture:
    """The deterministic strategy saturating the local bound I_N = 1.

    Party a always bright, party b always dark: every chain pair mismatches
    (contributing 0) and the closing pair mismatches too (contributing 1).
    """
    return LocalMixture([DeterministicStrategy.constant(N, BRIGHT, DARK)])


class ChainPRBox:
    """The extremal nonsignaling box attaining I_N = 0.

    Perfect anticorrelation (uniform over BD, DB) on the 2N-1 chain pairs and
    perfect correlation (uniform over BB, DD) on the closing pair; all single-
    party marginals are uniform, so the box is nonsignaling.
    """

    def __init__(self, params: ChainParams):
        self.params = params

    def probabilities(self, pair: SettingPair) -> np.ndarray:
        if is_closing_pair(self.params, pair.a_index, pair.b_index):
            return np.array([0.5, 0.0, 0.0, 0.5])
        return np.array([0.0, 0.5, 0.5, 0.0])


def check_nonsignaling(dist, params: ChainParams, tol: float = 1e-12) -> None:
    """Raise if any party's marginal depends on the remote setting choice."""
    a_marg: dict[int, np.ndarray] = {}
    b_marg: dict[int, np.ndarray] = {}
    for pair in settings_set(params):
        p = np.asarray(dist.probabilities(pair)).reshape(2, 2)
        ma, mb = p.sum(axis=1), p.sum(axis=0)
        for store, idx, m in ((a_marg, pair.a_index, ma), (b_marg, pair.b_index, mb)):
            if idx in store:
                if np.max(np.abs(store[idx] - m)) > tol:
                    raise ValueError(
                        f"distribution signals: marginal of setting {idx} depends "
                        f"on the remote setting"
                    )
            else:
                store[idx] = m


# A schedule maps the history of past trial scores (0/1) to this trial's
# local weight.  Each schedule declares the minimum weight it can emit.


@dataclass
class ConstantSchedule:
    q: float = 1.0

    @property
    def p_min(self) -> float:
        return self.q

    def __call__(self, history: Sequence[int]) -> float:
        return self.q


@dataclass
class RampSchedule:
    """Linear drift from q0 to q1 over n_trials trials."""

    q0: float = 0.0
    q1: float = 1.0
    n_trials: int = 1000

    @property
    def p_min(self) -> float:
        return min(self.q0, self.q1)

    def __call__(self, history: Sequence[int]) -> float:
        if self.n_trials <= 1:
            return self.q1
        frac = min(len(history), self.n_trials - 1) / (self.n_trials - 1)
        return self.q0 + (self.q1 - self.q0) * frac


@dataclass
class OutcomeReactiveSchedule:
    """Adversary that raises the local weight after runs of score-1 trials.

    Starts at ``base`` and moves toward 1 by ``step`` for each trailing run of
    ``run_length`` consecutive 1s, dropping back to ``base`` when the run
    breaks; never emits below ``base``.
    """

    base: float = 0.5
    step: float = 0.1
    run_length: int = 3

    @property
    def p_min(self) -> float:
        return self.base

    def __call__(self, history: Sequence[int]) -> float:
        run = 0
        for t in reversed(history):
            if t != 1:
                break
            run += 1
        boost = (run // self.run_length) * self.step
        return min(1.0, self.base + boost)


@dataclass
class BlockPeriodicSchedule:
    """Sinusoidal drift between q_min and q_max with the given period."""

    q_min: float = 0.3
    q_max: float = 1.0
    period: int = 100

    @property
    def p_min(self) -> float:
        return self.q_min

    def __call__(self, history: Sequence[int]) -> float:
        phase = 2.0 * math.pi * (len(history) % self.period) / self.period
        return self.q_min + (self.q_max - self.q_min) * 0.5 * (1.0 - math.cos(phase))


class MixtureModel:
    """Per-trial mixture p_local * P_L + (1 - p_local) * P_NL.

    The schedule may consult the history of past trial scores; emitted
    weights are audited against [p_min, 1] at generation time.  P_L must
    respect the chained Bell inequality and P_NL must be nonsignaling (both
    checked at construction).
    """

    def __init__(
        self,
        params: ChainParams,
        schedule,
        local=None,
        nonlocal_dist=None,
        validate: bool = True,
    ):
        self.params = params
        self.schedule = schedule
        self.local = local if local is not None else uniform_local(params.N)
        self.nonlocal_dist = (
            nonlocal_dist if nonlocal_dist is not None else ChainPRBox(params)
        )
        if validate:
            check_nonsignaling(self.nonlocal_dist, params, tol=1e-12)
            i_local = distribution_chain_value(self.local, params)
            if i_local < 1.0 - 1e-9:
                raise ValueError(
                    f"local part violates the chained Bell inequality: "
                    f"I_N = {i_local:.6f} < 1"
                )

    @property
    def p_min(self) -> float:
        return self.schedule.p_min

    def local_weight(self, history: Sequence[int]) -> float:
        p = self.schedule(history)
        if not self.p_min - 1e-12 <= p <= 1.0 + 1e-12:
            raise ValueError(
                f"schedule emitted weight {p} outside [{self.p_min}, 1]"
            )
        return min(1.0, max(self.p_min, p))

    def probabilities(self, pair: SettingPair, history: Sequence[int] = ()) -> np.ndarray:
        p = self.local_weight(history)
        return p * self.local.probabilities(pair) + (1.0 - p) * (
            self.nonlocal_dist.probabilities(pair)
        )


def distribution_chain_value(dist, params: ChainParams) -> float:
    """I_N of an arbitrary distribution, evaluated over the settings chain."""
    value = 0.0
    for pair in settings_set(params):
        p = np.asarray(dist.probabilities(pair))
        c = float(p[0] + p[3])
        if is_closing_pair(params, pair.a_index, pair.b_index):
            value += 1.0 - c
        else:
            value += c
    return value
