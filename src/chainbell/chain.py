"""Settings geometry, per-trial statistics, and estimators for chained Bell tests.

Everything in this module is computable from a trial log alone: no model of
the source is required.  The Nth chained Bell test uses 2N measurement-setting
pairs arranged in a chain

    a1b1, a1b2, a2b2, a2b3, ..., aNbN, aNb1,

and the chained Bell parameter is the sum of the correlations of the first
2N-1 pairs plus one minus the correlation of the closing pair (aN, b1).
Local hidden-variable models obey I_N >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

import numpy as np

BRIGHT = "B"
DARK = "D"
# Outcome (a, b) of index 0..3, the column order of every outcome table.
OUTCOMES = ((BRIGHT, BRIGHT), (BRIGHT, DARK), (DARK, BRIGHT), (DARK, DARK))

Mode = Literal["correlation", "anticorrelation"]


def angle_a(N: int, k: int) -> float:
    """Measurement phase for setting a_k: (2k-1)*pi/(2N)."""
    return (2 * k - 1) * math.pi / (2 * N)


def angle_b(N: int, l: int) -> float:
    """Measurement phase for setting b_l: -(l-1)*pi/N."""
    return -(l - 1) * math.pi / N


@dataclass(frozen=True)
class ChainParams:
    """Order N of the chained Bell test and the significance level alpha."""

    N: int
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"chain order N must be >= 2, got {self.N}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def n_pairs(self) -> int:
        return 2 * self.N


@dataclass(frozen=True)
class SettingPair:
    """One admissible setting pair (a_k, b_l) with its derived phases.

    Pairs are keyed by the integer indices (k, l); the angles are derived and
    never used as keys.
    """

    a_index: int
    b_index: int
    angle_a: float
    angle_b: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.a_index, self.b_index)


def is_closing_pair(params: ChainParams, k: int, l: int) -> bool:
    """True for the chain-closing pair (a_N, b_1)."""
    return (k, l) == (params.N, 1)


def make_pair(params: ChainParams, k: int, l: int) -> SettingPair:
    """Build the setting pair (a_k, b_l), rejecting inadmissible index pairs."""
    N = params.N
    if not (1 <= k <= N and 1 <= l <= N and (l in (k, k + 1) or (k, l) == (N, 1))):
        raise ValueError(
            f"setting pair (a_{k}, b_{l}) is not admissible for N={params.N}"
        )
    return SettingPair(k, l, angle_a(params.N, k), angle_b(params.N, l))


def settings_set(params: ChainParams) -> list[SettingPair]:
    """The 2N setting pairs in chain order a1b1, a1b2, a2b2, ..., aNbN, aNb1."""
    N = params.N
    pairs = []
    for k in range(1, N + 1):
        pairs.append(make_pair(params, k, k))
        l = k + 1 if k < N else 1
        pairs.append(make_pair(params, k, l))
    return pairs


@dataclass(frozen=True)
class TrialRecord:
    """One trial of a chained Bell experiment.

    Both outcomes are always present; detection efficiency is modeled
    upstream, never as a missing outcome.  ``check_counts`` holds the photon
    counts of the fluorescence checks immediately preceding this trial (may
    be empty for logs without heralding data); ``heralded`` is the window
    rule applied to those counts.
    """

    trial_index: int
    block_index: int
    pair: SettingPair
    outcome_a: str
    outcome_b: str
    heralded: bool = True
    check_counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.outcome_a not in (BRIGHT, DARK):
            raise ValueError(f"outcome_a must be 'B' or 'D', got {self.outcome_a!r}")
        if self.outcome_b not in (BRIGHT, DARK):
            raise ValueError(f"outcome_b must be 'B' or 'D', got {self.outcome_b!r}")


@dataclass(frozen=True, eq=False)
class TrialLog:
    """A trial log stored as one array per column.

    Row ``i`` is trial ``trial_index[i]`` of block ``block_index[i]``, with
    setting pair ``pairs[pair_idx[i]]``, outcome ``OUTCOMES[outcome_idx[i]]``
    and check counts ``checks[check_pos[i]:check_pos[i] + g]``: consecutive
    trials' windows overlap, so a run of n trials stores one stream of n + g
    counts.  It behaves as a list of TrialRecord: ``log[i]`` is a row view,
    and a slice, mask or index array gives a TrialLog of those rows.
    """

    pairs: tuple[SettingPair, ...]
    trial_index: np.ndarray
    block_index: np.ndarray
    pair_idx: np.ndarray
    outcome_idx: np.ndarray
    heralded: np.ndarray
    checks: np.ndarray
    check_pos: np.ndarray
    g: int
    _ROWS = ("trial_index", "block_index", "pair_idx", "outcome_idx", "heralded", "check_pos")

    @classmethod
    def from_windows(cls, pairs, trial, block, pair_idx, outcome_idx, heralded, windows):
        """A log from its columns and (n, g) check windows, shared where they slide by one."""
        n, g = windows.shape
        if n and g and np.array_equal(windows[1:, :-1], windows[:-1, 1:]):
            checks, check_pos = np.concatenate([windows[0], windows[1:, -1]]), np.arange(n)
        else:
            checks, check_pos = windows.ravel(), np.arange(n) * g
        return cls(tuple(pairs), trial, block, pair_idx.astype(np.min_scalar_type(len(pairs))),
                   outcome_idx.astype(np.uint8), heralded.astype(bool), checks, check_pos, g)

    def __len__(self) -> int:
        return len(self.trial_index)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return next(iter(self[i : i + 1]))
        return replace(self, **{name: getattr(self, name)[key] for name in self._ROWS})

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in self._ROWS)
        for trial, block, pair, outcome, heralded, pos in zip(*columns):
            yield TrialRecord(trial, block, self.pairs[pair], *OUTCOMES[outcome], heralded,
                              tuple(self.checks[pos : pos + self.g].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TrialLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def as_trial_log(trials: TrialLog | Iterable[TrialRecord]) -> TrialLog:
    """A TrialLog as it is; any other iterable of TrialRecord converted once."""
    if isinstance(trials, TrialLog):
        return trials
    records = list(trials)
    g = len(records[0].check_counts) if records else 0
    if any(len(r.check_counts) != g for r in records):
        raise ValueError("every record must carry the same number of check counts")
    pairs: dict[SettingPair, int] = {}
    table = np.array([
        (r.trial_index, r.block_index, pairs.setdefault(r.pair, len(pairs)),
         OUTCOMES.index((r.outcome_a, r.outcome_b)), r.heralded, *r.check_counts)
        for r in records
    ], dtype=np.int64).reshape(-1, 5 + g)
    return TrialLog.from_windows(pairs, *table[:, :5].T, table[:, 5:])


def _chain_rows(pairs: Sequence[SettingPair], used: np.ndarray, params: ChainParams) -> np.ndarray:
    """Chain-order row of each used pair (-1 if unused); an inadmissible used pair raises."""
    rows = np.full(len(pairs), -1)
    for j in np.flatnonzero(used):
        k, l = make_pair(params, *pairs[j].key).key
        rows[j] = 2 * (k - 1) + (l != k)
    return rows


def c_statistic(x: str, y: str) -> int:
    """c(x, y) = 1 if the two outcomes are equal, else 0."""
    return 1 if x == y else 0


def t_statistic(trial, params: ChainParams, mode: Mode = "correlation"):
    """Per-trial binary score used by the memory-robust analysis.

    In correlation mode (state Phi+): 1 iff the outcomes differ, except on
    the closing pair (a_N, b_1) where it is 1 iff they agree.  Anticorrelation
    mode (state Phi-) flips all four cases.  A TrialRecord gives an int; a
    TrialLog (or sequence of records) gives an int array, one score per row.
    """
    log = as_trial_log([trial] if isinstance(trial, TrialRecord) else trial)
    used = np.bincount(log.pair_idx, minlength=len(log.pairs)) > 0
    closing = _chain_rows(log.pairs, used, params) == params.n_pairs - 1
    differ = (log.outcome_idx == 1) | (log.outcome_idx == 2)
    t = (closing[log.pair_idx] != differ) ^ (mode == "anticorrelation")
    return int(t[0]) if isinstance(trial, TrialRecord) else t.astype(np.int64)


@dataclass
class PairStats:
    """Per-pair trial count and mean (anti)correlation."""

    count: int
    mean: float

    @property
    def stderr(self) -> float:
        if self.count < 2:
            raise ValueError(
                f"need at least 2 trials per pair for a standard error, got {self.count}"
            )
        return math.sqrt(self.mean * (1.0 - self.mean) / (self.count - 1))


@dataclass(frozen=True)
class ChainEstimate:
    """Estimated chained Bell parameter with per-pair detail.

    ``per_pair`` maps (k, l) to PairStats in chain order; ``value`` is the
    estimate of I_N (or of its anticorrelation counterpart) and ``stderr`` the
    i.i.d.-propagated standard error sqrt(sum_j eps_j^2).
    """

    value: float
    stderr: float
    per_pair: dict[tuple[int, int], PairStats]
    mode: Mode
    n_trials: int


def pair_stats_from_log(
    log: TrialLog | Iterable[TrialRecord],
    params: ChainParams,
    mode: Mode = "correlation",
    include_unheralded: bool = False,
) -> dict[tuple[int, int], PairStats]:
    """Aggregate a trial log into per-pair counts and mean (anti)correlations.

    One bincount over (pair, outcome) cells gives the 2N x 4 outcome-count
    table.  Unheralded trials are excluded unless ``include_unheralded`` is set.
    """
    log = as_trial_log(log)
    keep = slice(None) if include_unheralded else log.heralded
    cells = np.bincount(
        log.pair_idx[keep].astype(np.intp) * 4 + log.outcome_idx[keep],
        minlength=4 * len(log.pairs),
    ).reshape(-1, 4)
    used = cells.any(axis=1)
    table = np.zeros((params.n_pairs, 4), dtype=np.int64)
    np.add.at(table, _chain_rows(log.pairs, used, params)[used], cells[used])
    counts = table.sum(axis=1)
    agree = table[:, 0] + table[:, 3]
    if mode == "anticorrelation":
        agree = counts - agree
    return {
        pair.key: PairStats(count=c, mean=a / c)
        for pair, c, a in zip(settings_set(params), counts.tolist(), agree.tolist())
        if c
    }


def chain_estimate_from_stats(
    stats: dict[tuple[int, int], PairStats],
    params: ChainParams,
    mode: Mode = "correlation",
) -> ChainEstimate:
    """Chained Bell parameter from per-pair statistics.

    The stats must already be in the requested mode (means are correlations
    in correlation mode, anticorrelations in anticorrelation mode).
    """
    pairs = settings_set(params)
    value = 0.0
    var = 0.0
    ordered: dict[tuple[int, int], PairStats] = {}
    total = 0
    for pair in pairs:
        st = stats.get(pair.key)
        if st is None:
            k, l = pair.key
            raise ValueError(f"no trials for setting pair (a_{k}, b_{l})")
        ordered[pair.key] = st
        total += st.count
        if is_closing_pair(params, *pair.key):
            value += 1.0 - st.mean
        else:
            value += st.mean
        var += st.stderr**2
    return ChainEstimate(
        value=value,
        stderr=math.sqrt(var),
        per_pair=ordered,
        mode=mode,
        n_trials=total,
    )


def chain_estimate(
    log: TrialLog | Iterable[TrialRecord],
    params: ChainParams,
    mode: Mode = "correlation",
    include_unheralded: bool = False,
) -> ChainEstimate:
    """Estimate the chained Bell parameter from a trial log.

    Only heralded trials enter by default.  Every one of the 2N pairs must
    appear at least twice for the propagated standard error to exist.
    """
    stats = pair_stats_from_log(log, params, mode, include_unheralded)
    return chain_estimate_from_stats(stats, params, mode)


def chsh_parameter(estimate: ChainEstimate) -> tuple[float, float]:
    """CHSH sum-of-correlations B = 2(1 - I_2) + 2 from an N=2 estimate.

    Returns (value, stderr).  Local realism implies B <= 2.
    """
    if len(estimate.per_pair) != 4:
        raise ValueError(
            f"CHSH parameter requires an N=2 estimate (4 pairs), "
            f"got {len(estimate.per_pair)} pairs"
        )
    return 2.0 * (1.0 - estimate.value) + 2.0, 2.0 * estimate.stderr


def min_detection_efficiency(N: int) -> float:
    """Minimum detection efficiency closing the detection loophole at order N.

    eta_min(N) = 2 / ((N/(N-1)) * cos(pi/(2N)) + 1), for equal efficiencies
    and a maximally entangled state.
    """
    if N < 2:
        raise ValueError(f"chain order N must be >= 2, got {N}")
    return 2.0 / ((N / (N - 1)) * math.cos(math.pi / (2 * N)) + 1.0)
