"""Memory-robust confidence bound on the minimum local fraction.

The analysis scores each analyzed trial with a binary statistic T whose
conditional success probability, under any memory model with local fraction
never below p_min, is at most (2N - p_min)/(2N).  The tail of the observed
sum t = sum T_i is therefore dominated by a binomial tail, and inverting the
family of binomial tail tests yields a one-sided confidence interval
[0, p_hat] for p_min:

    p_hat = max { x in [0, 1] : B_tail(t, n, (2N - x)/(2N)) >= alpha }.

The tail is continuous and strictly decreasing in x for t >= 1, so p_hat is
found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betainc

from .chain import ChainParams, is_closing_pair, settings_set
from .mixtures import MixtureModel


def binomial_tail(y: int, n: int, q: float) -> float:
    """P(Bin(n, q) >= y), via the regularized incomplete beta function.

    Stable for large n (the experiment has n = 1,361); B_tail(0, n, q) = 1
    exactly.
    """
    if not 0 <= y <= n:
        raise ValueError(f"y must be in [0, n], got y={y}, n={n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if y == 0:
        return 1.0
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    return float(betainc(y, n - y + 1, q))


def binomial_tail_exact(y: int, n: int, q: Fraction | float) -> Fraction:
    """Exact rational binomial tail by direct summation; small-n oracle."""
    if not 0 <= y <= n:
        raise ValueError(f"y must be in [0, n], got y={y}, n={n}")
    q = Fraction(q)
    total = Fraction(0)
    for k in range(y, n + 1):
        total += math.comb(n, k) * q**k * (1 - q) ** (n - k)
    return total


@dataclass(frozen=True)
class LocalContentBound:
    """One-sided confidence interval [0, p_hat] for the minimum local fraction."""

    t: int
    n: int
    N: int
    alpha: float
    p_hat: float


def local_content_bound(t: int, n: int, N: int, alpha: float) -> LocalContentBound:
    """Invert the binomial tail test family to bound the minimum local fraction.

    Returns the largest x such that a binomial with n trials and success
    probability (2N - x)/(2N) reaches t or more with probability >= alpha.
    t = 0 gives p_hat = 1 (no exclusion).
    """
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, n], got t={t}, n={n}")
    if N < 2:
        raise ValueError(f"chain order N must be >= 2, got {N}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    def tail(x: float) -> float:
        return binomial_tail(t, n, (2 * N - x) / (2 * N))

    if t == 0 or tail(1.0) >= alpha:
        p_hat = 1.0
    else:
        lo, hi = 0.0, 1.0  # tail(0) = 1 >= alpha always
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if tail(mid) >= alpha:
                lo = mid
            else:
                hi = mid
        p_hat = lo
    return LocalContentBound(t=t, n=n, N=N, alpha=alpha, p_hat=min(1.0, max(0.0, p_hat)))


def trial_score_probability(model: MixtureModel, params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair P(T=1) under the local and nonlocal parts of a mixture.

    Returned in chain order; the score is 1 on a mismatch except on the
    closing pair, where it is 1 on a match.
    """
    p_local = []
    p_nonlocal = []
    for pair in settings_set(params):
        closing = is_closing_pair(params, pair.a_index, pair.b_index)
        for dist, store in ((model.local, p_local), (model.nonlocal_dist, p_nonlocal)):
            pr = np.asarray(dist.probabilities(pair))
            c = float(pr[0] + pr[3])
            store.append(c if closing else 1.0 - c)
    return np.array(p_local), np.array(p_nonlocal)


def coverage_monte_carlo(
    schedule_factory,
    n: int,
    N: int,
    alpha: float,
    runs: int,
    seed: int = 0,
    local=None,
    nonlocal_dist=None,
) -> float:
    """Empirical coverage of the local-content bound under a memory model.

    Simulates ``runs`` experiments of ``n`` analyzed trials each with
    uniformly random settings and outcomes drawn from the mixture model whose
    weight schedule is built afresh per run by ``schedule_factory``.  Returns
    the fraction of runs whose p_hat covers the schedule's declared minimum
    local fraction; validity requires this to be >= 1 - alpha up to binomial
    fluctuation.
    """
    params = ChainParams(N, alpha)
    probe_model = MixtureModel(params, schedule_factory(), local, nonlocal_dist)
    p_min = probe_model.p_min
    t1_local, t1_nonlocal = trial_score_probability(probe_model, params)

    rng = np.random.default_rng(seed)
    phat_cache: dict[int, float] = {}
    covered = 0
    constant = all(
        schedule_factory()(list(h)) == p_min for h in ([], [1], [1, 1, 1], [0, 1])
    )
    for _ in range(runs):
        pair_idx = rng.integers(0, 2 * N, size=n)
        u = rng.random(n)
        if constant:
            p_success = p_min * t1_local[pair_idx] + (1.0 - p_min) * t1_nonlocal[pair_idx]
            t = int(np.sum(u < p_success))
        else:
            schedule = schedule_factory()
            history: list[int] = []
            for i in range(n):
                w = schedule(history)
                if w < p_min - 1e-12:
                    raise ValueError(f"schedule emitted weight {w} below its minimum {p_min}")
                j = pair_idx[i]
                p_success = w * t1_local[j] + (1.0 - w) * t1_nonlocal[j]
                history.append(1 if u[i] < p_success else 0)
            t = sum(history)
        if t not in phat_cache:
            phat_cache[t] = local_content_bound(t, n, N, alpha).p_hat
        if phat_cache[t] >= p_min:
            covered += 1
    return covered / runs


def proposition_brute_force(n: int, q: float, y: int, grid_points: int = 5) -> float:
    """Maximal P(sum T_i >= y) over adaptive strategies bounded by q.

    Exhaustive backward induction over history-dependent success
    probabilities drawn from the grid {0, q/4, q/2, 3q/4, q}; the optimum
    must not exceed the binomial tail B_tail(y, n, q), with equality at the
    constant-q strategy.  Only tractable for small n.
    """
    if n > 12:
        raise ValueError(f"brute force is limited to n <= 12, got {n}")
    if not 0 <= y <= n:
        raise ValueError(f"y must be in [0, n], got y={y}, n={n}")
    grid = [q * i / (grid_points - 1) for i in range(grid_points)]
    # value[s] = max attainable P(final sum >= y | current sum s) with the
    # remaining trials; iterate trials backward.
    value = [1.0 if s >= y else 0.0 for s in range(n + 1)]
    for i in range(n - 1, -1, -1):
        new = [0.0] * (n + 1)
        for s in range(i + 1):
            new[s] = max(p * value[s + 1] + (1.0 - p) * value[s] for p in grid)
        value = new
    return value[0]
