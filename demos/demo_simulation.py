#!/usr/bin/env python3
"""Simulate a full randomized-block experiment, end to end.

Each block draws one of the 2N setting pairs at random and repeats it for
block_size trials; only one pre-registered trial per block enters the
analysis, so the analyzed trials are independent of the settings history.
A heralding check (fluorescence counts from both ions) runs between trials;
a trial counts only if the g preceding checks were all bright enough,
which guards against ion-loss collisions without peeking at outcomes.
"""

import numpy as np

from chainbell import (
    ChainParams,
    CollisionSpec,
    ProtocolSpec,
    QuantumSource,
    chain_estimate_from_stats,
    extract_analysis_trials,
    ideal_chain_value,
    local_content_bound,
    pair_stats_from_log,
    phi_plus,
    run_protocol,
    t_statistic,
)

print(__doc__)

N = 6
params = ChainParams(N)
protocol = ProtocolSpec(blocks=1398, block_size=100, analyzed_index=50)
collisions = CollisionSpec(event_rate=2e-5, recovery="transient", duration=60)

log = run_protocol(
    QuantumSource(phi_plus()), params, protocol,
    collisions=collisions, seed=2026,
)
heralded = sum(r.heralded for r in log)
print(f"simulated {len(log)} trials in {protocol.blocks} blocks "
      f"({heralded} heralded)")

# ---------------------------------------------------------------------------
# Estimate I_6 from every heralded trial.
# ---------------------------------------------------------------------------
stats = pair_stats_from_log(log, params)
est = chain_estimate_from_stats(stats, params)
print(f"I_6 estimate: {est.value:.4f} +/- {est.stderr:.4f} "
      f"(quantum minimum {ideal_chain_value(N):.4f})")

# ---------------------------------------------------------------------------
# Certify from the analyzed trials only.
# ---------------------------------------------------------------------------
sel = extract_analysis_trials(log, protocol)
t = int(t_statistic(sel.trials, params).sum())  # one score per analyzed trial
print(f"analyzed trials: {sel.n} "
      f"({sel.discarded_unheralded} discarded by heralding)")
print(f"score sum t = {t}")
for alpha in (0.05, 0.01):
    bound = local_content_bound(t, sel.n, N, alpha)
    print(f"  alpha = {alpha:<5g} -> p_local^min <= {bound.p_hat:.4f}")

# ---------------------------------------------------------------------------
# Reproducibility: the same seed regenerates the identical log.
# ---------------------------------------------------------------------------
log2 = run_protocol(
    QuantumSource(phi_plus()), params, protocol,
    collisions=collisions, seed=2026,
)
print(f"\nsame seed reproduces the log exactly: {log == log2}")
