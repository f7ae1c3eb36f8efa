import hashlib

import numpy as np
import pytest

from chainbell import (
    ChainParams,
    CollisionSpec,
    ConstantSchedule,
    DetectionSpec,
    HeraldSpec,
    MixtureModel,
    MixtureSource,
    OutcomeReactiveSchedule,
    ProtocolSpec,
    QuantumSource,
    adversary_schedules,
    chain_estimate,
    extract_analysis_trials,
    herald_flags,
    ideal_chain_value,
    phi_plus,
    run_protocol,
)
from chainbell.simulate import _ion_status


def log_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.trial_index}|{r.block_index}|{r.pair.key}|{r.outcome_a}"
            f"{r.outcome_b}|{r.heralded}|{r.check_counts}".encode()
        )
    return h.hexdigest()


def quantum_run(N=3, blocks=50, block_size=4, seed=11, **kwargs):
    return run_protocol(
        QuantumSource(phi_plus()),
        ChainParams(N),
        ProtocolSpec(blocks=blocks, block_size=block_size, analyzed_index=1),
        seed=seed,
        **kwargs,
    )


class TestDeterminism:
    def test_identical_seeds_identical_logs(self):
        assert log_digest(quantum_run()) == log_digest(quantum_run())

    def test_different_seeds_differ(self):
        assert log_digest(quantum_run(seed=1)) != log_digest(quantum_run(seed=2))

    def test_history_dependent_path_deterministic(self):
        params = ChainParams(3)
        model = lambda: MixtureModel(params, OutcomeReactiveSchedule(0.5, 0.1, 3))
        run = lambda: run_protocol(
            MixtureSource(model()), params,
            ProtocolSpec(blocks=30, block_size=2, analyzed_index=1), seed=3,
        )
        assert log_digest(run()) == log_digest(run())


class TestSettingsRandomization:
    def test_uniform_pair_frequencies(self):
        # each pair within 4 sigma of 1/(2N) over 10^4 blocks
        N, blocks = 3, 10**4
        log = quantum_run(N=N, blocks=blocks, block_size=1, seed=42)
        counts = {}
        for r in log:
            counts[r.pair.key] = counts.get(r.pair.key, 0) + 1
        p = 1 / (2 * N)
        sigma = np.sqrt(blocks * p * (1 - p))
        for key, c in counts.items():
            assert abs(c - blocks * p) < 4 * sigma, key

    def test_blocks_share_settings(self):
        log = quantum_run(blocks=20, block_size=10)
        for b in range(20):
            keys = {r.pair.key for r in log if r.block_index == b}
            assert len(keys) == 1

    def test_custom_pair_weights(self):
        params = ChainParams(2)
        weights = (1.0, 0.0, 0.0, 0.0)
        log = run_protocol(
            QuantumSource(phi_plus()), params,
            ProtocolSpec(blocks=100, block_size=1, analyzed_index=1, pair_weights=weights),
            seed=0,
        )
        assert {r.pair.key for r in log} == {(1, 1)}


class TestHeralding:
    def test_healthy_run_mostly_heralded(self):
        log = quantum_run(blocks=200, block_size=5)
        frac = np.mean([r.heralded for r in log])
        assert frac > 0.95

    def test_certain_permanent_collision_kills_heralding(self):
        herald = HeraldSpec()
        log = quantum_run(
            blocks=30, block_size=4,
            collisions=CollisionSpec(event_rate=1.0, recovery="permanent"),
        )
        # once the window only sees post-collision checks, nothing heralds
        assert not any(r.heralded for r in log[herald.g :])

    def test_flags_depend_only_on_prefix(self):
        # truncation test: recomputing flags from a prefix of the check stream
        # reproduces the flags of the retained trials
        herald = HeraldSpec()
        log = quantum_run(blocks=100, block_size=3,
                          collisions=CollisionSpec(event_rate=0.01, recovery="transient"))
        checks = np.array(
            list(log[0].check_counts)
            + [r.check_counts[-1] for r in log[1:]]
            + [0]  # trailing check, never inside any trial's window
        )
        full = herald_flags(checks, herald)
        assert np.array_equal(full, [r.heralded for r in log])
        for cut in (10, 57, 200):
            prefix = herald_flags(checks[: cut + herald.g], herald)
            assert np.array_equal(prefix, full[:cut])
            assert np.array_equal(prefix, [r.heralded for r in log[:cut]])

    def test_check_counts_window_length(self):
        herald = HeraldSpec(g=5)
        log = quantum_run(blocks=5, block_size=2, herald=herald)
        assert all(len(r.check_counts) == 5 for r in log)


class TestCollisions:
    def test_transient_recovery(self):
        status = _ion_status(
            200, CollisionSpec(event_rate=0.0), np.random.default_rng(0)
        )
        assert status.all()
        rng = np.random.default_rng(1)
        spec = CollisionSpec(event_rate=0.05, recovery="transient", duration=10)
        status = _ion_status(2000, spec, rng)
        assert (~status).any() and status.any()
        # recovery happens: some healthy trial follows some dead trial
        dead_idx = np.flatnonzero(~status)
        assert status[dead_idx[0] :].any()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CollisionSpec(event_rate=1.5)
        with pytest.raises(ValueError):
            CollisionSpec(recovery="sometimes")


class TestStatisticalMatch:
    @pytest.mark.parametrize("N", [2, 6])
    def test_ideal_source_matches_quantum_minimum(self, N):
        params = ChainParams(N)
        log = run_protocol(
            QuantumSource(phi_plus()), params,
            ProtocolSpec(blocks=10**5, block_size=1, analyzed_index=1),
            seed=N,
        )
        est = chain_estimate(log, params)
        assert abs(est.value - ideal_chain_value(N)) < 3 * est.stderr

    def test_all_local_source_respects_inequality(self):
        # constant p_local = 1: estimate stays above 1 - 3 sigma
        N = 3
        params = ChainParams(N)
        model = MixtureModel(params, ConstantSchedule(1.0))
        log = run_protocol(
            MixtureSource(model), params,
            ProtocolSpec(blocks=10**5, block_size=1, analyzed_index=1),
            seed=9,
        )
        est = chain_estimate(log, params)
        assert est.value >= 1.0 - 3 * est.stderr

    def test_count_detection_adds_small_error(self):
        params = ChainParams(2)
        log = run_protocol(
            QuantumSource(phi_plus()), params,
            ProtocolSpec(blocks=2 * 10**4, block_size=1, analyzed_index=1),
            detection=DetectionSpec(model="counts"),
            seed=5,
        )
        est = chain_estimate(log, params)
        # dark->bright misclassification P(Poisson(2) > 6) ~ 4.5e-3 shifts the
        # estimate up slightly but leaves a clear violation
        assert est.value < 1.0
        assert est.value > ideal_chain_value(2) - 0.01


class TestExtraction:
    def test_analyzed_trial_selection(self):
        protocol = ProtocolSpec(blocks=40, block_size=10, analyzed_index=5)
        log = run_protocol(
            QuantumSource(phi_plus()), ChainParams(2), protocol, seed=2
        )
        sel = extract_analysis_trials(log, protocol)
        assert sel.blocks == 40
        assert sel.n + sel.discarded_unheralded == 40
        for r in sel.trials:
            assert r.trial_index % 10 == 4
            assert r.heralded

    def test_first_trial_selection(self):
        protocol = ProtocolSpec(blocks=10, block_size=3, analyzed_index=1)
        log = run_protocol(QuantumSource(phi_plus()), ChainParams(2), protocol, seed=2)
        sel = extract_analysis_trials(log, protocol)
        assert [r.trial_index % 3 for r in sel.trials] == [0] * sel.n

    def test_short_block_rejected(self):
        protocol = ProtocolSpec(blocks=2, block_size=5, analyzed_index=5)
        log = run_protocol(QuantumSource(phi_plus()), ChainParams(2), protocol, seed=2)
        with pytest.raises(ValueError, match="fewer than"):
            extract_analysis_trials(log[:-1], protocol)

    def test_selects_by_trial_index(self):
        protocol = ProtocolSpec(blocks=4, block_size=3, analyzed_index=2)
        log = run_protocol(QuantumSource(phi_plus()), ChainParams(2), protocol, seed=2)
        order = np.arange(len(log))
        with pytest.raises(ValueError, match="fewer than"):
            extract_analysis_trials(log[order != 1], protocol)
        swapped = order.copy()
        swapped[[1, 2]] = [2, 1]
        with pytest.raises(ValueError, match="out of order"):
            extract_analysis_trials(log[swapped], protocol)
        with pytest.raises(ValueError, match="duplicated"):
            extract_analysis_trials(log[np.where(order == 2, 1, order)], protocol)

    def test_all_unheralded_gives_empty(self):
        protocol = ProtocolSpec(blocks=20, block_size=2, analyzed_index=2)
        log = run_protocol(
            QuantumSource(phi_plus()), ChainParams(2), protocol, seed=2
        )
        from dataclasses import replace

        unheralded = [replace(r, heralded=False) for r in log]
        sel = extract_analysis_trials(unheralded, protocol)
        assert sel.trials == []
        assert sel.discarded_unheralded == 20

    def test_full_scale_run(self):
        protocol = ProtocolSpec(blocks=300, block_size=100, analyzed_index=50)
        log = run_protocol(
            QuantumSource(phi_plus()), ChainParams(6), protocol,
            collisions=CollisionSpec(event_rate=2e-4, recovery="transient", duration=60),
            seed=6,
        )
        assert len(log) == 30000
        sel = extract_analysis_trials(log, protocol)
        assert sel.n <= 300
        assert sel.n > 250


def test_adversary_schedule_library():
    lib = adversary_schedules()
    assert {"constant", "ramp", "outcome_reactive", "block_periodic"} <= set(lib)
    assert lib["constant"](0.5).p_min == 0.5
