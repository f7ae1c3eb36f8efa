import numpy as np
import pytest

from chainbell import (
    BRIGHT,
    ChainParams,
    ChainPRBox,
    ConstantSchedule,
    DARK,
    DeterministicStrategy,
    LocalMixture,
    MixtureModel,
    OutcomeReactiveSchedule,
    RampSchedule,
    check_nonsignaling,
    distribution_chain_value,
    minimal_local,
    settings_set,
    uniform_local,
)


class TestLocalStrategies:
    def test_always_bb_chain_value(self):
        # perfectly correlated strategy: I_N = 2N - 1
        for N in (2, 4, 7):
            params = ChainParams(N)
            strategy = LocalMixture([DeterministicStrategy.constant(N, BRIGHT, BRIGHT)])
            assert distribution_chain_value(strategy, params) == pytest.approx(2 * N - 1)

    def test_minimal_strategy_saturates_local_bound(self):
        for N in (2, 3, 6, 11):
            params = ChainParams(N)
            assert distribution_chain_value(minimal_local(N), params) == pytest.approx(1.0)

    def test_uniform_local_value(self):
        for N in (2, 5):
            params = ChainParams(N)
            assert distribution_chain_value(uniform_local(N), params) == pytest.approx(N)

    def test_local_mixture_validation(self):
        with pytest.raises(ValueError):
            LocalMixture([])
        s = DeterministicStrategy.constant(2, BRIGHT, BRIGHT)
        with pytest.raises(ValueError):
            LocalMixture([s], weights=[0.7])


class TestChainPRBox:
    @pytest.mark.parametrize("N", [2, 3, 6, 12])
    def test_attains_zero(self, N):
        params = ChainParams(N)
        assert distribution_chain_value(ChainPRBox(params), params) == pytest.approx(0.0)

    def test_nonsignaling(self):
        params = ChainParams(6)
        check_nonsignaling(ChainPRBox(params), params, tol=1e-15)

    def test_signaling_distribution_rejected(self):
        class Leaky:
            def probabilities(self, pair):
                # a's marginal depends on b's setting
                if pair.b_index == 1:
                    return np.array([1.0, 0.0, 0.0, 0.0])
                return np.array([0.0, 0.0, 1.0, 0.0])

        params = ChainParams(3)
        with pytest.raises(ValueError, match="signals"):
            check_nonsignaling(Leaky(), params)


class TestMixtureModel:
    def test_all_local_respects_inequality(self):
        params = ChainParams(4)
        model = MixtureModel(params, ConstantSchedule(1.0))
        assert distribution_chain_value(model, params) >= 1.0 - 1e-12

    def test_all_nonlocal_reaches_zero(self):
        params = ChainParams(4)
        model = MixtureModel(params, ConstantSchedule(0.0))
        assert distribution_chain_value(model, params) == pytest.approx(0.0)

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
    def test_linearity_in_weight(self, q):
        # with the zero-value box, expected I_N = q * I_N(local part) exactly
        params = ChainParams(5)
        model = MixtureModel(params, ConstantSchedule(q))
        i_local = distribution_chain_value(model.local, params)
        assert distribution_chain_value(model, params) == pytest.approx(q * i_local)

    def test_rejects_local_part_violating_inequality(self):
        params = ChainParams(3)
        with pytest.raises(ValueError, match="local part violates"):
            MixtureModel(
                params, ConstantSchedule(1.0), local=ChainPRBox(params)
            )

    def test_schedule_below_minimum_rejected(self):
        class Cheater:
            p_min = 0.5

            def __call__(self, history):
                return 0.1

        params = ChainParams(3)
        model = MixtureModel(params, Cheater())
        pair = settings_set(params)[0]
        with pytest.raises(ValueError, match="outside"):
            model.probabilities(pair)

    def test_probabilities_are_distributions(self):
        params = ChainParams(4)
        model = MixtureModel(params, ConstantSchedule(0.3), local=minimal_local(4))
        for pair in settings_set(params):
            p = model.probabilities(pair)
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p >= 0)

    def test_monte_carlo_linearity(self):
        # sampled mean of the trial score matches q*E[T|local] + (1-q)*E[T|nonlocal]
        # within 3 sigma at 10^6 trials
        N, q, n = 4, 0.37, 10**6
        params = ChainParams(N)
        model = MixtureModel(params, ConstantSchedule(q), local=minimal_local(N))
        from chainbell.certify import trial_score_probability

        t1_local, t1_nonlocal = trial_score_probability(model, params)
        p_mix = q * t1_local + (1 - q) * t1_nonlocal
        rng = np.random.default_rng(123)
        pair_idx = rng.integers(0, 2 * N, size=n)
        hits = rng.random(n) < p_mix[pair_idx]
        expected = p_mix.mean()  # uniform pair choice
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(hits.mean() - expected) < 3 * sigma


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.8)
        assert s([]) == 0.8
        assert s([1, 1, 0]) == 0.8
        assert s.p_min == 0.8

    def test_ramp_endpoints(self):
        s = RampSchedule(0.0, 1.0, 11)
        assert s([]) == 0.0
        assert s([0] * 10) == 1.0
        assert s([0] * 5) == pytest.approx(0.5)
        assert s.p_min == 0.0

    def test_reactive_never_below_minimum(self):
        s = OutcomeReactiveSchedule(base=0.3, step=0.2, run_length=2)
        rng = np.random.default_rng(5)
        history = list(rng.integers(0, 2, size=10**5))
        for i in range(0, len(history), 997):
            assert 0.3 <= s(history[:i]) <= 1.0
        assert s.p_min == 0.3

    def test_reactive_reacts(self):
        s = OutcomeReactiveSchedule(base=0.5, step=0.1, run_length=3)
        assert s([0, 0]) == 0.5
        assert s([1, 1, 1]) == pytest.approx(0.6)
        assert s([1] * 30) == 1.0
