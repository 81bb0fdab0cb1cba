import numpy as np
import pytest

from specshare.simulator import SimConfig
from specshare.trajectories import (SCHEDULES, BehaviorPolicy,
                                    EpsilonSchedule, behavior_action, collect,
                                    load, save)
from tests.test_fsc import random_policy

CFG = SimConfig(lte_count=1, wifi_count=1, seed=0)


def make_behavior(epsilon=0.5, seed=0):
    rng = np.random.default_rng(seed)
    policies = [random_policy(rng, z=2, n_actions=7, n_obs=24,
                              action_set=CFG.cw_set)
                for _ in range(CFG.agent_count)]
    return BehaviorPolicy(policies=policies, epsilon=epsilon)


class TestEpsilonSchedule:
    def test_presets(self):
        assert SCHEDULES["a"].epsilon(0) == pytest.approx(0.9)
        assert SCHEDULES["a"].epsilon(39) == pytest.approx(0.5)
        assert SCHEDULES["b"].epsilon(39) == pytest.approx(0.2)

    def test_linear_midpoint(self):
        sched = EpsilonSchedule(0.9, 0.5, 41)
        assert sched.epsilon(20) == pytest.approx(0.7)

    def test_clamped_outside_range(self):
        sched = SCHEDULES["a"]
        assert sched.epsilon(100) == pytest.approx(0.5)
        assert sched.epsilon(-3) == pytest.approx(0.9)

    @pytest.mark.parametrize("rounds", [0, 1])
    def test_one_round_or_none_stays_at_the_start(self, rounds):
        sched = EpsilonSchedule(0.9, 0.5, rounds)
        assert [sched.epsilon(i) for i in (-1, 0, 1, 7)] == [0.9] * 4


@pytest.mark.parametrize("epsilon", [-0.1, 1.1, float("nan")])
def test_behavior_epsilon_outside_unit_interval_rejected(epsilon):
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
        make_behavior(epsilon=epsilon)


class TestBehaviorAction:
    def test_full_exploration_uniform(self):
        beh = make_behavior(epsilon=1.0)
        rng = np.random.default_rng(1)
        actions, probs = zip(*(behavior_action(beh, 0, 0, rng)
                               for _ in range(5000)))
        assert all(p == pytest.approx(1 / 7) for p in probs)
        assert set(actions) == set(CFG.cw_set)

    def test_pure_exploitation(self):
        beh = make_behavior(epsilon=0.0)
        pol = beh.policies[0]
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, p = behavior_action(beh, 0, 1, rng)
            assert p == pytest.approx(pol.pi[1, pol.action_index(a)])

    def test_mixture_probability(self):
        beh = make_behavior(epsilon=0.5)
        pol = beh.policies[0]
        # force a deterministic row to check the mixture arithmetic
        pol.pi[0] = 0.0
        pol.pi[0, 3] = 1.0
        rng = np.random.default_rng(3)
        probs = {behavior_action(beh, 0, 0, rng) for _ in range(2000)}
        star = [p for a, p in probs if a == pol.action_set[3]]
        assert star and all(p == pytest.approx(0.5 / 7 + 0.5) for p in star)
        others = [p for a, p in probs if a != pol.action_set[3]]
        assert all(p == pytest.approx(0.5 / 7) for p in others)

    def test_probabilities_bounded_below(self):
        beh = make_behavior(epsilon=0.3)
        rng = np.random.default_rng(4)
        for _ in range(500):
            _, p = behavior_action(beh, 1, 0, rng)
            assert p >= 0.3 / 7


class TestCollect:
    def test_shapes(self):
        eps = collect(CFG, make_behavior(), 3, 10, seed=5)
        assert len(eps) == 3
        for ep in eps:
            assert len(ep.rewards) == 10
            for tr in ep.agents:
                assert len(tr.actions) == 10
                assert len(tr.obs_us) == len(tr.obs_bin) == 10
                assert len(tr.pi_behavior) == len(tr.rewards) == 10
                assert all(a in CFG.cw_set for a in tr.actions)
                assert all(p > 0.0 for p in tr.pi_behavior)

    def test_reproducible(self):
        a = collect(CFG, make_behavior(), 2, 8, seed=6)
        b = collect(CFG, make_behavior(), 2, 8, seed=6)
        assert a == b

    def test_rewards_non_decreasing(self):
        eps = collect(CFG, make_behavior(), 2, 12, seed=7)
        for ep in eps:
            for tr in ep.agents:
                assert all(r1 <= r2 for r1, r2 in zip(tr.rewards, tr.rewards[1:]))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            collect(CFG, make_behavior(), 0, 10)
        with pytest.raises(ValueError):
            collect(CFG, make_behavior(), 1, 0)


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        eps = collect(CFG, make_behavior(), 3, 6, seed=8)
        path = tmp_path / "eps.jsonl"
        save(eps, path)
        assert load(path) == eps

    def test_blank_lines_skipped(self, tmp_path):
        eps = collect(CFG, make_behavior(), 2, 4, seed=9)
        path = tmp_path / "eps.jsonl"
        save(eps, path)
        first, second = path.read_text().splitlines()
        path.write_text("\n" + first + "\n  \n\n" + second + "\n\n")
        assert load(path) == eps

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load(path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other-v9", "k": 0, "agents": [], "rewards": []}\n')
        with pytest.raises(ValueError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "nope.jsonl")
