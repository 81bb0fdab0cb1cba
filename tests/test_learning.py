import copy
import itertools
import math

import numpy as np
import pytest

import specshare.fsc
import specshare.learning
from specshare.batch import EpisodeBatch
from specshare.fsc import (PointEstimate, forward, forward_pass,
                           log_history_likelihoods, observation_bin,
                           point_estimate)
from specshare.learning import (Hyperparams, VariationalState, _Kernel,
                                _sweep, _update_agent, discounted_rewards,
                                elbo, empirical_value, learn, mean_policy,
                                node_marginals, reward_bounds, reweighted)
from specshare.trajectories import AgentTrack, Episode
from tests.learner_reference import backward_messages, forward_messages
from tests.test_fsc import ACTIONS, random_point_estimate, random_policy


def enumerate_marginals(est, aidx, obins, t):
    """Posterior node marginals by exhaustive path enumeration."""
    z = est.eta.size
    joint = {}
    for path in itertools.product(range(z), repeat=t + 1):
        p = est.eta[path[0]] * est.pi[path[0], aidx[0]]
        for tau in range(1, t + 1):
            p *= est.omega[path[tau - 1], aidx[tau - 1], obins[tau - 1], path[tau]]
            p *= est.pi[path[tau], aidx[tau]]
        joint[path] = p
    total = sum(joint.values())
    singles = np.zeros((t + 1, z))
    pairs = np.zeros((t, z, z))
    for path, p in joint.items():
        for tau in range(t + 1):
            singles[tau, path[tau]] += p
        for tau in range(1, t + 1):
            pairs[tau - 1, path[tau - 1], path[tau]] += p
    return singles / total, pairs / total


def make_episode(k, actions, obs_us, pi_behavior, rewards, n_obs=8):
    track = AgentTrack(actions=list(actions), obs_us=list(obs_us),
                       obs_bin=[observation_bin(o, n_obs) for o in obs_us],
                       pi_behavior=list(pi_behavior),
                       rewards=list(rewards))
    return Episode(k=k, agents=[track], rewards=list(rewards))


class TestForwardBackward:
    def test_single_node_chain(self):
        rng = np.random.default_rng(0)
        est = random_point_estimate(rng, z=1)
        aidx = [0, 1, 2, 0]
        obins = [0, 1, 2]
        alpha = forward_messages(est, aidx, obins)
        expect = est.eta[0] * est.pi[0, 0]
        assert abs(alpha[0, 0] - expect) < 1e-15
        for tau in range(1, 4):
            expect *= est.omega[0, aidx[tau - 1], obins[tau - 1], 0] \
                * est.pi[0, aidx[tau]]
            assert abs(alpha[tau, 0] - expect) < 1e-15
        # a batch of one-node histories: every table entry is 1 and each
        # scale is the step's own factor
        aidx = rng.integers(0, 3, size=(3, 50))
        obins = rng.integers(0, 4, size=(3, 49))
        alpha_hat, log_scale = forward(est, aidx, obins)
        assert alpha_hat.shape == (3, 50, 1) and np.all(alpha_hat == 1.0)
        factors = np.empty((3, 50))
        factors[:, 0] = est.eta[0] * est.pi[0, aidx[:, 0]]
        factors[:, 1:] = est.omega[0, aidx[:, :-1], obins, 0] \
            * est.pi[0, aidx[:, 1:]]
        assert np.allclose(np.exp(log_scale), factors, rtol=1e-14, atol=0.0)
        # a history through a zero omega entry has zero likelihood
        est.omega[0, aidx[1, 20], obins[1, 20], 0] = 0.0
        with pytest.raises(ValueError, match="zero likelihood"):
            forward(est, aidx, obins)

    def test_forward_matches_enumeration(self):
        rng = np.random.default_rng(1)
        est = random_point_estimate(rng, z=2)
        aidx = [0, 1, 2, 1]
        obins = [3, 0, 2]
        alpha = forward_messages(est, aidx, obins)
        z = 2
        for t in range(4):
            got = alpha[t].sum()
            total = 0.0
            for path in itertools.product(range(z), repeat=t + 1):
                p = est.eta[path[0]] * est.pi[path[0], aidx[0]]
                for tau in range(1, t + 1):
                    p *= est.omega[path[tau - 1], aidx[tau - 1],
                                   obins[tau - 1], path[tau]]
                    p *= est.pi[path[tau], aidx[tau]]
                total += p
            assert abs(got - total) < 1e-12

    def test_proper_policy_forward_sums_to_likelihood(self):
        rng = np.random.default_rng(2)
        pol = random_policy(rng, z=3)
        pi_uniform = np.full_like(pol.pi, 1.0 / pol.pi.shape[1])
        est = PointEstimate(eta=pol.eta, pi=pi_uniform, omega=pol.omega)
        aidx = [0, 1, 2]
        obins = [1, 2]
        alpha = forward_messages(est, aidx, obins)
        assert abs(alpha[-1].sum() - (1.0 / 3.0) ** 3) < 1e-12

    def test_backward_terminal_is_one(self):
        rng = np.random.default_rng(3)
        est = random_point_estimate(rng)
        beta = backward_messages(est, [0, 1, 2], [1, 0], 2)
        assert np.all(beta[2] == 1.0)

    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = int(rng.integers(1, 4))
            est = random_point_estimate(rng, z=z)
            t = int(rng.integers(1, 6))
            aidx = rng.integers(0, 3, size=t + 1).tolist()
            obins = rng.integers(0, 4, size=t).tolist()
            singles, pairs = node_marginals(est, aidx, obins, t)
            e_singles, e_pairs = enumerate_marginals(est, aidx, obins, t)
            assert np.max(np.abs(singles - e_singles)) < 1e-12
            assert np.max(np.abs(pairs - e_pairs)) < 1e-12

    def test_marginal_consistency(self):
        rng = np.random.default_rng(5)
        est = random_point_estimate(rng, z=3)
        aidx = [0, 2, 1, 0]
        obins = [1, 3, 0]
        singles, pairs = node_marginals(est, aidx, obins, 3)
        assert np.allclose(singles.sum(axis=1), 1.0, atol=1e-12)
        for tau in range(1, 4):
            assert np.allclose(pairs[tau - 1].sum(axis=0), singles[tau],
                               atol=1e-12)
            assert np.allclose(pairs[tau - 1].sum(axis=1), singles[tau - 1],
                               atol=1e-12)


class TestRewardBounds:
    def test_min_max(self):
        eps = [make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [0, 10])]
        assert reward_bounds(EpisodeBatch(eps, [ACTIONS], 8)) == (0.0, 10.0)

    def test_degenerate_rejected(self):
        eps = [make_episode(0, [15], [50], [0.5], [3])]
        with pytest.raises(ValueError, match="degenerate reward batch"):
            reward_bounds(EpisodeBatch(eps, [ACTIONS], 8))

    def test_mixed_sign(self):
        eps = [make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [-4, 2])]
        assert reward_bounds(EpisodeBatch(eps, [ACTIONS], 8)) == (-4.0, 2.0)


class TestStoredObsBins:
    """A stored bin is its wait's bin at one past the agent's largest
    stored bin: a collector may quantize to fewer bins than the batch."""

    WAITS = [50, 3000, 90000, 7]

    def test_fewer_collector_bins_load(self):
        # binned at 8, the top bin 7 takes 3000 and 90000
        eps = [make_episode(0, [15] * 4, self.WAITS, [0.5] * 4, [0, 1, 2, 3])]
        assert EpisodeBatch(eps, [ACTIONS], 13).obs_bins[0].tolist() \
            == [[5, 7, 7]]

    def test_a_fractional_wait_is_refused(self):
        # a float wait whose bin is right still fails the integer check
        ep = make_episode(0, [15] * 4, self.WAITS, [0.5] * 4, [0, 1, 2, 3])
        ep.agents[0].obs_us = [float(us) for us in self.WAITS]
        with pytest.raises(ValueError, match="obs_us values must be integers"):
            EpisodeBatch([ep], [ACTIONS], 13)

    @pytest.mark.parametrize("step, stored", [(0, 4), (1, 6), (2, 6),
                                              (3, 3), (3, 7)])
    def test_a_bin_off_its_wait_is_refused(self, step, stored):
        ep = make_episode(0, [15] * 4, self.WAITS, [0.5] * 4, [0, 1, 2, 3])
        ep.agents[0].obs_bin[step] = stored
        with pytest.raises(ValueError, match="episode 0 agent 0 step %d: "
                                             "obs_bin %d" % (step, stored)):
            EpisodeBatch([ep], [ACTIONS], 13)


class TestEmpiricalValue:
    def test_hand_sum_with_unit_ratios(self):
        rng = np.random.default_rng(6)
        pol = random_policy(rng, z=2, n_obs=8)
        ep = make_episode(0, [15, 31, 15], [50, 60, 70], [0.5, 0.5, 0.5],
                          [1, 1, 1])
        val = empirical_value([ep], [pol], behavior=[pol], r_min=0.0,
                              gamma=0.9)
        assert abs(val - (1.0 + 0.9 + 0.81)) < 1e-12

    def test_rewards_at_minimum_give_zero(self):
        rng = np.random.default_rng(7)
        pol = random_policy(rng, z=2, n_obs=8)
        ep = make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [2, 2])
        assert empirical_value([ep], [pol], behavior=[pol], r_min=2.0) == 0.0

    def test_duplicate_episode_invariance(self):
        rng = np.random.default_rng(8)
        pol = random_policy(rng, z=2, n_obs=8)
        beh = random_policy(rng, z=2, n_obs=8)
        ep = make_episode(0, [15, 31, 63], [50, 400, 90], [0.4, 0.3, 0.5],
                          [0, 3, 5])
        v1 = empirical_value([ep], [pol], behavior=[beh], r_min=0.0)
        v2 = empirical_value([ep, ep], [pol], behavior=[beh], r_min=0.0)
        assert abs(v1 - v2) < 1e-12

    def test_behavior_with_other_action_sets_rejected(self):
        rng = np.random.default_rng(10)
        pol = random_policy(rng, z=2, n_obs=8)
        other = random_policy(rng, z=2, n_obs=8, action_set=(15, 31, 127))
        ep = make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [0, 1])
        with pytest.raises(ValueError, match="behavior policies must match"):
            empirical_value([ep], [pol], behavior=[other])

    def test_stored_probabilities_denominator(self):
        rng = np.random.default_rng(9)
        pol = random_policy(rng, z=1, n_obs=8)
        ep = make_episode(0, [15, 31], [50, 60], [0.25, 0.5], [0, 4])
        got = empirical_value([ep], [pol], r_min=0.0, gamma=0.9)
        p0 = pol.pi[0, 0]
        p1 = p0 * pol.pi[0, 1]
        expect = (p0 / 0.25) * 0.0 + 0.9 * (p1 / (0.25 * 0.5)) * 4.0
        assert abs(got - expect) < 1e-12


class TestReweighted:
    def test_normalization_constraint(self):
        rng = np.random.default_rng(10)
        eps = []
        for k in range(4):
            t = 5
            actions = rng.choice(ACTIONS, size=t).tolist()
            obs = rng.integers(40, 200, size=t).tolist()
            eps.append(make_episode(k, actions, obs, [0.3] * t,
                                    rng.integers(0, 10, size=t).tolist()))
        est = random_point_estimate(rng, z=2, n_obs=8)
        batch = EpisodeBatch(eps, [ACTIONS], 8)
        rw = reweighted(batch, [est], discounted_rewards(
            batch, reward_bounds(batch)[0], 0.9))
        norm = sum(float(np.sum(nu)) for nu in rw.nu) / len(eps)
        assert abs(norm - 1.0) < 1e-9

    def test_minimum_reward_rows_contribute_zero(self):
        rng = np.random.default_rng(11)
        est = random_point_estimate(rng, z=2, n_obs=8)
        ep = make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [0, 6])
        batch = EpisodeBatch([ep], [ACTIONS], 8)
        rw = reweighted(batch, [est], discounted_rewards(batch, 0.0, 0.9))
        assert rw.nu[0, 0] == 0.0

    def test_point_estimate_needs_a_batch_with_action_sets(self):
        rng = np.random.default_rng(12)
        est = random_point_estimate(rng, z=2, n_obs=8)
        ep = make_episode(0, [15, 31], [50, 60], [0.5, 0.5], [0, 6])
        with pytest.raises(ValueError, match="need action sets"):
            empirical_value([ep], [est], r_min=0.0)


class TestUpdatesAndElbo:
    def small_batch(self, rng, n_episodes=6, t=6):
        eps = []
        for k in range(n_episodes):
            actions = rng.choice(ACTIONS, size=t).tolist()
            obs = rng.integers(40, 5000, size=t).tolist()
            rewards = np.cumsum(rng.integers(0, 3, size=t)).tolist()
            eps.append(make_episode(k, actions, obs, [1 / 3] * t, rewards))
        if len({r for ep in eps for r in ep.rewards}) < 2:
            eps[0].rewards[-1] += 1
        return eps

    def test_learn_concentration_identities(self):
        rng = np.random.default_rng(12)
        eps = self.small_batch(rng)
        hyper = Hyperparams(gamma=0.9)
        res = learn(eps, hyper, max_iters=15, n_obs_bins=13)
        z = res.states[0].node_count
        for it in range(res.trace.iterations):
            assert res.trace.g[it][0] == hyper.e + z
            assert res.trace.a[it][0] == hyper.c + z
            assert res.trace.h[it][0] > 0.0
            assert res.trace.b_min[it][0] > 0.0

    def test_learn_positive_parameters(self):
        rng = np.random.default_rng(13)
        eps = self.small_batch(rng)
        res = learn(eps, Hyperparams(), max_iters=10, n_obs_bins=13)
        for st in res.states:
            st.assert_positive()

    def test_single_action_data_concentrates(self):
        rng = np.random.default_rng(14)
        eps = []
        for k in range(8):
            t = 20
            obs = rng.integers(40, 200, size=t).tolist()
            rewards = list(range(k, t + k))
            actions = [15] * t
            if k == 0:  # the batch's action set is ACTIONS, 15 in 158 of 160
                actions[-2:] = [31, 63]
            eps.append(make_episode(k, actions, obs, [1 / 3] * t, rewards))
        res = learn(eps, Hyperparams(theta=0.1), max_iters=30, n_obs_bins=8)
        assert res.policies[0].action_set == ACTIONS
        st = res.states[0]
        share = st.phi[:, 0].sum() / st.phi.sum()
        assert share > 0.95
        assert np.all(np.argmax(st.phi, axis=1) == 0)

    def test_elbo_mostly_non_decreasing(self):
        rng = np.random.default_rng(15)
        eps = self.small_batch(rng, n_episodes=8, t=8)
        res = learn(eps, Hyperparams(), max_iters=40, n_obs_bins=13)
        diffs = np.diff(res.trace.elbo)
        assert res.trace.elbo[-1] >= res.trace.elbo[0]
        assert np.mean(diffs >= -1e-8) >= 0.95

    def test_elbo_data_term_shift(self):
        # the bound is log(value) plus terms independent of the value
        hyper = Hyperparams()
        st = VariationalState(2, 3, 4, hyper)
        shift = elbo([st], 5.0, hyper) - elbo([st], 2.5, hyper)
        assert abs(shift - math.log(2.0)) < 1e-12

    def test_elbo_hand_value_at_unit_state(self):
        # with all hyperparameters 1 and a fresh single-node state, each
        # (stick Beta, concentration Gamma) pair contributes exactly -1:
        # the Beta term is psi(2) + (psi(1) - psi(2)) = psi(1) and the
        # Gamma term is -psi(2), and psi(2) = psi(1) + 1. One eta stick
        # plus 3 x 4 omega sticks gives -13.
        hyper = Hyperparams(c=1.0, d=1.0, e=1.0, f=1.0, theta=1.0)
        st = VariationalState(1, 3, 4, hyper)
        value = 2.5
        expect = math.log(value) - 13.0
        assert abs(elbo([st], value, hyper) - expect) < 1e-10

    def test_mean_policy_is_proper(self):
        rng = np.random.default_rng(16)
        eps = self.small_batch(rng)
        res = learn(eps, Hyperparams(), max_iters=5, n_obs_bins=13)
        pol = mean_policy(res.states[0], ACTIONS, 13)
        assert np.allclose(pol.pi.sum(axis=1), 1.0)

    def test_trace_lengths_consistent(self):
        rng = np.random.default_rng(17)
        eps = self.small_batch(rng)
        res = learn(eps, Hyperparams(), max_iters=7, n_obs_bins=13)
        tr = res.trace
        n = tr.iterations
        assert len(tr.value) == len(tr.node_counts) == len(tr.g) == n
        assert len(tr.h) == len(tr.norm) == n

    def test_zero_bound_does_not_stop_the_run(self, monkeypatch):
        # the stop rule compares the change with tol times the previous
        # bound, so a bound of 0.0 is a change of 0 that is not below 0,
        # not a division by zero
        rng = np.random.default_rng(18)
        eps = self.small_batch(rng)
        monkeypatch.setattr(specshare.learning, "elbo",
                            lambda *args, **kwargs: 0.0)
        res = learn(eps, Hyperparams(), max_iters=4, n_obs_bins=13)
        assert not res.converged
        assert res.trace.elbo == [0.0] * 4


def seeded_batch(seed=2024, n_episodes=5, t=8, n_agents=2, n_obs=13):
    """A two-agent batch drawn from a numpy generator, not the simulator."""
    rng = np.random.default_rng(seed)
    eps = []
    for k in range(n_episodes):
        tracks = []
        for _ in range(n_agents):
            actions = rng.choice(ACTIONS, size=t).tolist()
            obs = rng.integers(40, 5000, size=t).tolist()
            local = np.cumsum(rng.integers(0, 3, size=t)).tolist()
            tracks.append(AgentTrack(
                actions=actions, obs_us=obs,
                obs_bin=[observation_bin(o, n_obs) for o in obs],
                pi_behavior=[1 / 3] * t, rewards=local))
        rewards = np.sum([tr.rewards for tr in tracks], axis=0).tolist()
        eps.append(Episode(k=k, agents=tracks, rewards=rewards))
    return eps


class TestSharedForwardPass:
    @pytest.mark.parametrize("t", [20, 50])
    def test_long_prefix_marginals_match_unscaled_messages(self, t):
        # enumeration cannot reach these lengths; the unscaled two-pass
        # reference can, and shares no code with the learner's sweep
        rng = np.random.default_rng(100 + t)
        for _ in range(5):
            z = int(rng.integers(1, 5))
            est = random_point_estimate(rng, z=z)
            aidx = rng.integers(0, 3, size=t + 1).tolist()
            obins = rng.integers(0, 4, size=t).tolist()
            singles, pairs = node_marginals(est, aidx, obins, t)
            alpha = forward_messages(est, aidx, obins)
            beta = backward_messages(est, aidx, obins, t)
            norm = float(alpha[t] @ beta[t])
            e_singles = alpha * beta / norm
            e_pairs = np.stack([
                alpha[tau - 1][:, None]
                * est.omega[:, aidx[tau - 1], obins[tau - 1], :]
                * (est.pi[:, aidx[tau]] * beta[tau])[None, :] / norm
                for tau in range(1, t + 1)])
            assert np.max(np.abs(singles - e_singles)) < 1e-12
            assert np.max(np.abs(pairs - e_pairs)) < 1e-12

    def test_one_forward_pass_per_agent_episode_iteration(self, monkeypatch):
        calls = []
        original = specshare.fsc.forward_pass

        def counting(policy, action_idx, obs_bins):
            # agent-episode rows in the call: (K, t+1) per agent, or
            # (N, K, t+1) stacked
            calls.append(np.size(action_idx) // np.shape(action_idx)[-1])
            return original(policy, action_idx, obs_bins)

        monkeypatch.setattr(specshare.fsc, "forward_pass", counting)
        monkeypatch.setattr(specshare.learning, "forward_pass", counting)
        # at one live node per agent the log factors take the pass's place:
        # (2, N, K, t+1) indices
        log_factors = specshare.learning._log_factors

        def counting_logs(logs, index):
            calls.append(np.size(index[0]) // np.shape(index)[-1])
            return log_factors(logs, index)

        monkeypatch.setattr(specshare.learning, "_log_factors", counting_logs)
        eps = seeded_batch()
        res = learn(eps, Hyperparams(), max_iters=6, n_obs_bins=13)
        k, n = len(eps), len(eps[0].agents)
        assert sum(calls) == (res.trace.iterations + 1) * k * n

    def test_pinned_trace(self):
        # recorded when reweighting and the node sweep each ran their own
        # forward recursion; sharing one pass must not move the trace
        expect_elbo = [
            -1514.8319534066666, -1150.52055734825, -1006.7892839098205,
            -931.3492277926027, -885.034381141178, -853.9292437033457,
            -831.7607986883319, -815.2702016612826, -802.5994026017872,
            -792.6134366743885, -784.5810800546432, -778.0107697771564,
            -772.5603744575167, -767.984777750003, -764.1040160454511,
            -760.7831576758678, -757.9191765005943, -755.4321443005359,
            -753.2591741623573, -751.350164566137, -749.6647508406107,
            -748.1700836705395, -746.8391851044117, -745.6497148338824,
            -744.5830325431189, -743.6234769781453, -742.7578057327755,
            -741.9747556537841, -741.2646947749115]
        res = learn(seeded_batch(), Hyperparams(), max_iters=200, tol=1e-3,
                    n_obs_bins=13)
        assert res.converged
        assert res.trace.iterations == len(expect_elbo)
        for got, want in zip(res.trace.elbo, expect_elbo):
            assert abs(got - want) <= 1e-9 * abs(want)
        assert abs(res.trace.value[-1] - 2555.828340485455) \
            <= 1e-9 * 2555.828340485455


def relative_gap(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBatchedKernel:
    def test_batch_matches_one_episode_at_a_time(self):
        eps = seeded_batch(seed=2, n_episodes=6, t=10)
        rng = np.random.default_rng(3)
        ests = [random_point_estimate(rng, z=3, n_obs=13) for _ in range(2)]
        batch = EpisodeBatch(eps, [ACTIONS] * 2, 13)
        rw = reweighted(batch, ests, discounted_rewards(
            batch, reward_bounds(batch)[0], 0.9))
        assert rw.nu.shape == (6, 10)
        for n, est in enumerate(ests):
            aidx, obins = batch.actions[n], batch.obs_bins[n]
            occ, pair = (x[0] for x in _sweep(forward_pass(est, aidx, obins),
                                              rw.nu))
            _, log_scale = forward(est, aidx, obins)
            for k, ep in enumerate(eps):
                tr = ep.agents[n]
                a_k = [ACTIONS.index(a) for a in tr.actions]
                o_k = tr.obs_bin[:-1]
                one = log_history_likelihoods(est, a_k, o_k)
                assert relative_gap(np.cumsum(log_scale[k]), one) < 1e-12
                e_occ = np.zeros(occ[k].shape)
                e_pair = np.zeros(pair[k].shape)
                for t in range(len(a_k)):
                    singles, pairs = node_marginals(est, a_k, o_k, t)
                    e_occ[:t + 1] += rw.nu[k, t] * singles
                    e_pair[1:t + 1] += rw.nu[k, t] * pairs
                assert relative_gap(occ[k], e_occ) < 1e-12
                assert relative_gap(pair[k], e_pair) < 1e-12

    def test_mixed_length_batch_raises(self):
        short = seeded_batch(seed=1, n_episodes=3, t=6)
        long = seeded_batch(seed=2, n_episodes=3, t=10)
        eps = [ep for pair in zip(short, long) for ep in pair]
        with pytest.raises(ValueError,
                           match="episode 1 has 10 steps, the first has 6"):
            EpisodeBatch(eps, [ACTIONS] * 2, 13)

    def test_visited_columns_match_all_visited(self):
        eps = seeded_batch()
        hyper = Hyperparams()
        res = learn(eps, hyper, max_iters=5, n_obs_bins=13)
        batch = EpisodeBatch(eps, None, 13)
        states = res.states
        for st in states:
            assert st.visited.any() and not st.visited.all()
        full = copy.deepcopy(states)
        for st in full:
            st.visited = None
        for st, st_full in zip(states, full):
            est, est_full = point_estimate(st), point_estimate(st_full)
            for name in ("eta", "pi", "omega"):
                assert relative_gap(getattr(est, name),
                                    getattr(est_full, name)) < 1e-12
        ests = [point_estimate(st) for st in states]
        rw = reweighted(batch, ests, discounted_rewards(
            batch, reward_bounds(batch)[0], hyper.gamma))
        bound, bound_full = elbo(states, rw.value, hyper), \
            elbo(full, rw.value, hyper)
        assert abs(bound - bound_full) <= 1e-12 * abs(bound_full)
        # one update of every agent in each kernel, from the same estimate
        kernel, kernel_full = (_Kernel(st, hyper, batch)
                               for st in (states, full))
        est = point_estimate(kernel, kernel.psi)
        occ = _update_agent(kernel, rw)
        occ_full = _update_agent(kernel_full, rw)
        kernel.store(states)
        kernel_full.store(full)
        assert relative_gap(occ, occ_full) < 1e-12
        for n in range(2):
            for name in ("delta", "mu", "phi", "sigma", "lam", "a", "b", "g",
                         "h"):
                assert relative_gap(getattr(states[n], name),
                                    getattr(full[n], name)) < 1e-12

    def test_learn_leaves_the_batch_untouched(self):
        eps = seeded_batch()
        before = copy.deepcopy(eps)
        learn(eps, Hyperparams(), max_iters=3, n_obs_bins=13)
        assert [[vars(tr) for tr in ep.agents] for ep in eps] \
            == [[vars(tr) for tr in ep.agents] for ep in before]
