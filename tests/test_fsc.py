import itertools
import math

import numpy as np
import pytest
import scipy.stats

from specshare.batch import EpisodeBatch
from specshare.distributions import digamma
from specshare.fsc import (FscPolicy, PointEstimate, cumulative_rows, draw,
                           forward_pass, history_likelihood,
                           init_from_episodes, initial_node,
                           log_history_likelihoods, observation_bin,
                           observation_bins, prune, stack_policies,
                           transition_node)
from specshare.learning import point_estimate
from specshare.trajectories import (AgentTrack, BehaviorPolicy, Episode,
                                    behavior_action)
from tests.learner_reference import stick_log_expectations

ACTIONS = (15, 31, 63)


def random_policy(rng, z=3, n_actions=3, n_obs=4, action_set=ACTIONS):
    return FscPolicy(eta=rng.dirichlet(np.ones(z)),
                     pi=rng.dirichlet(np.ones(n_actions), size=z),
                     omega=rng.dirichlet(np.ones(z), size=(z, n_actions, n_obs)),
                     action_set=action_set[:n_actions], n_obs_bins=n_obs)


def random_point_estimate(rng, z=3, n_actions=3, n_obs=4):
    return PointEstimate(eta=rng.uniform(0.05, 1.0, size=z),
                         pi=rng.uniform(0.05, 1.0, size=(z, n_actions)),
                         omega=rng.uniform(0.05, 1.0, size=(z, n_actions, n_obs, z)))


def enumerate_likelihood(policy, aidx, obins):
    """Brute-force sum over all node paths."""
    z = policy.eta.size
    t1 = len(aidx)
    total = 0.0
    for path in itertools.product(range(z), repeat=t1):
        p = policy.eta[path[0]] * policy.pi[path[0], aidx[0]]
        for tau in range(1, t1):
            p *= policy.omega[path[tau - 1], aidx[tau - 1], obins[tau - 1], path[tau]]
            p *= policy.pi[path[tau], aidx[tau]]
        total += p
    return total


class TestObservationBin:
    def test_powers_of_two(self):
        assert observation_bin(1) == 0
        assert observation_bin(43) == 5
        assert observation_bin(64) == 6
        assert observation_bin(4000) == 11

    def test_clamped(self):
        assert observation_bin(2 ** 40) == 23

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            observation_bin(0)

    @pytest.mark.parametrize("n_bins", [8, 24, 53])
    def test_vectorized_matches_scalar_at_bin_edges(self, n_bins):
        # 2**k - 1, 2**k and 2**k + 1 up to int64's top, as stored ints load
        waits = np.array([w for k in range(63) for w in
                          (2 ** k - 1, 2 ** k, 2 ** k + 1) if 0 < w < 2 ** 63])
        assert waits.dtype == np.int64
        assert observation_bins(waits, n_bins).tolist() \
            == [observation_bin(w, n_bins) for w in waits.tolist()]
        assert observation_bins(waits, n_bins)[-1] == n_bins - 1


class TestPolicyStructure:
    def test_rejects_non_simplex_rows(self):
        with pytest.raises(ValueError):
            FscPolicy(eta=np.array([0.5, 0.6]),
                      pi=np.full((2, 3), 1 / 3),
                      omega=np.full((2, 3, 4, 2), 0.5),
                      action_set=ACTIONS, n_obs_bins=4)

    @pytest.mark.parametrize("row", [[0.6, 0.6, -0.2], [0.5, 0.4, 0.2]],
                             ids=["negative", "sum"])
    def test_rejects_one_bad_omega_row_deep_in_array(self, row):
        pol = random_policy(np.random.default_rng(1), n_obs=6)
        omega = pol.omega.copy()
        omega[2, 1, 4] = row
        with pytest.raises(ValueError):
            FscPolicy(eta=pol.eta, pi=pol.pi, omega=omega,
                      action_set=pol.action_set, n_obs_bins=6)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        pol = random_policy(rng)
        again = FscPolicy.from_json(pol.to_json())
        assert np.allclose(again.eta, pol.eta)
        assert np.allclose(again.pi, pol.pi)
        assert np.allclose(again.omega, pol.omega)
        assert again.action_set == pol.action_set


class TestSampling:
    def test_single_node(self):
        rng = np.random.default_rng(1)
        pol = random_policy(rng, z=1)
        assert initial_node(pol, rng) == 0
        assert transition_node(pol, 0, 15, 100, rng) == 0

    def test_initial_node_frequency(self):
        pol = FscPolicy(eta=np.array([0.5, 0.5]),
                        pi=np.full((2, 3), 1 / 3),
                        omega=np.full((2, 3, 4, 2), 0.5),
                        action_set=ACTIONS, n_obs_bins=4)
        rng = np.random.default_rng(2)
        freq = np.mean([initial_node(pol, rng) for _ in range(100000)])
        assert abs(freq - 0.5) < 0.01

    def test_degenerate_eta(self):
        pol = FscPolicy(eta=np.array([1.0, 0.0]),
                        pi=np.full((2, 3), 1 / 3),
                        omega=np.full((2, 3, 4, 2), 0.5),
                        action_set=ACTIONS, n_obs_bins=4)
        rng = np.random.default_rng(3)
        assert all(initial_node(pol, rng) == 0 for _ in range(100))

    def test_deterministic_action_row(self):
        pi = np.zeros((1, 3))
        pi[0, 1] = 1.0
        pol = FscPolicy(eta=np.array([1.0]), pi=pi,
                        omega=np.ones((1, 3, 4, 1)),
                        action_set=ACTIONS, n_obs_bins=4)
        rng = np.random.default_rng(4)
        greedy = BehaviorPolicy(policies=[pol], epsilon=0.0)
        assert behavior_action(greedy, 0, 0, rng) == (31, 1.0)

    def test_action_chi_square(self):
        n_actions = 7
        pol = FscPolicy(eta=np.array([1.0]),
                        pi=np.full((1, n_actions), 1 / n_actions),
                        omega=np.ones((1, n_actions, 4, 1)),
                        action_set=(15, 31, 63, 127, 255, 511, 1023),
                        n_obs_bins=4)
        rng = np.random.default_rng(5)
        greedy = BehaviorPolicy(policies=[pol], epsilon=0.0)
        draws = [behavior_action(greedy, 0, 0, rng)[0]
                 for _ in range(100000)]
        counts = [draws.count(a) for a in pol.action_set]
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_transition_chi_square(self):
        rng = np.random.default_rng(6)
        row = rng.dirichlet(np.ones(3))
        omega = np.broadcast_to(row, (3, 3, 4, 3)).copy()
        pol = FscPolicy(eta=np.array([1.0, 0.0, 0.0]),
                        pi=np.full((3, 3), 1 / 3), omega=omega,
                        action_set=ACTIONS, n_obs_bins=4)
        draws = [transition_node(pol, 0, 15, 100, rng) for _ in range(100000)]
        counts = np.bincount(draws, minlength=3)
        _, p = scipy.stats.chisquare(counts, 100000 * row)
        assert p > 0.001

    def test_invalid_node_errors(self):
        rng = np.random.default_rng(7)
        pol = random_policy(rng)
        with pytest.raises(ValueError):
            transition_node(pol, -1, 15, 100, rng)


class TestDraw:
    """`draw` on a cumulative row stands in for `Generator.choice(n, p=row)`:
    the same index from the same one double."""

    @staticmethod
    def assert_draws_like_choice(row, seed):
        by_choice, by_draw = (np.random.default_rng(seed) for _ in range(2))
        cdf = cumulative_rows(row)
        for _ in range(5):
            assert draw(cdf, by_draw) == by_choice.choice(len(row), p=row)
        assert by_draw.random() == by_choice.random()

    def test_random_rows(self):
        rng = np.random.default_rng(8)
        for seed in range(1000):
            n = int(rng.integers(1, 11))
            row = rng.dirichlet(np.ones(n))
            row[rng.random(n) < 0.3] = 0.0  # exact zeros, leading ones too
            if not row.any():
                row[int(rng.integers(n))] = 1.0
            self.assert_draws_like_choice(row / row.sum(), seed)

    def test_single_node_row_consumes_one_double(self):
        self.assert_draws_like_choice(np.array([1.0]), 9)

    def test_policy_rows(self):
        pol = random_policy(np.random.default_rng(10))
        assert pol.eta_cdf == cumulative_rows(pol.eta)
        assert pol.pi_cdf[2] == cumulative_rows(pol.pi[2])
        assert pol.omega_cdf[1][2][3] == cumulative_rows(pol.omega[1, 2, 3])


class TestHistoryLikelihood:
    def test_single_node_is_action_product(self):
        rng = np.random.default_rng(8)
        pol = random_policy(rng, z=1)
        aidx = [0, 2, 1, 1]
        obins = [0, 3, 2]
        expect = float(np.prod([pol.pi[0, a] for a in aidx]))
        assert abs(history_likelihood(pol, aidx, obins) - expect) < 1e-15

    def test_matches_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            z = int(rng.integers(1, 4))
            pol = random_policy(rng, z=z)
            t = int(rng.integers(1, 6))
            aidx = rng.integers(0, 3, size=t + 1).tolist()
            obins = rng.integers(0, 4, size=t).tolist()
            got = history_likelihood(pol, aidx, obins)
            assert abs(got - enumerate_likelihood(pol, aidx, obins)) < 1e-12

    def test_telescoping_identity(self):
        # stepwise conditionals computed by independent belief updates
        rng = np.random.default_rng(10)
        for _ in range(25):
            z = int(rng.integers(1, 4))
            pol = random_policy(rng, z=z)
            t = int(rng.integers(1, 6))
            aidx = rng.integers(0, 3, size=t + 1).tolist()
            obins = rng.integers(0, 4, size=t).tolist()
            belief = pol.eta.copy()
            prod = 1.0
            for tau, a in enumerate(aidx):
                cond = float(belief @ pol.pi[:, a])
                prod *= cond
                if tau < t:
                    joint = belief * pol.pi[:, a]
                    belief = joint @ pol.omega[:, a, obins[tau], :]
                    belief /= belief.sum()
            assert abs(prod - history_likelihood(pol, aidx, obins)) < 1e-12

    def test_log_prefix_consistency(self):
        rng = np.random.default_rng(11)
        pol = random_policy(rng)
        aidx = rng.integers(0, 3, size=6).tolist()
        obins = rng.integers(0, 4, size=5).tolist()
        logs = log_history_likelihoods(pol, aidx, obins)
        for t in range(6):
            direct = history_likelihood(pol, aidx[:t + 1], obins[:t])
            assert abs(math.exp(logs[t]) - direct) < 1e-12

    def test_length_mismatch(self):
        rng = np.random.default_rng(12)
        pol = random_policy(rng)
        with pytest.raises(ValueError):
            history_likelihood(pol, [0, 1], [0, 1])

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 3)])
    def test_stacked_policy_needs_one_action_block_per_agent(self, shape):
        rng = np.random.default_rng(15)
        stacked = stack_policies([random_policy(rng), random_policy(rng)])
        aidx = rng.integers(0, 3, size=shape)
        obins = rng.integers(0, 4, size=shape[:-1] + (shape[-1] - 1,))
        with pytest.raises(ValueError, match="stacked policy needs"):
            forward_pass(stacked, aidx, obins)


class TestPointEstimate:
    def test_single_node_stick_is_one(self):
        logp = stick_log_expectations(np.array([2.0]), np.array([3.0]))
        assert logp == pytest.approx([0.0])

    def test_two_node_first_entry(self):
        logp = stick_log_expectations(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert abs(logp[0] - (digamma(2.0) - digamma(3.0))) < 1e-14
        assert abs(logp[1] - (digamma(1.0) - digamma(3.0))) < 1e-14

    def test_three_case_formula_by_hand(self):
        rng = np.random.default_rng(13)
        first = rng.uniform(0.5, 4.0, size=4)
        second = rng.uniform(0.5, 4.0, size=4)
        logp = stick_log_expectations(first, second)
        e_u = [digamma(a) - digamma(a + b) for a, b in zip(first, second)]
        e_1mu = [digamma(b) - digamma(a + b) for a, b in zip(first, second)]
        for i in range(3):
            assert abs(logp[i] - (e_u[i] + sum(e_1mu[:i]))) < 1e-13
        assert abs(logp[3] - sum(e_1mu[:3])) < 1e-13

    def test_symmetric_phi_gives_equal_rows(self):
        class S:
            delta = np.array([1.0, 1.0])
            mu = np.array([1.0, 1.0])
            phi = np.full((2, 3), 0.7)
            sigma = np.ones((2, 3, 4, 2))
            lam = np.ones((2, 3, 4, 2))
        est = point_estimate(S())
        assert np.allclose(est.pi, est.pi[0, 0])
        assert np.all(est.pi > 0.0) and np.all(est.pi <= 1.0)
        assert np.all(est.eta > 0.0) and np.all(est.eta <= 1.0)
        assert np.all(est.omega > 0.0) and np.all(est.omega <= 1.0)


class TestPrune:
    def make_policy(self, z):
        rng = np.random.default_rng(14)
        return random_policy(rng, z=z)

    def test_all_mass_on_first(self):
        reduced, kept = prune(self.make_policy(3), [1.0, 0.0, 0.0], 0.05)
        assert kept == [0] and reduced.node_count == 1

    def test_uniform_mass_no_prune(self):
        reduced, kept = prune(self.make_policy(3), [1.0, 1.0, 1.0], 1e-3)
        assert reduced.node_count == 3

    def test_threshold_arithmetic(self):
        reduced, kept = prune(self.make_policy(3), [0.9, 0.09, 0.01], 0.05)
        assert kept == [0, 1] and reduced.node_count == 2

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5])
    def test_epsilon_outside_the_open_unit_interval(self, epsilon):
        with pytest.raises(ValueError, match="mass_epsilon"):
            prune(self.make_policy(3), [1.0, 1.0, 1.0], epsilon)

    @pytest.mark.parametrize("occupancy", [[1.0, 1.0], [1.0] * 4])
    def test_one_occupancy_per_node(self, occupancy):
        with pytest.raises(ValueError, match="one entry per node"):
            prune(self.make_policy(3), occupancy, 0.05)

    def test_no_mass_keeps_the_likeliest_start(self):
        pol = self.make_policy(3)
        pol = FscPolicy(eta=np.array([0.2, 0.5, 0.3]), pi=pol.pi,
                        omega=pol.omega, action_set=pol.action_set,
                        n_obs_bins=pol.n_obs_bins)
        reduced, kept = prune(pol, [0.0, 0.0, 0.0], 0.05)
        assert kept == [1] and reduced.eta.tolist() == [1.0]

    def test_none_above_the_threshold_keeps_the_heaviest(self):
        # each node holds about a third of the mass, below half of it
        reduced, kept = prune(self.make_policy(3), [1.0, 1.2, 1.1], 0.5)
        assert kept == [1] and reduced.node_count == 1

    def test_rows_renormalized(self):
        reduced, _ = prune(self.make_policy(3), [0.9, 0.09, 0.01], 0.05)
        assert np.allclose(reduced.eta.sum(), 1.0)
        assert np.allclose(reduced.omega.sum(axis=-1), 1.0)


class TestInitFromEpisodes:
    def make_batch(self, rng, n_episodes=5, t=8, constant_action=None):
        episodes = []
        for k in range(n_episodes):
            actions = ([constant_action] * t if constant_action is not None
                       else rng.choice(ACTIONS, size=t).tolist())
            obs = rng.integers(40, 4000, size=t).tolist()
            track = AgentTrack(actions=list(actions), obs_us=obs,
                               obs_bin=[observation_bin(o, 12) for o in obs],
                               pi_behavior=[1 / 3] * t,
                               rewards=list(range(t)))
            episodes.append(Episode(k=k, agents=[track],
                                    rewards=list(range(t))))
        return EpisodeBatch(episodes, [ACTIONS], 12)

    def start(self, batch, max_nodes=10):
        return init_from_episodes(batch.actions[0], batch.obs_bins[0],
                                  len(ACTIONS), max_nodes)

    def test_single_action_concentrates(self):
        rng = np.random.default_rng(15)
        pi = self.start(self.make_batch(rng, constant_action=15))
        assert np.all(np.argmax(pi, axis=1) == 0)

    def test_node_cap(self):
        rng = np.random.default_rng(16)
        pi = self.start(self.make_batch(rng, n_episodes=20, t=15),
                        max_nodes=4)
        assert 1 <= len(pi) <= 4

    def test_proper_policy(self):
        rng = np.random.default_rng(17)
        pi = self.start(self.make_batch(rng))
        assert pi.shape[0] >= 1 and pi.shape[1] == len(ACTIONS)
        assert np.all(pi > 0.0)
        assert np.allclose(pi.sum(axis=1), 1.0)

    def test_requires_episodes(self):
        with pytest.raises(ValueError, match="need at least one episode"):
            EpisodeBatch([])
