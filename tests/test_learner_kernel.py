"""The learner's per-iteration kernel: the O(T) node sweep against the
multi-endpoint sweep it replaced, how many special-function calls an
iteration takes, the once-per-iteration domain check and the checks of the
forward and sweep tables, one kernel over every agent against one kernel
per agent, kernel-live node compaction against the same run with no node
ever dropped, the closed forms of dropped source rows and of one-node
likelihoods, and the stored benchmark references."""

import collections
import copy
import itertools
import json
import math
import os

import numpy as np
import pytest

import specshare.fsc
import specshare.learning
from specshare import trajectories
from specshare.batch import EpisodeBatch
from specshare.fsc import (PointEstimate, forward, forward_pass,
                           init_from_episodes, stack_policies)
from specshare.learning import (Hyperparams, KernelLayout, ReweightedRewards,
                                VariationalState, _Kernel, _sweep,
                                _update_agent, discounted_rewards, elbo,
                                learn, omega_columns, point_estimate,
                                reward_bounds, reweighted)
from specshare.trajectories import Episode
from tests.learner_reference import reference_elbo, reference_rates
from tests.sweep_reference import multi_endpoint_sweep
from tests.test_fsc import ACTIONS, random_point_estimate, random_policy
from tests.test_learning import relative_gap, seeded_batch


def extreme_estimate(rng, z, n_actions=3, n_obs=4):
    """A random point estimate with about a third of its omega and pi
    entries scaled down to about 1e-300."""
    est = random_point_estimate(rng, z=z, n_actions=n_actions, n_obs=n_obs)
    omega, pi = est.omega.copy(), est.pi.copy()
    tiny = rng.random(omega.shape) < 0.3
    tiny[..., 0] = False  # every row keeps an ordinary entry
    omega[tiny] *= 1e-300
    tiny = rng.random(pi.shape) < 0.3
    tiny[0] = False  # node 0 keeps ordinary action probabilities
    pi[tiny] *= 1e-300
    return PointEstimate(eta=est.eta, pi=pi, omega=omega)


def slice_gap(got, want):
    """Largest |got - want| where both are finite, relative to the largest
    |want| of the same (episode, step) slice; and the finite share."""
    both = np.isfinite(got) & np.isfinite(want)
    axes = tuple(range(2, want.ndim))
    scale = np.max(np.where(both, np.abs(want), 0.0), axis=axes,
                   keepdims=True)
    diff = np.where(both, np.abs(got - want), 0.0)
    assert np.all(diff[np.broadcast_to(scale, diff.shape) == 0.0] == 0.0)
    gap = diff / np.where(scale > 0.0, scale, 1.0)
    return float(gap.max()), float(both.mean())


class TestRewardToGoSweep:
    @pytest.mark.parametrize("t", [50, 200])
    @pytest.mark.parametrize("extreme", [False, True],
                             ids=["ordinary", "near-1e-300"])
    def test_matches_multi_endpoint_reference(self, t, extreme):
        rng = np.random.default_rng(7 * t + extreme)
        make = extreme_estimate if extreme else random_point_estimate
        finite = []
        for z in range(1, 11):
            est = make(rng, z=z)
            k = 4
            aidx = rng.integers(0, 3, size=(k, t))
            obins = rng.integers(0, 4, size=(k, t - 1))
            nu = rng.random((k, t)) * (rng.random((k, t)) < 0.8)
            ahat, _ = forward(est, aidx, obins)
            got = [x[0] for x in _sweep(forward_pass(est, aidx, obins), nu)]
            want = multi_endpoint_sweep(est, aidx, obins, nu, ahat)
            for g, w in zip(got, want):
                gap, share = slice_gap(g, w)
                assert gap <= 1e-12
                finite.append(share)
        if not extreme:
            assert min(finite) == 1.0
        assert np.mean(finite) > 0.5

    @pytest.mark.parametrize("t", [50, 200])
    def test_one_node_near_1e_300_on_visited_steps(self, t):
        # 1e-300 on the omega columns of action 2 and on pi of action 1,
        # and no step from action 2 to action 1, so every visited step's
        # factor holds at most one of them (two would underflow)
        rng = np.random.default_rng(t)
        k = 4
        aidx = rng.integers(0, 3, size=(k, t))
        for tau in range(1, t):
            aidx[:, tau][(aidx[:, tau - 1] == 2) & (aidx[:, tau] == 1)] = 0
        obins = rng.integers(0, 4, size=(k, t - 1))
        nu = rng.random((k, t)) * (rng.random((k, t)) < 0.8)
        est = random_point_estimate(rng, z=1)
        est.omega[0, 2] *= 1e-300
        est.pi[0, 1] *= 1e-300
        ahat, log_scale = forward(est, aidx, obins)
        assert np.sum(log_scale < -600.0) > t  # the tiny entries are used
        got = [x[0] for x in _sweep(forward_pass(est, aidx, obins), nu)]
        want = multi_endpoint_sweep(est, aidx, obins, nu, ahat)
        for g, w in zip(got, want):
            gap, share = slice_gap(g, w)
            assert gap <= 1e-12 and share == 1.0

    def test_single_step_episodes(self):
        rng = np.random.default_rng(3)
        est = random_point_estimate(rng, z=3)
        aidx = rng.integers(0, 3, size=(2, 1))
        obins = np.zeros((2, 0), dtype=int)
        nu = np.array([[0.5], [2.0]])
        ahat, _ = forward(est, aidx, obins)
        occ, pair = (x[0] for x in _sweep(forward_pass(est, aidx, obins), nu))
        assert np.array_equal(occ, ahat * nu[:, :, None])
        assert pair.shape == (2, 1, 3, 3) and not pair.any()


class TestSharedDigammas:
    def test_at_most_eight_digamma_calls_per_agent_iteration(self,
                                                             monkeypatch):
        # per run: the first factors' eight digammas plus digamma(g) and
        # digamma(a), per agent; per iteration: digamma of sigma, lam,
        # sigma + lam, delta, mu, delta + mu, phi and its row sums
        calls = []

        def counting(original):
            def digamma(x, *args, **kwargs):
                calls.append(1)
                return original(x, *args, **kwargs)
            return digamma

        for module in (specshare.learning, specshare.fsc):
            monkeypatch.setattr(module, "digamma", counting(module.digamma))
        eps = seeded_batch()
        res = learn(eps, Hyperparams(), max_iters=6, n_obs_bins=13)
        n = len(eps[0].agents)
        assert res.trace.iterations == 6
        assert 0 < len(calls) <= 8 * n * res.trace.iterations + 10 * n


    def test_special_function_calls_do_not_grow_with_agents(self,
                                                             monkeypatch):
        # one digamma call per iteration in the update and one gammaln call
        # in the bound, plus one of each when the kernel is built, at any
        # number of agents
        def counted(n_agents):
            calls = collections.Counter()

            def counting(name, original):
                def wrapper(x, **kwargs):
                    calls[name] += 1
                    return original(x, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                for name in ("digamma", "gammaln"):
                    patch.setattr(specshare.learning, name, counting(
                        name, getattr(specshare.learning, name)))
                res = learn(seeded_batch(n_agents=n_agents), Hyperparams(),
                            max_iters=6, tol=0.0, n_obs_bins=13)
            assert res.trace.iterations == 6
            return {name: count / 6 for name, count in calls.items()}

        two, four = counted(2), counted(4)
        assert two == four
        assert two["digamma"] <= 1 + 2 / 6 and two["gammaln"] <= 1 + 1 / 6


class TestTableChecks:
    def test_infinite_estimate_fails_at_the_forward_pass(self):
        batch = EpisodeBatch(seeded_batch(), [ACTIONS] * 2, 13)
        rng = np.random.default_rng(8)
        ests = [random_point_estimate(rng, z=2, n_obs=13) for _ in range(2)]
        ests[1].pi[0, batch.actions[1, 0, 3]] = np.inf
        with pytest.raises(FloatingPointError,
                           match="forward pass is not finite"):
            reweighted(batch, ests, discounted_rewards(
                batch, reward_bounds(batch)[0], 0.9))

    def test_zero_rewards_have_no_value_to_normalize_by(self):
        batch = EpisodeBatch(seeded_batch(), [ACTIONS] * 2, 13)
        rng = np.random.default_rng(8)
        ests = [random_point_estimate(rng, z=2, n_obs=13) for _ in range(2)]
        with pytest.raises(FloatingPointError,
                           match="empirical value is not positive: 0.0"):
            reweighted(batch, ests, np.zeros(batch.rewards.shape))

    @pytest.mark.parametrize("z", [1, 3])
    def test_infinite_weight_fails_at_the_sweep(self, z):
        rng = np.random.default_rng(9)
        est = random_point_estimate(rng, z=z)
        aidx = rng.integers(0, 3, size=(2, 6))
        obins = rng.integers(0, 4, size=(2, 5))
        fwd = forward_pass(est, aidx, obins)
        nu = rng.random((2, 6))
        nu[1, 4] = np.inf
        with pytest.raises(FloatingPointError, match="node sweep is not "
                                                     "finite"):
            _sweep(fwd, nu)


class TestOneKernel:
    def test_stacked_forward_matches_each_agent(self):
        batch = EpisodeBatch(seeded_batch(seed=4, n_agents=3),
                             [ACTIONS] * 3, 13)
        rng = np.random.default_rng(21)
        ests = [random_point_estimate(rng, z=z, n_obs=13) for z in (1, 3, 5)]
        alpha_hat, log_scale = forward(stack_policies(ests), batch.actions,
                                       batch.obs_bins)
        for n, est in enumerate(ests):
            one_hat, one_scale = forward(est, batch.actions[n],
                                         batch.obs_bins[n])
            z = est.eta.size
            assert relative_gap(log_scale[n], one_scale) < 1e-12
            assert relative_gap(alpha_hat[n, ..., :z], one_hat) < 1e-12
            assert not alpha_hat[n, ..., z:].any()
        # every agent at one node: the closed form, bit for bit
        ones = [random_point_estimate(rng, z=1, n_obs=13) for _ in range(3)]
        _, log_scale = forward(stack_policies(ones), batch.actions,
                               batch.obs_bins)
        for n, est in enumerate(ones):
            assert np.array_equal(log_scale[n], forward(
                est, batch.actions[n], batch.obs_bins[n])[1])

    def test_matches_one_kernel_per_agent(self):
        # one update of agents with 2, 4 and 3 nodes and different visited
        # columns, in one kernel and in one kernel per agent, from the same
        # path weights: only summation order differs
        eps = seeded_batch(seed=6, n_agents=3)
        hyper = Hyperparams()
        rng = np.random.default_rng(6)
        batch = EpisodeBatch(eps, [ACTIONS] * 3, 13)
        states = []
        for n, z in enumerate((2, 4, 3)):
            st = VariationalState(z, 3, 13, hyper, visited=batch.visited(n, 3))
            for name in ("delta", "mu", "phi", "sigma", "lam", "b"):
                setattr(st, name, rng.uniform(0.5, 3.0,
                                              size=np.shape(getattr(st, name))))
            # as the updates keep them: a column the agent never
            # transitions at holds its stand-in's values
            columns, expand, _ = omega_columns(st.visited, 3, 13)
            st.sigma, st.lam = (x.reshape(z, -1, z)[:, columns[expand]]
                                .reshape(x.shape) for x in (st.sigma, st.lam))
            st.b = st.b.reshape(z, -1)[:, columns[expand]].reshape(st.b.shape)
            states.append(st)
        singles = copy.deepcopy(states)
        kernel = _Kernel(states, hyper, batch)
        est = point_estimate(kernel, kernel.psi)
        rw = reweighted(batch, kernel, discounted_rewards(
            batch, reward_bounds(batch)[0], hyper.gamma))
        occ = _update_agent(kernel, rw)
        kernel.store(states)
        for n, st in enumerate(singles):
            one = EpisodeBatch([Episode(k=ep.k, agents=[ep.agents[n]],
                                        rewards=ep.rewards) for ep in eps],
                               [ACTIONS], 13)
            own = _Kernel([st], hyper, one)
            own_est = point_estimate(own, own.psi)
            z = st.node_count
            for got, want in ((est.eta[n, :z], own_est.eta[0]),
                              (est.pi[n, :z], own_est.pi[0]),
                              (est.omega[n, :z, ..., :z], own_est.omega[0])):
                assert relative_gap(got, want) < 1e-12
            own_occ = _update_agent(own, ReweightedRewards(
                rw.value, rw.nu, forward_pass(own_est, one.actions,
                                              one.obs_bins)))
            own.store([st])
            offsets = kernel.layout.offsets
            assert relative_gap(occ[offsets[n]:offsets[n + 1]],
                                own_occ) < 1e-12
            for name in ("delta", "mu", "phi", "sigma", "lam", "b", "h"):
                assert relative_gap(getattr(states[n], name),
                                    getattr(st, name)) < 1e-12, name


class TestDomainCheck:
    def test_nan_and_inf_rejected(self):
        hyper = Hyperparams()
        st = VariationalState(2, 3, 4, hyper)
        st.assert_positive()
        st.lam[0, 1, 2, 1] = np.nan
        with pytest.raises(FloatingPointError, match="lam"):
            st.assert_positive()
        st = VariationalState(2, 3, 4, hyper)
        st.b[1, 0, 3] = np.inf
        with pytest.raises(FloatingPointError, match="parameter b"):
            st.assert_positive()
        for name, bad in (("h", np.nan), ("g", -np.inf), ("mu", 0.0)):
            st = VariationalState(2, 3, 4, hyper)
            value = getattr(st, name)
            if isinstance(value, np.ndarray):
                value[0] = bad
            else:
                setattr(st, name, bad)
            with pytest.raises(FloatingPointError, match="parameter " + name):
                st.assert_positive()

    def test_learn_stops_at_a_nan_factor(self, monkeypatch):
        # a sweep that goes NaN reaches the stick factors, whose check runs
        # before any digamma sees them
        original = specshare.learning._sweep

        def poisoned(*args):
            occ, pair = original(*args)
            pair[..., 0] = np.nan
            return occ, pair

        monkeypatch.setattr(specshare.learning, "_sweep", poisoned)
        with pytest.raises(FloatingPointError, match="sigma"):
            learn(seeded_batch(), Hyperparams(), max_iters=3, n_obs_bins=13)


STORED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "data")
TRACE_FIELDS = ("elbo", "value", "node_counts", "g", "h", "a", "b_min",
                "norm", "ess", "max_share")
STATE_FIELDS = ("delta", "mu", "phi", "sigma", "lam", "a", "b", "g", "h")


def stored_batch(name):
    return trajectories.load(os.path.join(STORED, "learn-small", name))


@pytest.fixture(scope="module")
def learn_small():
    """learn on a stored learn-small batch as the benchmark's `learn`
    command does, once per batch in this module."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = learn(stored_batch(name), Hyperparams(),
                               max_iters=200, tol=1e-5)
        return runs[name]
    return run


def never_dropping(monkeypatch, *args, **kwargs):
    """The same learn with the drop threshold at 0, so no node leaves."""
    with monkeypatch.context() as patch:
        patch.setattr(specshare.learning, "_DROP_SHARE", 0.0)
        return learn(*args, **kwargs)


def assert_same_run(res, ref):
    assert res.trace.iterations == ref.trace.iterations
    assert res.converged == ref.converged
    for name in TRACE_FIELDS:
        got = np.asarray(getattr(res.trace, name), dtype=float)
        want = np.asarray(getattr(ref.trace, name), dtype=float)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
    for st, st_ref in zip(res.states, ref.states):
        for name in STATE_FIELDS:
            got, want = getattr(st, name), getattr(st_ref, name)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
    for pol, pol_ref in zip(res.policies, ref.policies):
        for name in ("eta", "pi", "omega"):
            assert np.allclose(getattr(pol, name), getattr(pol_ref, name),
                               rtol=1e-12, atol=0.0), name


def assert_compacted(res, ref):
    """Live counts never rise, a dropped node has occupancy 0.0 where the
    reference's is below the threshold, and the live nodes' occupancy
    agrees; returns how many nodes were dropped."""
    live = np.array(res.trace.live)
    z = [st.node_count for st in res.states]
    assert np.all(np.diff(live, axis=0) <= 0)
    assert np.all(np.array(ref.trace.live) == z)
    dropped = 0
    for n, (occ, occ_ref) in enumerate(zip(res.occupancy, ref.occupancy)):
        gone = occ == 0.0
        assert gone.sum() == z[n] - live[-1, n]
        assert np.all(occ_ref[gone] < specshare.learning._DROP_SHARE
                      * occ_ref.sum())
        assert np.all(np.abs(occ[~gone] - occ_ref[~gone])
                      <= 1e-12 * occ_ref[~gone])
        dropped += gone.sum()
    return dropped


class TestCompaction:
    def test_node_slots(self):
        # the sticks of live nodes only: an eta stick per live node and an
        # omega entry per live (source, destination) pair; the dropped
        # nodes just before a live stick are its gap, those after the last
        # live one each rate's trail, and a dropped source row has Z
        lay = KernelLayout([7], [[1, 4]], omega_columns(None, 1, 1), 1, 1)
        assert lay.live_nodes.tolist() == [1, 4]
        assert lay.dropped.tolist() == [0, 2, 3, 5, 6]
        assert lay.row_node.tolist() == [1, 4, 0, 2, 3, 5, 6]
        assert lay.n_entries == 4 and lay.n_sticks == 6
        assert lay.gap.tolist() == [1, 2, 1, 2, 1, 2]
        assert lay.not_last.tolist() == [1] * 6
        assert lay.rate_of.tolist() == [0, 0, 1, 1, 2, 2]
        assert lay.trail.tolist() == [2, 2, 2, 7, 7, 7, 7, 7]
        lay = KernelLayout([3], [np.arange(3)], omega_columns(None, 1, 1),
                           1, 1)
        assert lay.n_entries == 9 and not lay.dropped.size
        assert not lay.gap.any() and not lay.trail.any()
        assert lay.not_last.tolist() == [1, 1, 0] * 4
        assert lay.rate_of.tolist() == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3

    @pytest.mark.parametrize("z, live, visited", [
        ((7,), ([1, 4],), None),
        # agents of 5, 4 and 6 nodes: node 0 dropped (agents 0 and 2), a
        # trail of one node (agents 0 and 2), a live last node (agent 1);
        # the columns that no agent visits share one stand-in
        ((5, 4, 6), ([2, 3], [0, 3], [1, 4]), [
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 0]],
            [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]])],
        ids=["one_agent", "three_agents"])
    def test_compact_kernel_matches_full_state(self, z, live, visited):
        # states as compaction leaves them, with dropped nodes before,
        # between and after the live ones: delta and sigma are 1 at every
        # dropped node, mu and lam one value per run of dropped nodes
        # (a live node and the node after one begin a run) and lam a / b
        # along each dropped source row, and a dropped node's phi is theta;
        # the columns an agent does not visit hold one value
        rng = np.random.default_rng(5)
        hyper = Hyperparams()
        states = []
        for n, (zn, nodes) in enumerate(zip(z, live)):
            seen = None if visited is None else np.array(visited[n], bool)
            st = VariationalState(zn, 3, 4, hyper, visited=seen)
            for name in ("delta", "mu", "phi", "sigma", "lam", "b"):
                shape = np.shape(getattr(st, name))
                setattr(st, name, rng.uniform(0.5, 3.0, size=shape))
            if seen is not None:
                stand_in = tuple(np.argwhere(~seen)[0])
                for x in (st.sigma, st.lam, st.b):
                    x[:, ~seen] = x[(slice(None),) + stand_in][:, None]
            alive = np.isin(np.arange(zn), nodes)
            begins = alive | np.concatenate([[True], alive[:-1]])
            first = np.maximum.accumulate(np.where(begins, np.arange(zn), 0))
            dead = np.flatnonzero(~alive)
            st.delta[dead] = 1.0
            st.mu = st.mu[first]
            st.sigma[..., dead] = 1.0
            st.sigma[dead] = 1.0
            st.lam = st.lam[..., first]
            st.lam[dead] = st.a / st.b[dead][..., None]
            st.phi[dead] = hyper.theta
            st.h = hyper.f + n
            states.append(st)
        kernel = _Kernel(states, hyper)
        kernel.relayout([np.array(nodes) for nodes in live])
        kernel.load(states)
        est = point_estimate(kernel, kernel.psi)
        for n, (st, nodes) in enumerate(zip(states, live)):
            full, m = point_estimate(st), len(nodes)
            assert np.allclose(est.eta[n, :m], full.eta[nodes], rtol=1e-12,
                               atol=0.0)
            assert np.allclose(est.pi[n, :m], full.pi[nodes], rtol=1e-12,
                               atol=0.0)
            assert np.allclose(est.omega[n, :m, ..., :m],
                               full.omega[nodes][..., nodes], rtol=1e-12,
                               atol=0.0)
        bound = elbo(_Kernel(states, hyper), 2.0)
        assert abs(elbo(kernel, 2.0) - bound) <= 1e-12 * abs(bound)
        reference = reference_elbo(states, 2.0, hyper)
        assert abs(elbo(kernel, 2.0) - reference) <= 1e-12 * abs(reference)
        stored = [VariationalState(zn, 3, 4, hyper) for zn in z]
        kernel.store(stored)
        for st, back in zip(states, stored):
            for name in ("delta", "mu", "phi", "sigma", "lam", "b", "h"):
                assert np.array_equal(getattr(back, name), getattr(st, name))

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_matches_the_term_by_term_reference(self, seed):
        # random factors of three agents with 3, 4 and 5 nodes, each
        # visiting some of its (action, obs-bin) columns; the columns no
        # agent visits hold one value, which the kernel keeps once
        rng = np.random.default_rng(seed)
        hyper = Hyperparams(c=0.3, d=20.0, e=0.2, f=30.0, theta=0.7)
        n_actions, n_obs, z = 3, 4, (3, 4, 5)
        visited = rng.random((len(z), n_actions, n_obs)) < 0.5
        visited[:, 0, 0] = True
        rest = ~np.logical_or.reduce(visited)
        states = []
        for n, zn in enumerate(z):
            st = VariationalState(zn, n_actions, n_obs, hyper,
                                  visited=visited[n])
            for name in ("delta", "mu", "phi", "sigma", "lam"):
                setattr(st, name, rng.uniform(
                    0.2, 6.0, size=np.shape(getattr(st, name))))
            st.b = rng.uniform(2.0, 60.0, size=st.b.shape)
            st.h = float(rng.uniform(2.0, 60.0))
            if rest.any():
                stand_in = tuple(np.argwhere(rest)[0])
                for name in ("sigma", "lam", "b"):
                    x = getattr(st, name)
                    x[:, rest] = x[:, stand_in[0], stand_in[1]][:, None]
            states.append(st)
        value = float(rng.uniform(0.5, 50.0))
        kernel = _Kernel(states, hyper)
        bound = reference_elbo(states, value, hyper)
        assert abs(elbo(kernel, value) - bound) <= 1e-12 * abs(bound)
        # drop nodes: the first of agent 0, the middle ones of agent 1 and
        # all but the last of agent 2; the kernel's view of the states is
        # what it writes back
        kernel.relayout([np.array([1, 2]), np.array([0, 3]), np.array([4])])
        kernel.load(states)
        stored = copy.deepcopy(states)
        kernel.store(stored)
        bound = reference_elbo(stored, value, hyper)
        assert abs(elbo(kernel, value) - bound) <= 1e-12 * abs(bound)

    @pytest.mark.parametrize("node", [1, 0])
    def test_dropping_a_middle_node_matches_never_dropping(self, monkeypatch,
                                                           node):
        # agent 0's node 1 (or 0) of 4 is all but unreachable, so it leaves
        # the kernel in the first update: its neighbours change lanes, agent
        # 0 gets a pad lane and agent 1 none; without node 0, lane 0 and
        # the eta slot move to node 1. Every kept node's factors and
        # occupancy equal those of the same update with no node dropped,
        # bit for bit: the dropped node's masses are below half an ulp of
        # every sum they would enter
        eps = seeded_batch(seed=8)
        hyper = Hyperparams()
        rng = np.random.default_rng(8)
        batch = EpisodeBatch(eps, [ACTIONS] * 2, 13)
        states = []
        for n in range(2):
            st = VariationalState(4, 3, 13, hyper, visited=batch.visited(n, 3))
            for name in ("delta", "mu", "phi", "sigma", "lam", "b"):
                setattr(st, name, rng.uniform(0.5, 3.0,
                                              size=np.shape(getattr(st, name))))
            states.append(st)
        states[0].delta[node] = 0.011
        states[0].sigma[..., node] = 0.011

        def update(share):
            sts = copy.deepcopy(states)
            with monkeypatch.context() as patch:
                patch.setattr(specshare.learning, "_DROP_SHARE", share)
                kernel = _Kernel(sts, hyper, batch)
                rw = reweighted(batch, kernel, discounted_rewards(
                    batch, reward_bounds(batch)[0], hyper.gamma))
                occ = _update_agent(kernel, rw)
            kernel.store(sts)
            return kernel.layout, np.split(occ, 2), sts

        lay, occ, got = update(specshare.learning._DROP_SHARE)
        _, occ_ref, want = update(0.0)
        assert [nodes.tolist() for nodes in lay.live] == [
            [i for i in range(4) if i != node], [0, 1, 2, 3]]
        assert occ[0][node] == 0.0 < occ_ref[0][node]
        for n, kept in enumerate(lay.live):
            assert np.array_equal(occ[n][kept], occ_ref[n][kept])
            assert got[n].h == want[n].h
            for name in ("delta", "mu", "phi", "b"):
                assert np.array_equal(getattr(got[n], name)[kept],
                                      getattr(want[n], name)[kept]), name
            for name in ("sigma", "lam"):
                assert np.array_equal(
                    getattr(got[n], name)[kept][..., kept],
                    getattr(want[n], name)[kept][..., kept]), name

    @pytest.mark.parametrize("z", range(2, 11))
    def test_seeded_batch_matches_never_dropping(self, monkeypatch, z):
        # the episode-tree start merges a random batch to a few nodes, so
        # each agent starts from the action rows of a random z-node
        # controller instead; learn seeds agents 0 and 1 in turn, once per run
        calls = itertools.count()

        def random_start(actions, obs_bins, n_actions, max_nodes):
            rng = np.random.default_rng(100 * z + next(calls) % 2)
            return random_policy(rng, z=z, n_actions=n_actions).pi

        monkeypatch.setattr(specshare.learning, "init_from_episodes",
                            random_start)
        eps = seeded_batch(seed=z)
        kwargs = dict(max_iters=200, tol=1e-6, n_obs_bins=13)
        res = learn(eps, Hyperparams(), **kwargs)
        ref = never_dropping(monkeypatch, eps, Hyperparams(), **kwargs)
        assert [st.node_count for st in res.states] == [z, z]
        assert_same_run(res, ref)
        assert assert_compacted(res, ref) > 0

    def test_learn_small_matches_never_dropping(self, monkeypatch,
                                                learn_small):
        res = learn_small("batch_1.jsonl")
        ref = never_dropping(monkeypatch, stored_batch("batch_1.jsonl"),
                             Hyperparams(), max_iters=200, tol=1e-5)
        assert_same_run(res, ref)
        assert res.trace.live[-1] == [1, 1]
        assert assert_compacted(res, ref) == 14

    def test_ess_and_max_share_of_the_last_weights(self, learn_small):
        batch = EpisodeBatch(stored_batch("batch_1.jsonl"))
        res = learn_small("batch_1.jsonl")
        # the kernel as learn ends it, built from the states it returns at
        # the nodes it kept, as `one_node_kernel` builds it
        kernel = _Kernel(res.states, Hyperparams(), batch)
        kernel.relayout([np.flatnonzero(occ) for occ in res.occupancy])
        kernel.load(res.states)
        rw = reweighted(batch, kernel, discounted_rewards(
            batch, reward_bounds(batch)[0], Hyperparams().gamma))
        terms = rw.nu.ravel()
        per_episode = rw.nu.sum(axis=1)
        assert math.isclose(res.trace.ess[-1],
                            terms.sum() ** 2 / np.sum(terms ** 2),
                            rel_tol=1e-12)
        assert math.isclose(res.trace.max_share[-1],
                            per_episode.max() / per_episode.sum(),
                            rel_tol=1e-12)


def random_states(rng, batch, node_counts, hyper):
    """States with random factors, one per agent of `batch`."""
    states = []
    for n, z in enumerate(node_counts):
        st = VariationalState(z, 3, 13, hyper, visited=batch.visited(n, 3))
        for name in ("delta", "mu", "phi", "sigma", "lam", "b"):
            setattr(st, name, rng.uniform(0.5, 3.0,
                                          size=np.shape(getattr(st, name))))
        states.append(st)
    return states


class TestClosedForms:
    """A dropped source row's rates in closed form, and the likelihoods
    read through the kernel's map: at one live node the point estimate's
    logs added, at several its entries in the stacked forward pass."""

    def test_dropped_source_row_matches_never_dropping(self, monkeypatch):
        # agent 0's node 1 of 4 leaves the kernel in the update, so its
        # source row's b takes d + Z / lam, where the kernel that never
        # drops it takes the digammas of Z sticks
        eps = seeded_batch(seed=8)
        hyper = Hyperparams()
        batch = EpisodeBatch(eps, [ACTIONS] * 2, 13)
        states = random_states(np.random.default_rng(8), batch, (4, 4),
                               hyper)
        states[0].delta[1] = 0.011
        states[0].sigma[..., 1] = 0.011
        rewards = discounted_rewards(batch, reward_bounds(batch)[0],
                                     hyper.gamma)

        def update(share):
            sts = copy.deepcopy(states)
            with monkeypatch.context() as patch:
                patch.setattr(specshare.learning, "_DROP_SHARE", share)
                kernel = _Kernel(sts, hyper, batch)
                before = copy.deepcopy(sts)
                kernel.store(before)
                _update_agent(kernel, reweighted(batch, kernel, rewards))
            kernel.store(sts)
            return kernel.layout, before[0], sts[0]

        lay, before, got = update(specshare.learning._DROP_SHARE)
        want = update(0.0)[2]
        assert lay.live[0].tolist() == [0, 2, 3]
        assert np.all(np.abs(got.b[1] - want.b[1]) <= 1e-14 * want.b[1])
        assert np.all(got.sigma[1] == 1.0)
        # lam = a / b of the b the sticks were set from, before the update
        assert np.array_equal(got.lam[1], np.broadcast_to(
            got.a / before.b[1][..., None], got.lam[1].shape))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_node_log_likelihoods_match_the_forward_pass(self, seed):
        # one live node per agent, after dropped nodes or none, at random
        # factors: the logs added match the log scales of the forward pass
        # on the exponentiated estimate
        rng = np.random.default_rng(seed)
        hyper = Hyperparams()
        batch = EpisodeBatch(seeded_batch(seed=seed, n_agents=3),
                             [ACTIONS] * 3, 13)
        states = random_states(rng, batch, (3, 1, 4), hyper)
        kernel = _Kernel(states, hyper, batch)
        kernel.relayout([np.array([1]), np.array([0]), np.array([3])])

        def log_prefix():
            kernel.load(states)
            logp, fwd = specshare.learning._log_prefix(batch, kernel)
            assert fwd is None
            return logp, point_estimate(kernel, kernel.psi)

        got, est = log_prefix()
        _, log_scale = forward(est, batch.actions, batch.obs_bins)
        want = np.cumsum(log_scale, axis=2).sum(axis=0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        # eta and pi[a_0] of agent 0's first step near 1e-200 each: their
        # product underflows, their logs add
        states[0].delta[1] = states[0].phi[1, batch.actions[0, 0, 0]] \
            = 1.0 / 460.0
        got, est = log_prefix()
        assert np.all(np.isfinite(got)) and got[0, 0] < -900.0
        with pytest.raises(ValueError, match="zero likelihood"):
            forward_pass(est, batch.actions, batch.obs_bins)

    def test_several_live_nodes_match_the_stacked_estimate(self):
        # agents of 2, 4 and 3 nodes, agent 1's node 1 dropped, so its node
        # 2 has a gap before it and agent 0 a pad lane: the factors read
        # through the kernel's map give the stacked estimate's forward
        # pass, bit for bit
        rng = np.random.default_rng(12)
        hyper = Hyperparams()
        batch = EpisodeBatch(seeded_batch(seed=12, n_agents=3),
                             [ACTIONS] * 3, 13)
        states = random_states(rng, batch, (2, 4, 3), hyper)
        kernel = _Kernel(states, hyper, batch)
        kernel.relayout([np.arange(2), np.array([0, 2, 3]), np.arange(3)])
        kernel.load(states)
        assert kernel.layout.n_lanes == 3 and kernel.layout.gapped.size
        logp, fwd = specshare.learning._log_prefix(batch, kernel)
        want = forward_pass(point_estimate(kernel, kernel.psi), batch.actions,
                            batch.obs_bins)
        for name in ("alpha_hat", "scale", "steps"):
            assert np.array_equal(getattr(fwd, name), getattr(want, name))
        assert np.array_equal(logp, np.cumsum(np.log(want.scale), axis=2)
                              .sum(axis=0))


def one_node_kernel(eps, hyper, iterations=12):
    """A kernel of `eps` as `learn` holds it after `iterations`, down to one
    live node per agent: built from the states learn returns, at the nodes
    it kept."""
    res = learn(eps, hyper, max_iters=iterations, tol=0.0)
    assert res.trace.live[-1] == [1] * len(res.states)
    batch = EpisodeBatch(eps)
    kernel = _Kernel(res.states, hyper, batch)
    kernel.relayout([np.flatnonzero(occ) for occ in res.occupancy])
    kernel.load(res.states)
    return kernel, batch


def sweep_scatter_masses(kernel, to_go):
    """The one-node masses as the sweep and its scatter added them: the
    occupancy of every step and the pair mass of every transition are both
    the reverse cumulative path weights `to_go`, scattered through the
    point estimate's maps shifted by one (the empty first pair slot adds to
    bin 0), and eta takes the first occupancy summed over episodes."""
    lay, batch = kernel.layout, kernel.batch
    agent = np.arange(lay.n_agents)[:, None, None]
    occ = np.broadcast_to(to_go, batch.actions.shape)
    pair = np.zeros(occ.shape)
    pair[:, :, 1:] = to_go[:, 1:]
    pair_bins = np.zeros(occ.shape, dtype=int)
    pair_bins[:, :, 1:] = 1 + lay.omega_map[agent, 0, batch.actions[..., :-1],
                                            batch.obs_bins, 0]
    occ_bins = 1 + lay.pi_map[agent, 0, batch.actions]
    mass = np.bincount(np.concatenate([pair_bins, occ_bins], axis=None),
                       np.concatenate([pair, occ], axis=None),
                       minlength=kernel.head.size + 1)
    mass[lay.eta_map[:, 0] + 1] = occ[:, :, 0].sum(axis=1)
    return mass[1:]


def lane_scatter_masses(kernel, old, occ, pair):
    """The masses of a sweep's output (occ, pair) over the lanes of the
    layout `old`, before the kernel dropped nodes, as a scatter shifted by
    one adds them through the maps of the kernel's layout: each old lane
    takes the kernel's lane of its node, a dropped node and the empty first
    pair slot add to bin 0, and eta takes the first occupancy summed over
    episodes."""
    lay, batch = kernel.layout, kernel.batch
    same = (old.lane_node[:, :, None] == lay.lane_node[:, None]) \
        & (old.lane_node >= 0)[:, :, None]
    lane = np.where(same.any(axis=2), same.argmax(axis=2), lay.n_lanes)
    # the kernel's maps with a pad lane after the last, read at each old lane
    eta = np.take_along_axis(np.pad(lay.eta_map, ((0, 0), (0, 1)),
                                    constant_values=-1), lane, 1)
    pi = np.take_along_axis(np.pad(lay.pi_map, ((0, 0), (0, 1), (0, 0)),
                                   constant_values=-1), lane[..., None], 1)
    omega = np.pad(lay.omega_map, ((0, 0), (0, 1), (0, 0), (0, 0), (0, 1)),
                   constant_values=-1)
    omega = np.take_along_axis(np.take_along_axis(
        omega, lane[:, :, None, None, None], 1), lane[:, None, None, None], 4)
    agent = np.arange(lay.n_agents)[:, None, None]
    pair_bins = np.zeros(pair.shape, dtype=int)
    pair_bins[:, :, 1:] = 1 + omega[agent, :, batch.actions[..., :-1],
                                    batch.obs_bins]
    occ_bins = 1 + pi[agent, :, batch.actions]
    mass = np.bincount(np.concatenate([pair_bins, occ_bins], axis=None),
                       np.concatenate([pair, occ], axis=None),
                       minlength=kernel.head.size + 1)
    mass[eta + 1] = occ[:, :, 0].sum(axis=1)
    return mass[1:]


def reference_layout(z, live, columns, n_actions, n_obs):
    """A `KernelLayout`'s index arrays and maps built the plain way, agent
    by agent and stick by stick."""
    _, expand, counts = columns
    n_agents, n_cols = len(z), counts.size
    offsets = np.concatenate([[0], np.cumsum(z)]).tolist()
    held = [(n, i) for n in range(n_agents) for i in live[n]]
    lanes = max(len(nodes) for nodes in live)
    live_nodes = [offsets[n] + i for n, i in held]
    dropped = [v for v in range(offsets[-1]) if v not in live_nodes]
    entries = [(n, s, d) for n in range(n_agents) for s in live[n]
               for d in live[n]]
    f = len(held) + len(entries) * n_cols
    ref = collections.defaultdict(list)
    ref["live_nodes"], ref["dropped"] = live_nodes, dropped
    ref["row_node"] = live_nodes + dropped
    ref["n_sticks"], ref["n_rows"] = f, n_agents + len(held) * n_cols
    places = []  # per stick: row, place along it, agent, live node
    for n, i in held:
        places.append((n, list(live[n]).index(i), n, i))
    for n, s, d in entries:
        for c in range(n_cols):
            places.append((n_agents + held.index((n, s)) * n_cols + c,
                           list(live[n]).index(d), n, d))
    for j, (row, at, n, i) in enumerate(places):
        earlier = [v for v in live[n] if v < i]
        gap = i - (max(earlier) + 1 if earlier else 0)
        weight = 1.0 if j < len(held) else float(counts[(j - len(held))
                                                          % n_cols])
        ref["rate_of"].append(row)
        ref["not_last"].append(float(i != z[n] - 1))
        ref["bound_weight"].append(weight)
        if gap:
            ref["gapped"].append(j)
            ref["gap"].append(float(gap))
            ref["gap_weight"].append(gap * weight)
    trail = [z[n] - 1 - max(live[n]) for n in range(n_agents)]
    ref["rate_order"] = list(range(n_agents))
    ref["trail"], ref["trail_weight"] = list(map(float, trail)), \
        list(map(float, trail))
    for v in live_nodes + dropped:
        n = int(np.searchsorted(offsets, v, side="right")) - 1
        for c in range(n_cols):
            rows = trail[n] if v in live_nodes else z[n]
            ref["rate_order"].append(n_agents + v * n_cols + c)
            ref["trail"].append(float(rows))
            ref["trail_weight"].append(float(rows * counts[c]))
    ref["eta_map"] = np.full((n_agents, lanes), -1)
    ref["lane_node"] = np.full((n_agents, lanes), -1)
    ref["pi_map"] = np.full((n_agents, lanes, n_actions), -1)
    ref["omega_map"] = np.full((n_agents, lanes, n_actions * n_obs, lanes),
                               -1)
    for n in range(n_agents):
        for ls, s in enumerate(live[n]):
            h = held.index((n, s))
            ref["eta_map"][n, ls] = h
            ref["lane_node"][n, ls] = offsets[n] + s
            ref["pi_map"][n, ls] = f + h * n_actions + np.arange(n_actions)
            for ld, d in enumerate(live[n]):
                ref["omega_map"][n, ls, :, ld] = len(held) + entries.index(
                    (n, s, d)) * n_cols + expand
    ref["omega_map"] = ref["omega_map"].reshape(n_agents, lanes, n_actions,
                                                n_obs, lanes)
    if lanes > 1:
        ref["grid"] = np.full((ref["n_rows"], 2 * lanes), -1)
        for j, (row, at, _, _) in enumerate(places):
            ref["grid"][row, 2 * at:2 * at + 2] = j, f + j
            ref["prefix_cell"].append(row * 2 * lanes + 2 * at)
    return ref


class TestLiveOnlyKernel:
    """The kernel holds live parameters only: every (1, lam) stick in
    closed form, the dropped rows' rates in one block, the masses of every
    layout through one index map, the layout built with array operations
    and the trace statistics taken after the loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_layout_matches_a_stick_by_stick_construction(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(1, 7, size=rng.integers(1, 4)).tolist()
        live = [np.sort(rng.choice(n, size=rng.integers(1, n + 1),
                                   replace=False)) for n in z]
        n_actions, n_obs = 3, 4
        visited = rng.random((n_actions, n_obs)) < 0.5
        visited[0, 0] = True
        columns = omega_columns(visited, n_actions, n_obs)
        lay = KernelLayout(z, live, columns, n_actions, n_obs)
        ref = reference_layout(z, live, columns, n_actions, n_obs)
        if lay.n_lanes == 1:
            assert lay.grid is None
        for name, want in ref.items():
            assert np.array_equal(getattr(lay, name), want), name

    @pytest.mark.parametrize("source", ["learn-small", "seeded",
                                        "after-a-drop"])
    def test_one_node_masses_match_the_sweep_scatter(self, source):
        # the update's one scatter, read from the factors it sets (base +
        # mass / K), against the sweep's masses scattered on their own
        hyper = Hyperparams()
        if source == "learn-small":
            kernel, batch = one_node_kernel(stored_batch("batch_1.jsonl"),
                                            hyper)
        elif source == "seeded":  # after dropped nodes (agent 1) or none
            batch = EpisodeBatch(seeded_batch(seed=5), [ACTIONS] * 2, 13)
            states = random_states(np.random.default_rng(5), batch, (3, 4),
                                   hyper)
            kernel = _Kernel(states, hyper, batch)
            kernel.relayout([np.array([0]), np.array([2])])
            kernel.load(states)
        else:
            # at several lanes, two nodes leave in the update: agent 0's
            # node 1 of 4, so that its pad lane carries lane 0's masses,
            # and agent 1's node 0 of 5, so that node 1 takes lane 0 and
            # the eta slot
            batch = EpisodeBatch(seeded_batch(seed=8), [ACTIONS] * 2, 13)
            states = random_states(np.random.default_rng(8), batch, (4, 5),
                                   hyper)
            for n, node in enumerate((1, 0)):
                states[n].delta[node] = states[n].sigma[..., node] = 0.011
            kernel = _Kernel(states, hyper, batch)
        old = kernel.layout
        rw = reweighted(batch, kernel, discounted_rewards(
            batch, reward_bounds(batch)[0], hyper.gamma))
        to_go = rw.nu[:, ::-1].cumsum(axis=1)[:, ::-1]
        _update_agent(kernel, rw)
        if old.n_lanes == 1:
            want = sweep_scatter_masses(kernel, to_go)
        else:
            assert kernel.layout.lane_real.tolist() == [[1, 1, 1, 0],
                                                        [1, 1, 1, 1]]
            want = lane_scatter_masses(kernel, old, *_sweep(rw.fwd, rw.nu))
        assert np.array_equal(kernel.head, kernel.base + want / batch.size)

    def test_closed_forms_match_the_term_by_term_bound(self):
        # one live node per agent, not node 0: dropped eta sticks and a
        # dropped destination slot come before it, and one after it
        rng = np.random.default_rng(11)
        hyper = Hyperparams(c=0.3, d=20.0, e=0.2, f=30.0, theta=0.7)
        batch = EpisodeBatch(seeded_batch(seed=11), [ACTIONS] * 2, 13)
        rewards = discounted_rewards(batch, reward_bounds(batch)[0],
                                     hyper.gamma)
        states = random_states(rng, batch, (4, 5), hyper)
        kernel = _Kernel(states, hyper, batch)
        kernel.relayout([np.array([2]), np.array([3])])
        kernel.load(states)
        lay = kernel.layout
        assert lay.gapped.size == lay.n_sticks and lay.trail.all()
        for _ in range(3):
            _update_agent(kernel, reweighted(batch, kernel, rewards))
        value = reweighted(batch, kernel, rewards).value
        stored = copy.deepcopy(states)
        kernel.store(stored)
        for st, nodes in zip(stored, ([0, 1, 3], [0, 1, 2, 4])):
            assert np.all(st.delta[nodes] == 1.0)
            assert np.all(st.sigma[..., nodes] == 1.0)
        bound = reference_elbo(stored, value, hyper)
        assert abs(elbo(kernel, value) - bound) <= 1e-12 * abs(bound)
        # the update's E[ln(1 - u)] -1 / lam: in the rates it set, and in
        # the prefix of the live node's point estimate
        for st, (b, h) in zip(stored, reference_rates(stored, hyper)):
            assert np.all(np.abs(st.b - b) <= 1e-12 * b)
            assert abs(st.h - h) <= 1e-12 * h
        est = point_estimate(kernel, kernel.psi)
        for n, (st, node) in enumerate(zip(stored, (2, 3))):
            st.visited = None  # the columns the kernel keeps for any agent
            full = point_estimate(st)
            for got, want in ((est.eta[n, 0], full.eta[node]),
                              (est.pi[n, 0], full.pi[node]),
                              (est.omega[n, 0, ..., 0],
                               full.omega[node, ..., node])):
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_dropped_rates_are_one_block_at_one_node(self):
        # learn-small batch_1 at one live node: 2 eta sticks, 2 x 28 omega
        # sticks, their sums, 2 x 7 phi and 2 phi sums; b of the 14 dropped
        # rows is the rates' last block, and follows b <- d + Z b / a
        hyper = Hyperparams()
        kernel, batch = one_node_kernel(stored_batch("batch_1.jsonl"), hyper)
        lay = kernel.layout
        assert kernel.x.size == 190 and lay.n_sticks == 58
        n_held = lay.live_nodes.size
        assert lay.row_node.tolist() == lay.live_nodes.tolist() \
            + lay.dropped.tolist()
        block = kernel.b[n_held:]
        assert block.flags.c_contiguous and block.shape == (14, 28)
        assert np.shares_memory(block, kernel.rates[lay.n_rows:])
        before = block.copy()
        node = lay.agent_of_node[lay.dropped, None]
        z, a = lay.node_counts[node], kernel.a[node]
        _update_agent(kernel, reweighted(batch, kernel, discounted_rewards(
            batch, reward_bounds(batch)[0], hyper.gamma)))
        assert np.array_equal(kernel.b[n_held:], z / (a / before) + hyper.d)

    def test_trace_statistics_of_every_iteration(self, monkeypatch):
        weights, b_min = [], []
        original_reweighted = specshare.learning.reweighted
        original_elbo = specshare.learning.elbo

        def spy_reweighted(*args):
            rw = original_reweighted(*args)
            weights.append(rw.nu)
            return rw

        def spy_elbo(kernel, value):
            lay = kernel.layout
            b = kernel.b[lay.node_row].min(axis=1)
            b_min.append([float(b[lay.offsets[n]:lay.offsets[n + 1]].min())
                          for n in range(lay.n_agents)])
            return original_elbo(kernel, value)

        monkeypatch.setattr(specshare.learning, "reweighted", spy_reweighted)
        monkeypatch.setattr(specshare.learning, "elbo", spy_elbo)
        res = learn(stored_batch("batch_1.jsonl"), Hyperparams(),
                    max_iters=200, tol=1e-5)
        assert len(weights) == res.trace.iterations + 1
        for nu, ess, share in zip(weights[1:], res.trace.ess,
                                  res.trace.max_share):
            per_episode = nu.sum(axis=1)
            assert math.isclose(ess, nu.sum() ** 2 / np.sum(nu ** 2),
                                rel_tol=1e-12)
            assert math.isclose(share, per_episode.max() / per_episode.sum(),
                                rel_tol=1e-12)
        assert res.trace.b_min == b_min


class TestStoredReferences:
    """The stored references of the learn-small benchmark batches, one
    tuned-on and the held-out one, hold without running the benchmark."""

    @pytest.mark.parametrize("name", ["batch_1.jsonl", "batch_9.jsonl"])
    def test_learn_small_reference(self, name, learn_small):
        with open(os.path.join(STORED, "inputs.json")) as fh:
            entry, = [b for b in json.load(fh)["learn-small"]
                      if b["file"].endswith("/" + name)]
        want = entry["reference"]
        res = learn_small(name)
        assert res.converged == want["converged"]
        assert res.trace.iterations == want["iterations"]
        assert res.trace.node_counts[-1] == want["nodes_final"]
        assert math.isclose(res.trace.elbo[-1], want["final_elbo"],
                            rel_tol=1e-9, abs_tol=0.0)
        assert math.isclose(res.trace.value[-1], want["final_value"],
                            rel_tol=1e-9, abs_tol=0.0)

    @pytest.mark.parametrize("path, nodes", [
        ("learn-small/batch_1.jsonl", [8, 8]),
        ("learn-paper/batch_1.jsonl", [9, 9, 9, 9])])
    def test_start_from_the_batch_arrays(self, path, nodes):
        # node counts of the episode-tree start when it was built from the
        # episode lists; each agent's rows are smoothed, hence positive
        batch = EpisodeBatch(trajectories.load(os.path.join(STORED, path)))
        starts = [init_from_episodes(batch.actions[n], batch.obs_bins[n],
                                     len(batch.action_sets[n]))
                  for n in range(len(batch.actions))]
        assert [len(pi) for pi in starts] == nodes
        for pi in starts:
            assert pi.shape[1] == 7 and np.all(pi > 0.0)
            assert np.allclose(pi.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
