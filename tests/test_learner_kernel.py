"""The learner's per-iteration kernel: the O(T) node sweep against the
multi-endpoint sweep it replaced, how many digammas an iteration takes, and
the once-per-iteration domain check."""

import numpy as np
import pytest

import specshare.fsc
import specshare.learning
from specshare.fsc import PointEstimate, forward
from specshare.learning import (Hyperparams, VariationalState, _sweep_agent,
                                learn)
from tests.sweep_reference import multi_endpoint_sweep
from tests.test_fsc import random_point_estimate
from tests.test_learning import seeded_batch


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
        for z in range(2, 11):
            est = make(rng, z=z)
            k = 4
            aidx = rng.integers(0, 3, size=(k, t))
            obins = rng.integers(0, 4, size=(k, t - 1))
            nu = rng.random((k, t)) * (rng.random((k, t)) < 0.8)
            ahat, _ = forward(est, aidx, obins)
            got = _sweep_agent(est, aidx, obins, nu, ahat)
            want = multi_endpoint_sweep(est, aidx, obins, nu, ahat)
            for g, w in zip(got, want):
                gap, share = slice_gap(g, w)
                assert gap <= 1e-12
                finite.append(share)
        if not extreme:
            assert min(finite) == 1.0
        assert np.mean(finite) > 0.5

    def test_single_step_episodes(self):
        rng = np.random.default_rng(3)
        est = random_point_estimate(rng, z=3)
        aidx = rng.integers(0, 3, size=(2, 1))
        obins = np.zeros((2, 0), dtype=int)
        nu = np.array([[0.5], [2.0]])
        ahat, _ = forward(est, aidx, obins)
        occ, pair = _sweep_agent(est, aidx, obins, nu, ahat)
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
        original = specshare.learning._sweep_agent

        def poisoned(*args):
            occ, pair = original(*args)
            pair[..., 0] = np.nan
            return occ, pair

        monkeypatch.setattr(specshare.learning, "_sweep_agent", poisoned)
        with pytest.raises(FloatingPointError, match="sigma"):
            learn(seeded_batch(), Hyperparams(), max_iters=3, n_obs_bins=13)
