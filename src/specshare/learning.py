"""Variational policy search over finite state controllers.

The importance-weighted discounted return of the candidate policy acts as
the likelihood; stick-breaking Beta/Gamma priors over controller rows act
as the prior; coordinate ascent over the factorized posterior maximizes
the evidence lower bound. Node-path posteriors for every episode prefix
come from one forward and one O(T) backward pass per agent and episode
length. Each iteration takes each digamma once (`_Shared`) and checks
each argument once, so the special functions skip the per-call check.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import EpisodeBatch
from .distributions import _special_function
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, factor_digammas, forward,
                  init_from_episodes, omega_columns, point_estimate, prune)
# perfbench/tracing.py patches these names here; log_history_likelihoods is
# not called, and digamma and gammaln skip the domain check, because
# VariationalState.assert_positive checks every argument once per iteration
from .fsc import log_history_likelihoods  # noqa: F401
digamma = partial(_special_function, "digamma", check=False)
gammaln = partial(_special_function, "gammaln", check=False)


@dataclass
class Hyperparams:
    c: float = 0.1    # Gamma shape, prior on each omega-row concentration
    d: float = 100.0  # Gamma rate for the same
    e: float = 0.1    # Gamma shape, prior on the eta concentration
    f: float = 100.0  # Gamma rate for the same
    theta: float = 1.0  # symmetric Dirichlet prior on action rows
    gamma: float = 0.9  # discount

    def __post_init__(self):
        if min(self.c, self.d, self.e, self.f, self.theta) <= 0.0:
            raise ValueError("hyperparameters must be strictly positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("discount must be in [0, 1)")

    @classmethod
    def from_json(cls, data):
        return cls(**data)


class VariationalState:
    """Per-agent factorized posterior parameters.

    delta, mu: per-node Beta for the eta stick breaks; phi: per-node
    Dirichlet over actions; sigma, lam: per-(node, action, obs, next-node)
    Beta for the omega stick breaks; g, h: Gamma for the eta concentration;
    a, b: per-(node, action, obs) Gamma for the omega concentrations.
    visited: (action, obs) mask of the pairs some episode takes a
    transition at, or None for all; the stick arithmetic runs only on
    these columns plus one stand-in for the rest (`fsc.omega_columns`).
    """

    def __init__(self, node_count, n_actions, n_obs, hyper, pi_seed=None,
                 visited=None):
        z = node_count
        self.delta = np.ones(z)
        self.mu = np.ones(z)
        self.phi = np.full((z, n_actions), hyper.theta)
        if pi_seed is not None:
            self.phi = self.phi + np.asarray(pi_seed, dtype=float)
        self.sigma = np.ones((z, n_actions, n_obs, z))
        self.lam = np.ones((z, n_actions, n_obs, z))
        self.g = hyper.e + z
        self.h = hyper.f
        self.a = np.full((z, n_actions, n_obs), hyper.c + z)
        self.b = np.full((z, n_actions, n_obs), hyper.d)
        self.visited = visited

    @property
    def node_count(self):
        return self.delta.size

    def assert_positive(self, names=("delta", "mu", "phi", "sigma", "lam",
                                     "a", "b", "g", "h")):
        """FloatingPointError unless every named parameter is positive and
        finite (a NaN fails too)."""
        for name in names:
            value = np.asarray(getattr(self, name))
            if not (value.min() > 0.0 and value.max() < math.inf):
                raise FloatingPointError("non-positive or non-finite "
                                         "variational parameter %s" % name)


class _Shared:
    """What an agent's concentration update, point estimate and bound read:
    `layout` and the a and g terms, fixed for a run as a = c + Z and
    g = e + Z, and `psi`, taken by `refresh` after every update."""

    def __init__(self, state, hyper):
        state.assert_positive(("a", "b", "g", "h"))
        self.layout = omega_columns(state)
        z = state.node_count
        self.a = state.a.reshape(z, -1)[:, self.layout[0]]
        self.psi_g, self.psi_a = digamma(state.g), digamma(self.a)
        self.lgamma_g, self.lgamma_a = gammaln(state.g), gammaln(self.a)
        self.lgamma_e, self.lgamma_c = gammaln(hyper.e), gammaln(hyper.c)
        self.refresh(state)

    def refresh(self, state):
        state.assert_positive(("delta", "mu", "phi", "sigma", "lam"))
        self.psi = factor_digammas(state, self.layout, digamma)


# nu_tilde: per (k, t), the posterior path weight; value: the empirical
# value the weights divide by; nu: per batch group, nu_tilde as one (K_g, t)
# block; alpha_hat: per (group, agent), the target's (K_g, t, Z) tables
ReweightedRewards = namedtuple("ReweightedRewards",
                               "nu_tilde value nu alpha_hat")


@dataclass
class ElboTrace:
    elbo: list = field(default_factory=list)
    value: list = field(default_factory=list)
    node_counts: list = field(default_factory=list)  # per iteration, per agent
    g: list = field(default_factory=list)
    h: list = field(default_factory=list)
    a: list = field(default_factory=list)       # per-agent common a value
    b_min: list = field(default_factory=list)   # per-agent smallest b
    norm: list = field(default_factory=list)    # path-weight normalization

    @property
    def iterations(self):
        return len(self.elbo)


@dataclass
class LearnResult:
    states: list
    point_estimates: list
    trace: ElboTrace
    policies: list          # pruned posterior-mean controllers
    occupancy: list         # per-agent node occupancy mass at convergence
    converged: bool


def reward_bounds(episodes):
    """(min, max) over every global cumulative reward in the batch."""
    rewards = [r for ep in episodes for r in ep.rewards]
    if not rewards:
        raise ValueError("no rewards in batch")
    lo, hi = float(min(rewards)), float(max(rewards))
    if hi <= lo:
        raise ValueError("degenerate reward batch: max equals min")
    return lo, hi


def forward_messages(policy, action_idx, obs_bins):
    """Unscaled forward table alpha[tau, i] over controller nodes."""
    alpha_hat, log_scale = forward(policy, action_idx, obs_bins)
    return alpha_hat * np.exp(np.cumsum(log_scale))[:, None]


def backward_messages(policy, action_idx, obs_bins, t):
    """Unscaled backward table beta[tau, i] for the prefix ending at t."""
    beta = np.empty((t + 1, policy.eta.size))
    beta[t] = 1.0
    for tau in range(t - 1, -1, -1):
        trans = policy.omega[:, action_idx[tau], obs_bins[tau], :]
        beta[tau] = trans @ (policy.pi[:, action_idx[tau + 1]] * beta[tau + 1])
    return beta


def node_marginals(policy, action_idx, obs_bins, t):
    """Posterior node-path marginals for the prefix ending at epoch t.

    Returns (singletons[tau, i], pairwise[tau - 1, i, j]) where the
    pairwise slice tau - 1 couples z_{tau-1} and z_tau, tau = 1..t. This
    is the learner's own sweep with all path weight on endpoint t.
    """
    aidx = np.asarray(action_idx[:t + 1], dtype=int)[None]
    obins = np.asarray(obs_bins[:t], dtype=int)[None]
    alpha_hat, _ = forward(policy, aidx, obins)
    nu = np.zeros((1, t + 1))
    nu[0, t] = 1.0
    occ, pair = _sweep_agent(policy, aidx, obins, nu, alpha_hat)
    return occ[0], pair[0, 1:]


def _log_prefix(group, policies):
    """Cumulative log joint likelihood per (episode, t) of one group,
    summed over agents, and each agent's scaled forward tables."""
    passes = [forward(pol, group.action_idx[n], group.obs_bins[n])
              for n, pol in enumerate(policies)]
    logp = np.sum([np.cumsum(log_scale, axis=1) for _, log_scale in passes],
                  axis=0)
    return logp, [table for table, _ in passes]


def _return_terms(batch, target, behavior, r_min, gamma):
    """The empirical value and, per group, each (episode, t) return term
    (importance ratio times shifted discounted reward) and the target's
    scaled forward tables per agent.

    Behaviour policies, when given, run through the same forward call as
    the target, so equal policies cancel exactly; otherwise the per-step
    probabilities stored at collection time are used.
    """
    terms, alpha_hat = [], []
    for g in batch.groups:
        logp, tables = _log_prefix(g, target)
        logb = g.log_behavior if behavior is None \
            else _log_prefix(g, behavior)[0]
        t = np.arange(g.rewards.shape[1])
        terms.append(np.exp(logp - logb)
                     * ((gamma ** t) * (g.rewards - r_min)))
        alpha_hat.append(tables)
    value = sum(float(np.sum(w)) for w in terms) / batch.size
    return value, terms, alpha_hat


def empirical_value(episodes, target, behavior=None, r_min=None, gamma=0.9):
    """Importance-weighted discounted return of the target policy.

    target: per-agent controllers or point estimates. behavior: per-agent
    proper controllers, or None to use the probabilities stored in the
    episodes. r_min defaults to the batch minimum.
    """
    if r_min is None:
        r_min, _ = reward_bounds(episodes)
    batch = EpisodeBatch.for_policies(episodes, target, behavior)
    return _return_terms(batch, target, behavior, r_min, gamma)[0]


def reweighted(episodes, estimates, r_min, gamma, behavior=None):
    """Posterior path weights nu[k][t] plus the value they normalize by.

    `episodes` is a list of episodes or an `EpisodeBatch` built for them.
    """
    batch = episodes if isinstance(episodes, EpisodeBatch) \
        else EpisodeBatch.for_policies(episodes, estimates, behavior)
    value, terms, alpha_hat = _return_terms(batch, estimates, behavior,
                                            r_min, gamma)
    if not (value > 0.0 and math.isfinite(value)):
        raise FloatingPointError("empirical value is not positive: %r" % value)
    nu = [w / value for w in terms]
    return ReweightedRewards(nu_tilde=batch.per_episode(nu), value=value,
                             nu=nu, alpha_hat=alpha_hat)


def _sweep_agent(estimate, aidx, obins, nu, ahat):
    """nu-weighted posterior node statistics for one agent over a block of
    equal-length episodes.

    `aidx` (K, t1) and `obins` (K, t1 - 1) index the episodes, `nu`
    (K, t1) holds their path weights and `ahat` (K, t1, Z) their scaled
    forward tables from `forward`. Returns (occ, pair): occ[k, tau, i]
    sums the singleton marginals of z_tau over every prefix endpoint
    t >= tau, each weighted by nu[k, t]; pair[k, tau] (tau >= 1) likewise
    sums the weighted pairwise marginals coupling z_{tau-1} and z_tau.
    All endpoints share one reward-to-go recursion (Toussaint & Storkey
    2006): G_tau = nu_tau + M_tau G_{tau+1} / c_{tau+1}, with M_tau[i, j] =
    omega[i, a_tau, o_tau, j] pi[j, a_{tau+1}] and the forward scale
    c_{tau+1} = sum(ahat_tau M_tau); occ_tau = ahat_tau G_tau and
    pair_{tau+1}[i, j] = ahat_tau[i] M_tau[i, j] G_{tau+1}[j] / c_{tau+1}.
    """
    k, t1, z = ahat.shape
    m = estimate.omega.transpose(1, 2, 0, 3)[aidx[:, :-1], obins] \
        * estimate.pi.T[aidx[:, 1:]][:, :, None, :]
    scale = (ahat[:, :-1, None, :] @ m)[:, :, 0].sum(axis=-1)
    to_go = np.empty((k, t1, z))
    to_go[:, -1] = nu[:, -1:]
    for tau in range(t1 - 2, -1, -1):
        after = to_go[:, tau + 1] / scale[:, tau, None]
        to_go[:, tau] = nu[:, tau, None] \
            + (m[:, tau] @ after[..., None])[..., 0]
    pair = np.zeros((k, t1, z, z))
    pair[:, 1:] = ahat[:, :-1, :, None] * m \
        * (to_go[:, 1:] / scale[..., None])[:, :, None, :]
    return ahat * to_go, pair


def _update_agent(state, estimate, batch, agent, rw, hyper, shared=None):
    """One coordinate sweep of a single agent's factors.

    `rw` holds the path weights and forward tables that `reweighted`
    computed at `estimate`. The omega sticks are updated on the columns
    `fsc.omega_columns` keeps and copied out to the full arrays. `shared`
    (the agent's `_Shared`, built here if absent) is refreshed in between.

    Order: action rows, then omega sticks (using the previous omega
    concentrations), then eta sticks (using the previous eta
    concentration), then both concentrations. Returns the per-node
    occupancy mass accumulated this sweep.
    """
    if shared is None:
        shared = _Shared(state, hyper)
    z = state.node_count
    n_actions, n_obs = state.phi.shape[1], state.sigma.shape[2]
    columns, expand, _ = shared.layout
    k = batch.size
    delta_acc = np.zeros(z)
    phi_acc = np.zeros((n_actions, z))
    sigma_acc = np.zeros((columns.size, z, z))
    occ_total = np.zeros(z)
    for g, nu, tables in zip(batch.groups, rw.nu, rw.alpha_hat):
        aidx, obins = g.action_idx[agent], g.obs_bins[agent]
        occ, pair = _sweep_agent(estimate, aidx, obins, nu, tables[agent])
        delta_acc += occ[:, 0].sum(axis=0)
        occ_total += occ.sum(axis=(0, 1))
        np.add.at(phi_acc, aidx, occ)
        np.add.at(sigma_acc, expand[aidx[:, :-1] * n_obs + obins], pair[:, 1:])
    state.phi = hyper.theta + phi_acc.T / k
    # omega sticks: lam adds the mass of heavier-indexed destinations
    sigma_acc = sigma_acc.transpose(1, 0, 2)
    tail_sigma = np.flip(np.cumsum(np.flip(sigma_acc, axis=-1), axis=-1),
                         axis=-1) - sigma_acc
    sigma = 1.0 + sigma_acc / k
    lam = (state.a.reshape(z, -1)[:, columns]
           / state.b.reshape(z, -1)[:, columns])[..., None] + tail_sigma / k
    state.sigma = sigma[:, expand].reshape(state.sigma.shape)
    state.lam = lam[:, expand].reshape(state.lam.shape)
    tail_delta = np.flip(np.cumsum(np.flip(delta_acc))) - delta_acc
    state.delta = 1.0 + delta_acc / k
    state.mu = state.g / state.h + tail_delta / k
    shared.refresh(state)
    _, psi_mu, psi_delta_mu = shared.psi.eta
    _, psi_lam, psi_sigma_lam = shared.psi.omega
    state.a = np.full((z, n_actions, n_obs), hyper.c + z)
    b = np.maximum(hyper.d - np.sum(psi_lam - psi_sigma_lam, axis=-1), 1e-6)
    state.b = b[:, expand].reshape(z, n_actions, n_obs)
    state.g = hyper.e + z
    state.h = max(hyper.f - float(np.sum(psi_mu - psi_delta_mu)), 1e-6)
    state.assert_positive(("b", "h"))
    return occ_total


def _beta_term(first, second, psi, e_ln_conc, e_conc, weight=1.0):
    """Weighted sum of E[ln Beta(x; 1, conc)] - E[ln q(x)],
    q(x) = Beta(first, second), with the concentration's expected log and
    mean under its own factor; `psi` is digamma of first, second and sum."""
    psi_first, psi_second, psi_sum = psi
    e_ln_x = psi_first - psi_sum
    e_ln_1mx = psi_second - psi_sum
    prior = e_ln_conc + (e_conc - 1.0) * e_ln_1mx
    entropy = (gammaln(first + second) - gammaln(first) - gammaln(second)
               + (first - 1.0) * e_ln_x + (second - 1.0) * e_ln_1mx)
    return float(np.sum((prior - entropy) * weight))


def _gamma_term(shape_p, rate_p, shape_q, rate_q, psi_q, lgamma_p, lgamma_q,
                weight=1.0):
    """Weighted sum of E[ln Gamma(x; shape_p, rate_p)] - E[ln q(x)], given
    digamma(shape_q), gammaln(shape_p) and gammaln(shape_q)."""
    e_ln = psi_q - np.log(rate_q)
    prior = (shape_p * np.log(rate_p) - lgamma_p
             + (shape_p - 1.0) * e_ln - rate_p * shape_q / rate_q)
    entropy = (shape_q * np.log(rate_q) - lgamma_q
               + (shape_q - 1.0) * e_ln - shape_q)
    return float(np.sum((prior - entropy) * weight))


def elbo(states, value, hyper, shared=None):
    """Evidence lower bound at the current factors and point estimate.

    The node-path factor is constructed so its weighted data expectation
    minus its own entropy collapses to the log of the empirical value;
    every other factor contributes an analytic prior-minus-entropy term.
    The omega terms are evaluated on the columns `fsc.omega_columns` keeps,
    each weighted by the number of columns it stands for. `shared` holds
    each state's `_Shared`, built (and the state checked) here if absent.
    """
    if shared is None:
        shared = [_Shared(st, hyper) for st in states]
    total = math.log(value)
    for st, sh in zip(states, shared):
        total += _beta_term(st.delta, st.mu, sh.psi.eta,
                            sh.psi_g - math.log(st.h), st.g / st.h)
        total += _gamma_term(hyper.e, hyper.f, st.g, st.h, sh.psi_g,
                             sh.lgamma_e, sh.lgamma_g)
        columns, _, counts = sh.layout
        z = st.node_count
        b = st.b.reshape(z, -1)[:, columns]
        e_ln_alpha = sh.psi_a - np.log(b)
        total += _beta_term(st.sigma.reshape(z, -1, z)[:, columns],
                            st.lam.reshape(z, -1, z)[:, columns],
                            sh.psi.omega, e_ln_alpha[..., None],
                            (sh.a / b)[..., None], counts[:, None])
        total += _gamma_term(hyper.c, hyper.d, sh.a, b, sh.psi_a,
                             sh.lgamma_c, sh.lgamma_a, counts)
        phi = st.phi
        n_actions = phi.shape[1]
        e_ln_pi = sh.psi.pi[0] - sh.psi.pi[1]
        prior = (phi.shape[0] * (math.lgamma(n_actions * hyper.theta)
                                 - n_actions * math.lgamma(hyper.theta))
                 + float(np.sum((hyper.theta - 1.0) * e_ln_pi)))
        entropy = float(np.sum(gammaln(phi.sum(axis=1))) - np.sum(gammaln(phi))
                        + np.sum((phi - 1.0) * e_ln_pi))
        total += prior - entropy
    return total


def learn(episodes, hyper, max_iters=200, tol=1e-5, prune_epsilon=1e-3,
          max_nodes=10, action_set=None, n_obs_bins=DEFAULT_OBS_BINS):
    """Coordinate-ascent loop: refresh point estimates, reweight paths,
    update every factor, evaluate the bound; stop when the relative bound
    change drops below tol.

    The episodes are checked and indexed once into an `EpisodeBatch`
    (ValueError if malformed) and are not modified.
    """
    if not episodes:
        raise ValueError("need at least one episode")
    n_agents = len(episodes[0].agents)
    if action_set is None:
        action_set = tuple(sorted({a for ep in episodes
                                   for tr in ep.agents for a in tr.actions}))
    batch = EpisodeBatch(episodes, [action_set] * n_agents, n_obs_bins)
    r_min, _ = reward_bounds(episodes)
    k = len(episodes)
    states = []
    for n in range(n_agents):
        init = init_from_episodes(episodes, n, action_set,
                                  n_obs_bins=n_obs_bins, max_nodes=max_nodes)
        states.append(VariationalState(
            init.node_count, len(action_set), n_obs_bins, hyper,
            pi_seed=init.pi, visited=batch.visited(n, len(action_set))))
    trace = ElboTrace()
    active = [set(range(s.node_count)) for s in states]
    occ_totals = [np.ones(s.node_count) for s in states]
    prev_elbo, converged = None, False
    shared = [_Shared(s, hyper) for s in states]
    estimates = [point_estimate(s, sh.psi) for s, sh in zip(states, shared)]
    rw = reweighted(batch, estimates, r_min, hyper.gamma)
    for _ in range(max_iters):
        # the path-weight constraint: weights average to 1 over the batch
        norm = sum(float(np.sum(nu)) for nu in rw.nu_tilde) / k
        if abs(norm - 1.0) > 1e-9:
            raise FloatingPointError("path-weight normalization drifted: %r" % norm)
        trace.norm.append(norm)
        occ_totals = [_update_agent(states[n], estimates[n], batch, n,
                                    rw, hyper, shared[n])
                      for n in range(n_agents)]
        estimates = [point_estimate(s, sh.psi)
                     for s, sh in zip(states, shared)]
        rw = reweighted(batch, estimates, r_min, hyper.gamma)
        cur = elbo(states, rw.value, hyper, shared)
        if not math.isfinite(cur):
            raise FloatingPointError("bound is not finite")
        trace.elbo.append(cur)
        trace.value.append(rw.value)
        for n in range(n_agents):
            total = occ_totals[n].sum()
            live = {i for i in active[n]
                    if occ_totals[n][i] >= prune_epsilon * total}
            if live:
                active[n] = live  # pruning never resurrects a node
        trace.node_counts.append([len(active[n]) for n in range(n_agents)])
        trace.g.append([s.g for s in states])
        trace.h.append([s.h for s in states])
        trace.a.append([float(s.a.flat[0]) if np.all(s.a == s.a.flat[0])
                        else math.nan for s in states])
        trace.b_min.append([float(s.b.min()) for s in states])
        if prev_elbo is not None and abs((cur - prev_elbo) / prev_elbo) < tol:
            converged = True
            break
        prev_elbo = cur
    policies = []
    for n, st in enumerate(states):
        live = sorted(active[n])
        mask = np.zeros(st.node_count)
        mask[live] = occ_totals[n][live]
        policies.append(prune(mean_policy(st, action_set, n_obs_bins), mask,
                              prune_epsilon)[0])
    return LearnResult(states=states, point_estimates=estimates, trace=trace,
                       policies=policies, occupancy=occ_totals,
                       converged=converged)


def _stick_mean(first, second):
    """Posterior-mean stick weights along the last axis."""
    ratio = first / (first + second)
    prefix = np.ones_like(ratio)
    prefix[..., 1:] = np.cumprod(1.0 - ratio[..., :-1], axis=-1)
    w = prefix * ratio
    w[..., -1] = prefix[..., -1]
    return w / w.sum(axis=-1, keepdims=True)


def mean_policy(state, action_set, n_obs_bins):
    """Proper controller from the posterior means of every factor."""
    eta = _stick_mean(state.delta, state.mu)
    pi = state.phi / state.phi.sum(axis=1, keepdims=True)
    omega = _stick_mean(state.sigma, state.lam)
    return FscPolicy(eta=eta, pi=pi, omega=omega, action_set=tuple(action_set),
                     n_obs_bins=n_obs_bins)
