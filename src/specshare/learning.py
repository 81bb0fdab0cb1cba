"""Variational policy search over finite state controllers.

The importance-weighted discounted return of the candidate policy acts as
the likelihood; stick-breaking Beta/Gamma priors over controller rows act
as the prior; coordinate ascent over the factorized posterior maximizes
the evidence lower bound. Node-path posteriors are computed for every
episode prefix at once by a scaled forward-backward kernel that runs over
all episodes of one length in a single pass per agent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .batch import EpisodeBatch
from .distributions import digamma, gammaln
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, forward, init_from_episodes,
                  omega_columns, point_estimate, prune)
# not called here; perfbench/tracing.py patches it under this module's name
from .fsc import log_history_likelihoods  # noqa: F401


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

    def assert_positive(self):
        for name in ("delta", "mu", "phi", "sigma", "lam", "a", "b"):
            if np.any(getattr(self, name) <= 0.0):
                raise FloatingPointError("non-positive variational parameter %s" % name)
        if self.g <= 0.0 or self.h <= 0.0:
            raise FloatingPointError("non-positive concentration parameters")


@dataclass
class ReweightedRewards:
    r_tilde: list        # per (k, t): discounted shifted reward
    nu_tilde: list       # per (k, t): posterior path weight
    r_min: float
    r_max: float
    value: float         # the empirical value the weights divide by
    nu: list             # per batch group: nu_tilde as one (K_g, t) block
    alpha_hat: list      # per (group, agent): target's (K_g, t, Z) tables


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
    z = policy.eta.size
    beta = np.empty((t + 1, z))
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


def _log_weights(batch, target, behavior, r_min, gamma):
    """Per group: log importance ratio per (episode, t), shifted discounted
    reward per (episode, t), and the target's scaled forward tables per
    agent.

    Behaviour policies, when given, run through the same forward call as
    the target, so equal policies cancel exactly; otherwise the per-step
    probabilities stored at collection time are used.
    """
    log_ratio = []
    rewards = []
    alpha_hat = []
    for g in batch.groups:
        logp, tables = _log_prefix(g, target)
        logb = g.log_behavior if behavior is None \
            else _log_prefix(g, behavior)[0]
        t = np.arange(g.rewards.shape[1])
        log_ratio.append(logp - logb)
        rewards.append((gamma ** t) * (g.rewards - r_min))
        alpha_hat.append(tables)
    return log_ratio, rewards, alpha_hat


def empirical_value(episodes, target, behavior=None, r_min=None, gamma=0.9):
    """Importance-weighted discounted return of the target policy.

    target: per-agent controllers or point estimates. behavior: per-agent
    proper controllers, or None to use the probabilities stored in the
    episodes. r_min defaults to the batch minimum.
    """
    if r_min is None:
        r_min, _ = reward_bounds(episodes)
    batch = EpisodeBatch.for_policies(episodes, target, behavior)
    log_w, rew, _ = _log_weights(batch, target, behavior, r_min, gamma)
    total = sum(float(np.sum(np.exp(lw) * r)) for lw, r in zip(log_w, rew))
    return total / batch.size


def reweighted(episodes, estimates, r_min, gamma, behavior=None):
    """Posterior path weights nu[k][t] plus the value they normalize by.

    `episodes` is a list of episodes or an `EpisodeBatch` built for them.
    """
    batch = episodes if isinstance(episodes, EpisodeBatch) \
        else EpisodeBatch.for_policies(episodes, estimates, behavior)
    log_w, rew, alpha_hat = _log_weights(batch, estimates, behavior,
                                         r_min, gamma)
    value = sum(float(np.sum(np.exp(lw) * r))
                for lw, r in zip(log_w, rew)) / batch.size
    if not (value > 0.0 and math.isfinite(value)):
        raise FloatingPointError("empirical value is not positive: %r" % value)
    nu = [np.exp(lw) * r / value for lw, r in zip(log_w, rew)]
    return ReweightedRewards(r_tilde=batch.per_episode(rew),
                             nu_tilde=batch.per_episode(nu), r_min=r_min,
                             r_max=batch.r_max, value=value, nu=nu,
                             alpha_hat=alpha_hat)


def _sweep_agent(estimate, aidx, obins, nu, ahat):
    """nu-weighted posterior node statistics for one agent over a block of
    equal-length episodes.

    `aidx` (K, t1) and `obins` (K, t1 - 1) index the episodes, `nu`
    (K, t1) holds their path weights and `ahat` (K, t1, Z) their scaled
    forward tables from `forward`. Returns (occ, pair): occ[k, tau, i]
    sums the singleton marginals of z_tau over every prefix endpoint
    t >= tau, each weighted by nu[k, t]; pair[k, tau] (tau >= 1) likewise
    sums the weighted pairwise marginals coupling z_{tau-1} and z_tau. All
    prefixes share one backward sweep that carries a column per endpoint.
    """
    k, t1 = aidx.shape
    z = estimate.eta.size
    # m[k, tau, i, j] = omega[i, a_tau, o_tau, j] * pi[j, a_{tau+1}]
    m = estimate.omega.transpose(1, 2, 0, 3)[aidx[:, :-1], obins] \
        * estimate.pi.T[aidx[:, 1:]][:, :, None, :]
    occ = np.empty((k, t1, z))
    d = np.empty((k, t1, z))  # d[:, tau]: weighted messages into z_tau
    bcols = np.ones((k, z, t1))  # column t: backward message for endpoint t
    occ[:, -1] = ahat[:, -1] * nu[:, -1:]
    for tau in range(t1 - 2, -1, -1):
        a_tau = ahat[:, tau, None, :]
        cols = bcols[:, :, tau + 1:]
        mb = m[:, tau] @ cols
        z2 = a_tau @ mb
        d[:, tau + 1] = (cols @ (nu[:, None, tau + 1:] / z2)
                         .transpose(0, 2, 1))[..., 0]
        bcols[:, :, tau + 1:] = mb
        live = bcols[:, :, tau:]
        live /= live.max(axis=1, keepdims=True)
        znorm = a_tau @ live
        occ[:, tau] = ahat[:, tau] * (live @ (nu[:, None, tau:] / znorm)
                                      .transpose(0, 2, 1))[..., 0]
    pair = np.zeros((k, t1, z, z))
    pair[:, 1:] = ahat[:, :-1, :, None] * m * d[:, 1:, None, :]
    return occ, pair


def _update_agent(state, estimate, batch, agent, rw, hyper):
    """One coordinate sweep of a single agent's factors.

    `rw` holds the path weights and forward tables that `reweighted`
    computed at `estimate`. The omega sticks are updated on the columns
    `fsc.omega_columns` keeps and copied out to the full arrays.

    Order: action rows, then omega sticks (using the previous omega
    concentrations), then eta sticks (using the previous eta
    concentration), then both concentrations. Returns the per-node
    occupancy mass accumulated this sweep.
    """
    z = state.node_count
    n_actions, n_obs = state.phi.shape[1], state.sigma.shape[2]
    columns, expand, _ = omega_columns(state)
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
    state.a = np.full((z, n_actions, n_obs), hyper.c + z)
    b = np.maximum(hyper.d - np.sum(digamma(lam) - digamma(sigma + lam),
                                    axis=-1), 1e-6)
    state.b = b[:, expand].reshape(z, n_actions, n_obs)
    state.g = hyper.e + z
    state.h = max(hyper.f - float(np.sum(digamma(state.mu)
                                         - digamma(state.delta + state.mu))),
                  1e-6)
    return occ_total


def _beta_term(first, second, e_ln_conc, e_conc, weight=1.0):
    """Weighted sum of E[ln Beta(x; 1, conc)] - E[ln q(x)],
    q(x) = Beta(first, second), with the concentration's expected log and
    mean under its own factor."""
    psi_sum = digamma(first + second)
    e_ln_x = digamma(first) - psi_sum
    e_ln_1mx = digamma(second) - psi_sum
    prior = e_ln_conc + (e_conc - 1.0) * e_ln_1mx
    entropy = (gammaln(first + second) - gammaln(first) - gammaln(second)
               + (first - 1.0) * e_ln_x + (second - 1.0) * e_ln_1mx)
    return float(np.sum((prior - entropy) * weight))


def _gamma_term(shape_p, rate_p, shape_q, rate_q, weight=1.0):
    """Weighted sum of E[ln Gamma(x; shape_p, rate_p)] - E[ln q(x)]."""
    e_ln = digamma(shape_q) - np.log(rate_q)
    prior = (shape_p * np.log(rate_p) - gammaln(shape_p)
             + (shape_p - 1.0) * e_ln - rate_p * shape_q / rate_q)
    entropy = (shape_q * np.log(rate_q) - gammaln(shape_q)
               + (shape_q - 1.0) * e_ln - shape_q)
    return float(np.sum((prior - entropy) * weight))


def elbo(states, value, hyper):
    """Evidence lower bound at the current factors and point estimate.

    The node-path factor is constructed so its weighted data expectation
    minus its own entropy collapses to the log of the empirical value;
    every other factor contributes an analytic prior-minus-entropy term.
    The omega terms are evaluated on the columns `fsc.omega_columns` keeps,
    each weighted by the number of columns it stands for.
    """
    total = math.log(value)
    for st in states:
        e_ln_rho = digamma(st.g) - math.log(st.h)
        total += _beta_term(st.delta, st.mu, e_ln_rho, st.g / st.h)
        total += _gamma_term(hyper.e, hyper.f, st.g, st.h)
        columns, _, counts = omega_columns(st)
        z = st.node_count
        a = st.a.reshape(z, -1)[:, columns]
        b = st.b.reshape(z, -1)[:, columns]
        e_ln_alpha = digamma(a) - np.log(b)
        total += _beta_term(st.sigma.reshape(z, -1, z)[:, columns],
                            st.lam.reshape(z, -1, z)[:, columns],
                            e_ln_alpha[..., None], (a / b)[..., None],
                            counts[:, None])
        total += _gamma_term(hyper.c, hyper.d, a, b, counts)
        phi = st.phi
        n_actions = phi.shape[1]
        e_ln_pi = digamma(phi) - digamma(phi.sum(axis=1, keepdims=True))
        prior = (phi.shape[0] * (math.lgamma(n_actions * hyper.theta)
                                 - n_actions * math.lgamma(hyper.theta))
                 + float(np.sum((hyper.theta - 1.0) * e_ln_pi)))
        entropy = float(np.sum(gammaln(phi.sum(axis=1))) - np.sum(gammaln(phi))
                        + np.sum((phi - 1.0) * e_ln_pi))
        total += prior - entropy
    return total


def check_normalization(rw, k):
    """The path-weight constraint: weights average to 1 over the batch."""
    return sum(float(np.sum(nu)) for nu in rw.nu_tilde) / k


def learn(episodes, hyper, max_iters=200, tol=1e-5, prune_epsilon=1e-3,
          max_nodes=10, init_policies=None, action_set=None,
          n_obs_bins=DEFAULT_OBS_BINS):
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
    if init_policies is None:
        init_policies = [init_from_episodes(episodes, n, action_set,
                                            n_obs_bins=n_obs_bins,
                                            max_nodes=max_nodes)
                         for n in range(n_agents)]

    r_min, _ = reward_bounds(episodes)
    k = len(episodes)
    states = [VariationalState(p.node_count, len(action_set), n_obs_bins,
                               hyper, pi_seed=p.pi,
                               visited=batch.visited(n, len(action_set)))
              for n, p in enumerate(init_policies)]
    trace = ElboTrace()
    active = [set(range(s.node_count)) for s in states]
    occ_totals = [np.ones(s.node_count) for s in states]
    prev_elbo = None
    converged = False
    estimates = [point_estimate(s) for s in states]
    rw = reweighted(batch, estimates, r_min, hyper.gamma)
    for _ in range(max_iters):
        norm = check_normalization(rw, k)
        if abs(norm - 1.0) > 1e-9:
            raise FloatingPointError("path-weight normalization drifted: %r" % norm)
        trace.norm.append(norm)
        occ_totals = [_update_agent(states[n], estimates[n], batch, n,
                                    rw, hyper)
                      for n in range(n_agents)]
        for st in states:
            st.assert_positive()
        estimates = [point_estimate(s) for s in states]
        rw = reweighted(batch, estimates, r_min, hyper.gamma)
        cur = elbo(states, rw.value, hyper)
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
        mask = np.zeros(st.node_count)
        for i in active[n]:
            mask[i] = occ_totals[n][i]
        reduced, _ = prune(mean_policy(st, action_set, n_obs_bins), mask,
                           prune_epsilon)
        policies.append(reduced)
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
