"""Variational policy search over finite state controllers.

The importance-weighted discounted return of the candidate policy acts as
the likelihood; stick-breaking Beta/Gamma priors over controller rows act
as the prior; coordinate ascent over the factorized posterior maximizes
the evidence lower bound. Node-path posteriors are computed per episode
prefix with scaled forward-backward sweeps.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .distributions import digamma
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, forward, init_from_episodes,
                  log_history_likelihoods, point_estimate, prune)


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
    """

    def __init__(self, node_count, n_actions, n_obs, hyper, pi_seed=None):
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
    alpha_hat: list      # per (k, agent): scaled forward table of the target


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
    aidx, obins = action_idx[:t + 1], obs_bins[:t]
    alpha_hat, _ = forward(policy, aidx, obins)
    nu = np.zeros(t + 1)
    nu[t] = 1.0
    occ, pair = _sweep_agent(policy, aidx, obins, nu, alpha_hat)
    return occ, pair[1:]


def _action_indices(track, policy):
    aset = getattr(policy, "action_set", None)
    if aset is not None:
        return [aset.index(a) for a in track.actions]
    if hasattr(track, "action_idx"):
        return track.action_idx
    raise ValueError("point-estimate targets need pre-indexed actions")


def _behavior_log_prefix(episodes, policies=None):
    """Per (k, t) cumulative log joint behavior likelihood.

    With policies given, evaluates them by the forward recursion (the same
    code path as the candidate policy, so equal policies cancel exactly);
    otherwise uses the per-step probabilities stored at collection time.
    """
    out = []
    for ep in episodes:
        if policies is None:
            logs = [np.cumsum(np.log(np.asarray(tr.pi_behavior, dtype=float)))
                    for tr in ep.agents]
        else:
            logs = [log_history_likelihoods(pol, _action_indices(tr, pol),
                                            tr.obs_bin[:-1])
                    for pol, tr in zip(policies, ep.agents)]
        out.append(np.sum(logs, axis=0))
    return out


def _log_weights(episodes, target, behavior, r_min, gamma):
    """Per episode: log importance ratio per t, shifted discounted reward
    per t, and the target's scaled forward table per agent."""
    log_behavior = _behavior_log_prefix(episodes, behavior)
    log_ratio = []
    rewards = []
    alpha_hat = []
    for ep, logb in zip(episodes, log_behavior):
        passes = [forward(pol, _action_indices(tr, pol), tr.obs_bin[:-1])
                  for pol, tr in zip(target, ep.agents)]
        logp = np.sum([np.cumsum(log_scale) for _, log_scale in passes],
                      axis=0)
        t = np.arange(len(ep.rewards))
        r = (gamma ** t) * (np.asarray(ep.rewards, dtype=float) - r_min)
        log_ratio.append(logp - logb)
        rewards.append(r)
        alpha_hat.append([table for table, _ in passes])
    return log_ratio, rewards, alpha_hat


def empirical_value(episodes, target, behavior=None, r_min=None, gamma=0.9):
    """Importance-weighted discounted return of the target policy.

    target: per-agent controllers or point estimates. behavior: per-agent
    proper controllers, or None to use the probabilities stored in the
    episodes. r_min defaults to the batch minimum.
    """
    if r_min is None:
        r_min, _ = reward_bounds(episodes)
    log_w, rew, _ = _log_weights(episodes, target, behavior, r_min, gamma)
    total = sum(float(np.sum(np.exp(lw) * r)) for lw, r in zip(log_w, rew))
    return total / len(episodes)


def reweighted(episodes, estimates, r_min, gamma, behavior=None):
    """Posterior path weights nu[k][t] plus the value they normalize by."""
    log_w, rew, alpha_hat = _log_weights(episodes, estimates, behavior,
                                         r_min, gamma)
    k = len(episodes)
    value = sum(float(np.sum(np.exp(lw) * r)) for lw, r in zip(log_w, rew)) / k
    if not (value > 0.0 and math.isfinite(value)):
        raise FloatingPointError("empirical value is not positive: %r" % value)
    nu = [np.exp(lw) * r / value for lw, r in zip(log_w, rew)]
    r_max = float(max(r for ep in episodes for r in ep.rewards))
    return ReweightedRewards(r_tilde=rew, nu_tilde=nu, r_min=r_min,
                             r_max=r_max, value=value, alpha_hat=alpha_hat)


def _sweep_agent(estimate, aidx, obins, nu, ahat):
    """nu-weighted posterior node statistics for one agent, one episode.

    `ahat` is the episode's scaled forward table from `forward`. Returns
    (occ, pair): occ[tau, i] sums the singleton marginals of z_tau over
    every prefix endpoint t >= tau, each weighted by nu[t]; pair[tau]
    (tau >= 1) likewise sums the weighted pairwise marginals coupling
    z_{tau-1} and z_tau. All prefixes share one backward sweep that
    carries a column per endpoint.
    """
    t1 = len(aidx)
    z = estimate.eta.size
    occ = np.zeros((t1, z))
    pair = np.zeros((t1, z, z))
    bcols = np.ones((z, 1))  # column t: backward message for endpoint t
    occ[t1 - 1] = ahat[t1 - 1] * nu[t1 - 1]
    for tau in range(t1 - 2, -1, -1):
        m = estimate.omega[:, aidx[tau], obins[tau], :] \
            * estimate.pi[:, aidx[tau + 1]][None, :]
        mb = m @ bcols
        z2 = ahat[tau] @ mb
        d = bcols @ (nu[tau + 1:] / z2)
        pair[tau + 1] = ahat[tau][:, None] * m * d[None, :]
        bcols = np.hstack([np.ones((z, 1)), mb])
        bcols /= bcols.max(axis=0, keepdims=True)
        znorm = ahat[tau] @ bcols
        occ[tau] = ahat[tau] * (bcols @ (nu[tau:] / znorm))
    return occ, pair


def _update_agent(state, estimate, episodes, agent, rw, hyper):
    """One coordinate sweep of a single agent's factors.

    `rw` holds the path weights and forward tables that `reweighted`
    computed at `estimate`.

    Order: action rows, then omega sticks (using the previous omega
    concentrations), then eta sticks (using the previous eta
    concentration), then both concentrations. Returns the per-node
    occupancy mass accumulated this sweep.
    """
    z = state.node_count
    n_actions, n_obs = state.phi.shape[1], state.sigma.shape[2]
    k = len(episodes)
    delta_acc = np.zeros(z)
    phi_acc = np.zeros((z, n_actions))
    sigma_acc = np.zeros((z, n_actions, n_obs, z))
    occ_total = np.zeros(z)
    for ep, nu_k, tables in zip(episodes, rw.nu_tilde, rw.alpha_hat):
        tr = ep.agents[agent]
        aidx = tr.action_idx
        occ, pair = _sweep_agent(estimate, aidx, tr.obs_bin[:-1], nu_k,
                                 tables[agent])
        delta_acc += occ[0]
        occ_total += occ.sum(axis=0)
        for tau, a in enumerate(aidx):
            phi_acc[:, a] += occ[tau]
        for tau in range(1, len(aidx)):
            sigma_acc[:, aidx[tau - 1], tr.obs_bin[tau - 1], :] += pair[tau]
    state.phi = hyper.theta + phi_acc / k
    # omega sticks: lam adds the mass of heavier-indexed destinations
    tail_sigma = np.flip(np.cumsum(np.flip(sigma_acc, axis=-1), axis=-1),
                         axis=-1) - sigma_acc
    state.sigma = 1.0 + sigma_acc / k
    state.lam = (state.a / state.b)[..., None] + tail_sigma / k
    tail_delta = np.flip(np.cumsum(np.flip(delta_acc))) - delta_acc
    state.delta = 1.0 + delta_acc / k
    state.mu = state.g / state.h + tail_delta / k
    state.a = np.full((z, n_actions, n_obs), hyper.c + z)
    state.b = np.maximum(hyper.d - np.sum(digamma(state.lam)
                                          - digamma(state.sigma + state.lam),
                                          axis=-1), 1e-6)
    state.g = hyper.e + z
    state.h = max(hyper.f - float(np.sum(digamma(state.mu)
                                         - digamma(state.delta + state.mu))),
                  1e-6)
    return occ_total


def _beta_term(first, second, e_ln_conc, e_conc):
    """Sum of E[ln Beta(x; 1, conc)] - E[ln q(x)], q(x) = Beta(first, second),
    with the concentration's expected log and mean under its own factor."""
    psi_sum = digamma(first + second)
    e_ln_x = digamma(first) - psi_sum
    e_ln_1mx = digamma(second) - psi_sum
    prior = e_ln_conc + (e_conc - 1.0) * e_ln_1mx
    entropy = (gammaln(first + second) - gammaln(first) - gammaln(second)
               + (first - 1.0) * e_ln_x + (second - 1.0) * e_ln_1mx)
    return float(np.sum(prior - entropy))


def _gamma_term(shape_p, rate_p, shape_q, rate_q):
    """Sum of E[ln Gamma(x; shape_p, rate_p)] - E[ln q(x)]."""
    e_ln = digamma(shape_q) - np.log(rate_q)
    prior = (shape_p * np.log(rate_p) - gammaln(shape_p)
             + (shape_p - 1.0) * e_ln - rate_p * shape_q / rate_q)
    entropy = (shape_q * np.log(rate_q) - gammaln(shape_q)
               + (shape_q - 1.0) * e_ln - shape_q)
    return float(np.sum(prior - entropy))


def elbo(states, value, hyper):
    """Evidence lower bound at the current factors and point estimate.

    The node-path factor is constructed so its weighted data expectation
    minus its own entropy collapses to the log of the empirical value;
    every other factor contributes an analytic prior-minus-entropy term.
    """
    total = math.log(value)
    for st in states:
        e_ln_rho = digamma(st.g) - math.log(st.h)
        total += _beta_term(st.delta, st.mu, e_ln_rho, st.g / st.h)
        total += _gamma_term(hyper.e, hyper.f, st.g, st.h)
        e_ln_alpha = digamma(st.a) - np.log(st.b)
        total += _beta_term(st.sigma, st.lam, e_ln_alpha[..., None],
                            (st.a / st.b)[..., None])
        total += _gamma_term(hyper.c, hyper.d, st.a, st.b)
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
    """
    if not episodes:
        raise ValueError("need at least one episode")
    n_agents = len(episodes[0].agents)
    if action_set is None:
        action_set = tuple(sorted({a for ep in episodes
                                   for tr in ep.agents for a in tr.actions}))
    if init_policies is None:
        init_policies = [init_from_episodes(episodes, n, action_set,
                                            n_obs_bins=n_obs_bins,
                                            max_nodes=max_nodes)
                         for n in range(n_agents)]
    for ep in episodes:
        for tr in ep.agents:
            tr.action_idx = [action_set.index(a) for a in tr.actions]

    r_min, _ = reward_bounds(episodes)
    k = len(episodes)
    states = [VariationalState(p.node_count, len(action_set), n_obs_bins,
                               hyper, pi_seed=p.pi) for p in init_policies]
    trace = ElboTrace()
    active = [set(range(s.node_count)) for s in states]
    occ_totals = [np.ones(s.node_count) for s in states]
    prev_elbo = None
    converged = False
    estimates = [point_estimate(s) for s in states]
    rw = reweighted(episodes, estimates, r_min, hyper.gamma)
    for _ in range(max_iters):
        norm = check_normalization(rw, k)
        if abs(norm - 1.0) > 1e-9:
            raise FloatingPointError("path-weight normalization drifted: %r" % norm)
        trace.norm.append(norm)
        occ_totals = [_update_agent(states[n], estimates[n], episodes, n,
                                    rw, hyper)
                      for n in range(n_agents)]
        for st in states:
            st.assert_positive()
        estimates = [point_estimate(s) for s in states]
        rw = reweighted(episodes, estimates, r_min, hyper.gamma)
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
