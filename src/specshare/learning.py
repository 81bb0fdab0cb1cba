"""Variational policy search over finite state controllers.

The importance-weighted discounted return of the candidate policy acts as
the likelihood; stick-breaking Beta/Gamma priors over controller rows act
as the prior; coordinate ascent over the factorized posterior maximizes
the evidence lower bound. Node-path posteriors for every episode prefix
come from one forward and one O(T) backward pass per agent over the
whole batch. Each iteration takes each digamma once (`_Shared`) and checks
each argument once, so the special functions skip the per-call check.

Kernel-live compaction. The stick-breaking prior empties most nodes
within a few iterations, and the kernel shrinks with them: after an
agent's sweep, a node whose share of the agent's occupancy mass is below
`_DROP_SHARE` = 2^-100 leaves that agent's kernel for the rest of the
run. The path weights sum to K, so the occupancy mass is at most K T and
every accumulation x the node feeds, divided by K, is at most 2^-100 T.
Each sum it enters holds a term many orders larger: delta = 1 + x,
phi = theta + x, sigma = 1 + x, mu = g/h + x and lam = a/b + x. So x is
below half an ulp of the sum: the node's delta, sigma and phi are exactly
1, 1 and theta, and the lam of its run of dropped neighbours is one value.
Its share of any prefix likelihood is bounded by the same occupancy, so
the forward scales do not move either. From then on `fsc.forward`, the sweep,
the accumulation and the point estimate run on the live sub-controller;
once it is one node, `fsc.forward` and the sweep take closed forms in place
of their steps through time.
The omega sticks are held as entries over the kept columns
(`fsc.NodeSlots`): one per live source and destination slot, where a run
of dropped destinations between live ones is one slot weighted by its
length, and one per dropped source, standing for all its destinations
(sigma = 1, lam = a/b); dropped sources keep their own b and their terms
in the bound. `VariationalState` keeps the full truncation; `learn`
writes the held sticks and rates b back to it at the end of the run. With
every node live the same code is the uncompacted kernel.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import EpisodeBatch
from .distributions import _special_function, check_discount
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, forward, init_from_episodes,
                  node_slots, omega_columns, omega_entries, point_estimate,
                  prune, stick_digammas)
# perfbench/tracing.py patches these names here; log_history_likelihoods is
# not called, and digamma and gammaln skip the domain check, because
# VariationalState.assert_positive checks every argument once per iteration
from .fsc import log_history_likelihoods  # noqa: F401
digamma = partial(_special_function, "digamma", check=False)
gammaln = partial(_special_function, "gammaln", check=False)

# A node whose share of its agent's occupancy falls below this leaves the
# agent's kernel for the rest of the run (see the module docstring)
_DROP_SHARE = 2.0 ** -100


@dataclass
class Hyperparams:
    c: float = 0.1    # Gamma shape, prior on each omega-row concentration
    d: float = 100.0  # Gamma rate for the same
    e: float = 0.1    # Gamma shape, prior on the eta concentration
    f: float = 100.0  # Gamma rate for the same
    theta: float = 1.0  # symmetric Dirichlet prior on action rows
    gamma: float = 0.9  # discount

    def __post_init__(self):
        if not all(0.0 < v < math.inf
                   for v in (self.c, self.d, self.e, self.f, self.theta)):
            raise ValueError("hyperparameters must be strictly positive "
                             "and finite")
        check_discount(self.gamma)

    @classmethod
    def from_json(cls, data):
        """Hyperparams from a parsed JSON object; ValueError unless it is an
        object of known keys with numbers as values."""
        if not isinstance(data, dict):
            raise ValueError("hyperparameters must be a JSON object")
        for key, value in data.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError("unknown hyperparameter %r" % key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("hyperparameter %r must be a number" % key)
        return cls(**data)


class VariationalState:
    """Per-agent factorized posterior parameters.

    delta, mu: per-node Beta for the eta stick breaks; phi: per-node
    Dirichlet over actions; sigma, lam: per-(node, action, obs, next-node)
    Beta for the omega stick breaks; g, h: Gamma for the eta concentration;
    a, b: Gamma for the per-(node, action, obs) omega concentrations, a
    shared shape a = c + Z, which no update changes, and per-entry rates b.
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
        self.a = hyper.c + z
        self.b = np.full((z, n_actions, n_obs), hyper.d)
        self.visited = visited

    @property
    def node_count(self):
        return self.delta.size

    def assert_positive(self, names=("delta", "mu", "phi", "sigma", "lam",
                                     "a", "b", "g", "h")):
        """FloatingPointError unless every named parameter is positive and
        finite (a NaN fails too)."""
        _assert_positive(self, names)


def _assert_positive(owner, names):
    for name in names:
        value = np.asarray(getattr(owner, name))
        if not (value.min() > 0.0 and value.max() < math.inf):
            raise FloatingPointError("non-positive or non-finite "
                                     "variational parameter %s" % name)


class _Shared:
    """One agent's kernel for a run: what its updates, point estimate and
    bound read. `layout` (`fsc.omega_columns`) and `slots` (`fsc.NodeSlots`,
    the kernel-live nodes) say which omega sticks it holds; `sigma` and
    `lam` are their entries, and `b`, (Z, columns), holds the rates b on
    the kept columns. The a and g terms are fixed for a run as a = c + Z
    and g = e + Z, and `psi` is taken by `refresh` after every update.
    Built from a state, every node is live; the state's own sigma, lam and
    b are written by `store`."""

    def __init__(self, state, hyper):
        state.assert_positive(("a", "b", "g", "h"))
        self.layout = omega_columns(state)
        z = state.node_count
        self.slots = node_slots(np.arange(z), z)
        self.sigma, self.lam = omega_entries(state, self.layout[0])
        self.b = state.b.reshape(z, -1)[:, self.layout[0]]
        self.psi_g, self.psi_a = digamma(state.g), digamma(state.a)
        self.lgamma_g, self.lgamma_a = gammaln(state.g), gammaln(state.a)
        self.lgamma_e, self.lgamma_c = gammaln(hyper.e), gammaln(hyper.c)
        self.refresh(state)

    def refresh(self, state):
        state.assert_positive(("delta", "mu", "phi"))
        _assert_positive(self, ("sigma", "lam"))
        self.psi = stick_digammas(state, self.sigma, self.lam, self.slots,
                                  self.layout[1], digamma)

    def store(self, state):
        """Write the held sticks and rates to the state's full sigma, lam
        and b: a dropped destination takes its slot's entry, a dropped
        source node its one entry and every column its kept column's."""
        live, slot_of, counts, rows, _, starts = self.slots
        n = live.size * counts.size
        entry = np.empty((slot_of.size, slot_of.size), dtype=int)
        entry[live] = starts[:live.size, None] + slot_of
        entry[rows[n:]] = np.arange(n, rows.size)[:, None]
        shape = state.sigma.shape
        state.sigma, state.lam = (
            x[entry][..., self.layout[1]].transpose(0, 2, 1).reshape(shape)
            for x in (self.sigma, self.lam))
        state.b = self.b[:, self.layout[1]].reshape(state.b.shape)


# value: the empirical value the weights divide by; nu: the (K, t) posterior
# path weights; alpha_hat: per agent, the target's (K, t, Z) tables
ReweightedRewards = namedtuple("ReweightedRewards", "value nu alpha_hat")


@dataclass
class ElboTrace:
    """Per iteration, a number or one per agent; in trace.csv's order."""
    elbo: list = field(default_factory=list)
    value: list = field(default_factory=list)
    node_counts: list = field(default_factory=list)  # per agent
    g: list = field(default_factory=list)
    h: list = field(default_factory=list)
    norm: list = field(default_factory=list)    # path-weight normalization
    a: list = field(default_factory=list)       # per-agent common a value
    b_min: list = field(default_factory=list)   # per-agent smallest b
    live: list = field(default_factory=list)    # per-agent kernel-live nodes
    ess: list = field(default_factory=list)     # Kish ESS of the return terms
    max_share: list = field(default_factory=list)  # largest episode share

    @property
    def iterations(self):
        return len(self.elbo)


@dataclass
class LearnResult:
    states: list
    point_estimates: list   # the last, over each agent's kernel-live nodes
    trace: ElboTrace
    policies: list          # pruned posterior-mean controllers
    occupancy: list         # per-agent node occupancy mass at convergence,
                            # 0.0 at each node dropped from the kernel
    converged: bool


def reward_bounds(batch):
    """(min, max) over every global cumulative reward in an `EpisodeBatch`."""
    lo, hi = float(batch.rewards.min()), float(batch.rewards.max())
    if hi <= lo:
        raise ValueError("degenerate reward batch: max equals min")
    return lo, hi


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


def _log_prefix(batch, policies):
    """Cumulative log joint likelihood per (episode, t) of the batch,
    summed over agents, and each agent's scaled forward tables."""
    passes = [forward(pol, batch.actions[n], batch.obs_bins[n])
              for n, pol in enumerate(policies)]
    logp = np.sum([np.cumsum(log_scale, axis=1) for _, log_scale in passes],
                  axis=0)
    return logp, [table for table, _ in passes]


def _return_terms(batch, target, behavior, r_min, gamma):
    """The empirical value, each (episode, t) return term (importance ratio
    times shifted discounted reward) and the target's scaled forward tables
    per agent.

    Behaviour policies, when given, run through the same forward call as
    the target, so equal policies cancel exactly; otherwise the per-step
    probabilities stored at collection time are used.
    """
    logp, alpha_hat = _log_prefix(batch, target)
    logb = batch.log_behavior if behavior is None \
        else _log_prefix(batch, behavior)[0]
    t = np.arange(batch.rewards.shape[1])
    # an overflowing ratio makes the value inf or NaN, checked once here
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(logp - logb) * ((gamma ** t) * (batch.rewards - r_min))
        value = float(np.sum(terms)) / batch.size
    if not math.isfinite(value):
        raise FloatingPointError("empirical value is not finite: %r" % value)
    return value, terms, alpha_hat


def empirical_value(episodes, target, behavior=None, r_min=None, gamma=0.9):
    """Importance-weighted discounted return of the target policy.

    target: per-agent controllers or point estimates. behavior: per-agent
    proper controllers, or None to use the probabilities stored in the
    episodes. r_min defaults to the batch minimum.
    """
    check_discount(gamma)
    batch = EpisodeBatch.for_policies(episodes, target, behavior)
    if r_min is None:
        r_min, _ = reward_bounds(batch)
    return _return_terms(batch, target, behavior, r_min, gamma)[0]


def reweighted(batch, estimates, r_min, gamma):
    """Posterior path weights of an `EpisodeBatch`, one (K, t) block, plus
    the value they normalize by; the behaviour probabilities are the stored
    ones."""
    value, terms, alpha_hat = _return_terms(batch, estimates, None, r_min,
                                            gamma)
    if not value > 0.0:
        raise FloatingPointError("empirical value is not positive: %r" % value)
    return ReweightedRewards(value=value, nu=terms / value,
                             alpha_hat=alpha_hat)


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
    With one node ahat is all ones and M_tau = c_{tau+1}, so G is the
    reverse cumulative sum of nu, occ = G and pair_{tau+1} = G_{tau+1};
    the recursion's M (G / c) differs from these by about an ulp.
    """
    k, t1, z = ahat.shape
    if z == 1:
        to_go = nu[:, ::-1].cumsum(axis=1)[:, ::-1, None]
        pair = np.zeros((k, t1, 1, 1))
        pair[:, 1:, 0] = to_go[:, 1:]
        return to_go, pair
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


def _update_agent(state, estimate, batch, agent, rw, hyper, shared):
    """One coordinate sweep of a single agent's factors.

    `rw` holds the path weights and forward tables that `reweighted`
    computed at `estimate`, a point estimate of the kernel-live nodes.
    `shared` is the agent's `_Shared` kernel, which holds the omega sticks
    and the rates b (`_Shared.store` writes them to the state). A node
    whose occupancy share this sweep is below `_DROP_SHARE` leaves the
    kernel before the factors are set; only then are the accumulations
    re-indexed.

    Order: action rows, then omega sticks (using the previous omega
    concentrations), then eta sticks (using the previous eta
    concentration), then the rates b and h of both concentrations; their
    shapes a and g keep the values the state was built with. Returns the
    per-node occupancy mass accumulated this sweep, 0.0 at every dropped
    node.
    """
    z = state.node_count
    n_actions, n_obs = state.phi.shape[1], state.sigma.shape[2]
    columns, expand, _ = shared.layout
    n_live = shared.slots.live.size
    k = batch.size
    aidx, obins = batch.actions[agent], batch.obs_bins[agent]
    occ, pair = _sweep_agent(estimate, aidx, obins, rw.nu,
                             rw.alpha_hat[agent])
    delta_acc = occ[:, 0].sum(axis=0)
    occ_acc = occ.sum(axis=(0, 1))
    phi_acc = np.zeros((n_actions, n_live))
    sigma_acc = np.zeros((columns.size, n_live, n_live))
    np.add.at(phi_acc, aidx, occ)
    np.add.at(sigma_acc, expand[aidx[:, :-1] * n_obs + obins], pair[:, 1:])
    keep = ~(occ_acc < _DROP_SHARE * occ_acc.sum())
    if not keep.all():  # a dropped node never returns
        shared.slots = node_slots(shared.slots.live[keep], z)
        occ_acc, delta_acc = occ_acc[keep], delta_acc[keep]
        phi_acc, sigma_acc = phi_acc[:, keep], sigma_acc[:, keep][:, :, keep]
    live, slot_of, counts, rows, weights, starts = shared.slots
    occ_total, delta_full = np.zeros(z), np.zeros(z)
    occ_total[live], delta_full[live] = occ_acc, delta_acc
    phi_full = np.zeros((z, n_actions))
    phi_full[live] = phi_acc.T
    state.phi = hyper.theta + phi_full / k
    # omega sticks: lam adds the mass of heavier-indexed destination slots
    n = live.size * counts.size
    mass, tail = np.zeros((2, rows.size, columns.size))
    live_mass = mass[:n].reshape(live.size, counts.size, -1)
    live_mass[:, slot_of[live]] = sigma_acc.transpose(1, 2, 0)
    tail[:n] = (live_mass[:, ::-1].cumsum(axis=1)[:, ::-1]
                - live_mass).reshape(n, -1)
    b = shared.b
    shared.sigma = 1.0 + mass / k
    shared.lam = (state.a / b)[rows] + tail / k
    tail_delta = delta_full[::-1].cumsum()[::-1] - delta_full
    state.delta = 1.0 + delta_full / k
    state.mu = state.g / state.h + tail_delta / k
    shared.refresh(state)
    _, psi_mu, psi_delta_mu = shared.psi.eta
    _, psi_lam, psi_sigma_lam = shared.psi.omega
    b[rows[starts]] = np.maximum(hyper.d - np.add.reduceat(
        (psi_lam - psi_sigma_lam) * weights[:, None], starts), 1e-6)
    _assert_positive(shared, ("b",))
    state.h = max(hyper.f - float(np.sum(psi_mu - psi_delta_mu)), 1e-6)
    state.assert_positive(("h",))
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
    The omega terms are evaluated on the stick entries of each agent's
    kernel, each weighted by the (column, source, destination) triples it
    stands for. `shared` holds each state's `_Shared`, built (and the state
    checked) here if absent.
    """
    if shared is None:
        shared = [_Shared(st, hyper) for st in states]
    total = math.log(value)
    for st, sh in zip(states, shared):
        total += _beta_term(st.delta, st.mu, sh.psi.eta,
                            sh.psi_g - math.log(st.h), st.g / st.h)
        total += _gamma_term(hyper.e, hyper.f, st.g, st.h, sh.psi_g,
                             sh.lgamma_e, sh.lgamma_g)
        counts, b = sh.layout[2], sh.b
        rows, weights = sh.slots.rows, sh.slots.weights
        e_ln_alpha = sh.psi_a - np.log(b)
        total += _beta_term(sh.sigma, sh.lam, sh.psi.omega, e_ln_alpha[rows],
                            (st.a / b)[rows], weights[:, None] * counts)
        total += _gamma_term(hyper.c, hyper.d, st.a, b, sh.psi_a,
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

    The limits, then the episodes are checked (ValueError) before any
    work; the episodes are indexed once into an `EpisodeBatch` and are not
    modified. During the run each agent's omega sticks and rates b live in
    its kernel (`_Shared`); they are written back to the returned states at
    the end.
    """
    if not (max_iters >= 1 and max_nodes >= 1 and 0.0 < prune_epsilon < 1.0
            and 0.0 <= tol < math.inf):
        raise ValueError("need max_iters >= 1, max_nodes >= 1, 0 < "
                         "prune_epsilon < 1 and a finite tol >= 0")
    batch = EpisodeBatch(episodes, None if action_set is None
                         else tuple(action_set), n_obs_bins)
    action_set = batch.action_sets[0]
    n_agents, n_actions, k = len(batch.actions), len(action_set), batch.size
    r_min, _ = reward_bounds(batch)
    states = []
    for n in range(n_agents):
        pi_seed = init_from_episodes(batch.actions[n], batch.obs_bins[n],
                                     n_actions, max_nodes)
        states.append(VariationalState(
            len(pi_seed), n_actions, n_obs_bins, hyper, pi_seed=pi_seed,
            visited=batch.visited(n, n_actions)))
    trace = ElboTrace()
    active = [set(range(s.node_count)) for s in states]
    occ_totals = [np.ones(s.node_count) for s in states]
    prev_elbo, converged = None, False
    shared = [_Shared(s, hyper) for s in states]
    estimates = [point_estimate(s, sh.psi) for s, sh in zip(states, shared)]
    rw = reweighted(batch, estimates, r_min, hyper.gamma)
    for _ in range(max_iters):
        # the path-weight constraint: weights average to 1 over the batch
        norm = sum(float(s) for s in rw.nu.sum(axis=1)) / k
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
        trace.a.append([float(s.a) for s in states])
        trace.b_min.append([float(sh.b.min()) for sh in shared])
        trace.live.append([sh.slots.live.size for sh in shared])
        trace.ess.append(float(rw.nu.sum() ** 2 / np.sum(rw.nu ** 2)))
        per_episode = rw.nu.sum(axis=1)
        trace.max_share.append(float(per_episode.max() / per_episode.sum()))
        if prev_elbo is not None and abs((cur - prev_elbo) / prev_elbo) < tol:
            converged = True
            break
        prev_elbo = cur
    policies = []
    for n, st in enumerate(states):
        shared[n].store(st)
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
