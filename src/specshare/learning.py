"""Variational policy search over finite state controllers.

The importance-weighted discounted return of the candidate policy acts as
the likelihood; stick-breaking Beta/Gamma priors over controller rows act
as the prior; coordinate ascent over the factorized posterior maximizes
the evidence lower bound. Node-path posteriors for every episode prefix
come from one forward and one O(T) backward pass over the whole batch; the
backward pass reads the forward pass's scales and step matrices
(`fsc.ForwardPass`) and gathers and recomputes none of them.

One kernel (`_Kernel`) holds every agent's factors for a run, in flat
buffers laid out by `fsc.KernelLayout`, so each step of an iteration runs
once for all agents: the stacked forward pass and sweep over all N K
episode rows, one scatter of the sweep's masses into the factors through
the point estimate's own index maps, one domain check of the parameters,
one digamma call on all of them, the rates b and h, one `exp` for the
point estimates and one pass per term of the bound. Steps that follow
each agent's own nodes go through the layout's padded index maps; a pad
adds exact zeros, so the arithmetic differs from one agent at a time
only in summation order, and the number of numpy calls per iteration
does not depend on the number of agents.

Kernel-live compaction. The stick-breaking prior empties most nodes
within a few iterations, and the kernel shrinks with them: after the
sweep, a node whose share of its agent's occupancy mass is below
`_DROP_SHARE` = 2^-100 leaves the kernel for the rest of the run. The
path weights sum to K, so the occupancy mass is at most K T and every
mass x the node feeds, divided by K, is at most 2^-100 T. Each sum
it enters holds a term many orders larger: delta = 1 + x, phi = theta + x,
sigma = 1 + x, mu = g/h + x and lam = a/b + x. So x is below half an ulp
of the sum: the node's delta, sigma and phi are exactly 1, 1 and theta,
and the lam of its run of dropped neighbours is one value. Its share of
any prefix likelihood is bounded by the same occupancy, so the forward
scales do not move either. From then on `fsc.forward_pass`, the sweep,
the scatter and the point estimate run on the live sub-controllers;
once every agent is at one node, `fsc.forward_pass` and the sweep take
closed forms in place of their steps through time. The omega sticks are
held as entries over the kept columns (`fsc.NodeSlots`): one per live
source and destination slot, where a run of dropped destinations between
live ones is one slot weighted by its length, and one per dropped source,
standing for all its destinations (sigma = 1, lam = a/b); dropped
sources keep their own b and their terms in the bound. `VariationalState`
keeps the full truncation; `learn` writes the kernel back to it at the
end of the run. With every node live the same code is the uncompacted kernel.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import EpisodeBatch
from .distributions import _special_function, check_discount
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, KernelLayout, PointEstimate,
                  forward_pass, init_from_episodes, omega_columns,
                  point_estimate, prune, stack_policies, stick_digammas)
# perfbench/tracing.py patches these names here; log_history_likelihoods is
# not called, and digamma and gammaln skip the domain check, because the
# kernel checks every argument once per iteration
from .fsc import log_history_likelihoods  # noqa: F401
digamma = partial(_special_function, "digamma", check=False)
gammaln = partial(_special_function, "gammaln", check=False)

# A node whose share of its agent's occupancy falls below this leaves the
# kernel for the rest of the run (see the module docstring)
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


class _Kernel:
    """Every agent's factors for a run: what the updates, point estimates
    and bound read, in the flat buffers of `layout` (`fsc.KernelLayout`).

    `x` holds the sticks and phi (`sticks` are its views) and `psi` their
    `fsc.FactorDigammas`; `rates` holds b on the kept columns (`b`, one
    row per node) and h per agent (`h`). Each rate comes with the terms of
    its Gamma factor, which are fixed for a run: the shape (a = c + Z or
    g = e + Z), its digamma and log-gamma, and the prior's c, d or e, f.
    Built from states, every node is live; the states' own parameters are
    written by `store`. Given a batch, the kernel also holds it and
    `scatter`: one more than the entry of `x` that each mass of a sweep
    over it adds to, and 0 for a pad.
    """

    def __init__(self, states, hyper, batch=None):
        for st in states:
            st.assert_positive(("a", "b", "g", "h"))
        self.hyper, self.batch = hyper, batch
        _, n_actions, n_obs, _ = np.shape(states[0].sigma)
        visited = [st.visited for st in states]
        self.columns = omega_columns(
            None if any(v is None for v in visited)
            else np.logical_or.reduce(visited), n_actions, n_obs)
        z = [st.node_count for st in states]
        self.layout = KernelLayout(z, [np.arange(n) for n in z],
                                   self.columns, n_actions, n_obs)
        self._allocate(self.layout.fill(states))
        lay, n_cols = self.layout, self.columns[2].size
        self.b = np.concatenate([np.reshape(st.b, (st.node_count, -1))[
            :, self.columns[0]] for st in states])
        self.rates = np.concatenate([self.b.ravel(), [st.h for st in states]])
        self.b, self.h = (self.rates[:self.b.size].reshape(self.b.shape),
                          self.rates[self.b.size:])
        self.g, self.a = (np.array([float(getattr(st, name)) for st in states])
                          for name in ("g", "a"))

        def per_rate(omega_value, eta_value):  # per node's b, then per h
            return np.concatenate([
                np.repeat(np.broadcast_to(omega_value, lay.n_nodes), n_cols),
                np.broadcast_to(eta_value, len(z))])
        self.shape_q = per_rate(self.a[lay.agent_of_node], self.g)
        self.psi_q = digamma(self.shape_q)
        shape_p = per_rate(hyper.c, hyper.e)
        rate_p = per_rate(hyper.d, hyper.f)
        self.lgamma_q, lgamma_p = np.split(
            gammaln(np.concatenate([self.shape_q, shape_p])), 2)
        self.prior_q = shape_p * np.log(rate_p) - lgamma_p
        self.shape_p1 = shape_p - 1.0
        self.rate_shape = rate_p * self.shape_q
        self.weight_q = np.concatenate([np.tile(self.columns[2], lay.n_nodes),
                                        np.ones(len(z))])
        self.refresh()

    def _allocate(self, x):
        self.x, self.sticks = x, self.layout.split(x)
        lay = self.layout
        self.base = np.concatenate([np.ones(lay.n_sticks), np.full(
            lay.n_nodes * lay.n_actions, self.hyper.theta)])
        if self.batch is not None:
            # the point estimate's maps at every transition (pair masses)
            # and every step (occupancy), shifted by one: a pad adds to 0
            agent = np.arange(lay.n_agents)[:, None, None]
            actions = self.batch.actions
            self.scatter = 1 + np.concatenate((
                lay.omega_map[agent, :, actions[..., :-1],
                              self.batch.obs_bins],
                lay.pi_map[agent, :, actions]), axis=None)

    def relayout(self, live):
        """Hold only the nodes `live` (per agent) from now on; the sticks and
        phi are to be set before the next `refresh`."""
        lay = self.layout
        self.layout = KernelLayout(lay.node_counts, live, self.columns,
                                   lay.n_actions, lay.n_obs)
        self._allocate(np.empty(self.layout.size))

    def refresh(self):
        """Check the sticks and phi once, then take their digammas."""
        params = self.x[:self.layout.n_params]
        if not (params.min() > 0.0 and params.max() < math.inf):
            _assert_positive(self.sticks, ("delta", "mu", "phi", "sigma",
                                           "lam"))
        self.psi = stick_digammas(self.x, self.layout, digamma)

    def store(self, states):
        """Write the kernel to the states: a dropped destination takes its
        slot's entry, a dropped source node its one entry and every column
        its kept column's."""
        lay, v, expand = self.layout, self.sticks, self.columns[1]
        for n, st in enumerate(states):
            nodes = slice(lay.offsets[n], lay.offsets[n + 1])
            st.delta, st.mu, st.phi = (x[nodes].copy()
                                       for x in (v.delta, v.mu, v.phi))
            st.h = float(self.h[n])
            entry = lay.entries(n)
            shape = np.shape(st.sigma)
            st.sigma, st.lam = (
                x[entry][..., expand].transpose(0, 2, 1).reshape(shape)
                for x in (v.sigma, v.lam))
            st.b = self.b[nodes][:, expand].reshape(np.shape(st.b))


# value: the empirical value the weights divide by; nu: the (K, t) posterior
# path weights; fwd: the target's stacked `fsc.ForwardPass`
ReweightedRewards = namedtuple("ReweightedRewards", "value nu fwd")


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
    occ, pair = _sweep(forward_pass(policy, action_idx[:t + 1], obs_bins[:t]),
                       np.eye(1, t + 1, t))  # nu: all weight on t
    return occ[0, 0], pair[0, 0, 1:]


def _log_prefix(batch, policies):
    """Cumulative log joint likelihood per (episode, t) of the batch,
    summed over agents, and the stacked `fsc.ForwardPass` it comes from,
    one pass over every agent's episodes; the scales' log is taken once."""
    fwd = forward_pass(stack_policies(policies), batch.actions, batch.obs_bins)
    return np.cumsum(np.log(fwd.scale), axis=2).sum(axis=0), fwd


def _return_terms(batch, target, behavior, r_min, gamma):
    """The empirical value, each (episode, t) return term (importance ratio
    times shifted discounted reward) and the target's stacked forward pass.

    Behaviour policies, when given, run through the same forward call as
    the target, so equal policies cancel exactly; otherwise the per-step
    probabilities stored at collection time are used.
    """
    logp, fwd = _log_prefix(batch, target)
    logb = batch.log_behavior if behavior is None \
        else _log_prefix(batch, behavior)[0]
    t = np.arange(batch.rewards.shape[1])
    # an overflowing ratio makes the value inf or NaN, checked once here
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(logp - logb) * ((gamma ** t) * (batch.rewards - r_min))
        value = float(np.sum(terms)) / batch.size
    if not math.isfinite(value):
        raise FloatingPointError("empirical value is not finite: %r" % value)
    return value, terms, fwd


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
    ones. `estimates` are per-agent point estimates or controllers, or one
    stacked estimate (`fsc.stack_policies`)."""
    value, terms, fwd = _return_terms(batch, estimates, None, r_min, gamma)
    if not value > 0.0:
        raise FloatingPointError("empirical value is not positive: %r" % value)
    return ReweightedRewards(value=value, nu=terms / value, fwd=fwd)


def _sweep(fwd, nu):
    """nu-weighted posterior node statistics over a block of equal-length
    episodes, stacked over agents, read backward from their forward pass.

    `fwd` is the `fsc.ForwardPass` of (N, K, t1) episodes and `nu` (K, t1)
    their path weights, the same for every agent. Returns (occ, pair):
    occ[n, k, tau, i] sums the singleton marginals of z_tau over every
    prefix endpoint t >= tau, each weighted by nu[k, t]; pair[n, k, tau]
    (tau >= 1) likewise sums the weighted pairwise marginals coupling
    z_{tau-1} and z_tau. All endpoints share one reward-to-go recursion
    (Toussaint & Storkey 2006): G_tau = nu_tau + M_tau G_{tau+1} /
    c_{tau+1}, over the forward pass's step matrices M_tau and its scales
    c_{tau+1} = sum(ahat_tau M_tau), neither gathered nor computed again
    here; occ_tau = ahat_tau G_tau and pair_{tau+1}[i, j] = ahat_tau[i]
    M_tau[i, j] G_{tau+1}[j] / c_{tau+1}. With one node ahat is all ones
    and M_tau = c_{tau+1}, so G is the reverse cumulative sum of nu, the
    same for every agent, occ = G and pair_{tau+1} = G_{tau+1}; the
    recursion's M (G / c) differs from these by about an ulp. A non-finite
    G raises FloatingPointError.
    """
    ahat, scale, m = fwd.alpha_hat, fwd.scale[..., 1:], fwd.steps
    n, k, t1, z = ahat.shape
    if z == 1:
        to_go = nu[:, ::-1].cumsum(axis=1)[:, ::-1]
        _check_finite(to_go, "node sweep")
        occ = np.repeat(to_go[None, :, :, None], n, axis=0)
        pair = np.zeros((n, k, t1, 1, 1))
        pair[:, :, 1:, 0, 0] = to_go[:, 1:]
        return occ, pair
    to_go = np.empty((n, k, t1, z))
    to_go[:, :, -1] = nu[:, -1:]
    for tau in range(t1 - 2, -1, -1):
        after = to_go[:, :, tau + 1] / scale[:, :, tau, None]
        to_go[:, :, tau] = nu[:, tau, None] \
            + (m[:, :, tau] @ after[..., None])[..., 0]
    _check_finite(to_go, "node sweep")
    pair = np.zeros((n, k, t1, z, z))
    pair[:, :, 1:] = ahat[:, :, :-1, :, None] * m \
        * (to_go[:, :, 1:] / scale[..., None])[..., None, :]
    return ahat * to_go, pair


def _check_finite(table, name):
    if not np.isfinite(table).all():
        raise FloatingPointError("%s is not finite" % name)


def _update_agent(kernel, rw):
    """One coordinate sweep of every agent's factors, in one pass over the
    kernel (the name is the traced span's).

    `rw` holds the path weights and the stacked forward pass that
    `reweighted` computed at the kernel's stacked point estimate; the
    sweep reads the pass's posteriors, scales and step matrices, so the
    estimate itself is not read again. The sweep's masses go into the
    factors in one scatter (`np.bincount`) through the maps the point
    estimate reads: each pair mass of a transition to its omega entry and
    each occupancy of a step to its phi entry, so every parameter gets its
    terms in episode and step order; the first step's occupancy, summed
    over episodes, goes to the eta sticks through `eta_map`. A node whose
    occupancy share this sweep is below `_DROP_SHARE` leaves the kernel
    before the factors are set; only then is the layout built again, and
    the sweep's output first moved onto the kept lanes.

    Order: action rows, omega sticks (using the previous omega
    concentrations) and eta sticks (using the previous eta concentrations),
    then the rates b and h of both concentrations; their shapes a and g
    keep the values the states were built with. Returns the occupancy mass
    of every node accumulated this sweep, 0.0 at every dropped node.
    """
    lay, hyper, batch = kernel.layout, kernel.hyper, kernel.batch
    occ, pair = _sweep(rw.fwd, rw.nu)
    # delta's mass and each node's occupancy, per agent and lane, summed
    # on the sweep's own lanes: numpy's summation order follows the shape
    first, total = occ[:, :, 0].sum(axis=1), occ.sum(axis=(1, 2))
    drop = (total < _DROP_SHARE * total.sum(axis=1, keepdims=True)) \
        & lay.lane_real
    if drop.any():  # a dropped node never returns
        kept = [np.flatnonzero(~d[:n]) for d, n in zip(drop, lay.n_live)]
        kernel.relayout([nodes[keep] for nodes, keep in zip(lay.live, kept)])
        lay = kernel.layout
        # the sweep's output on the kept lanes; a pad lane reads lane 0
        lane = np.zeros(lay.lane_real.shape, dtype=int)
        lane[lay.lane_real] = np.concatenate(kept)
        first, total = (np.take_along_axis(x, lane, 1) for x in (first, total))
        occ = np.take_along_axis(occ, lane[:, None, None], 3)
        src, dst = lane[:, None, None, :, None], lane[:, None, None, None]
        pair = np.take_along_axis(np.take_along_axis(pair, src, 3), dst, 4)
    # each stick's and phi entry's mass, after bin 0 where the pads add and
    # followed by a 0 that the grid's pads read; then the mass of the
    # heavier sticks of its row: lam and mu add it to the concentration's
    # mean
    f, k, v = lay.n_sticks, batch.size, kernel.sticks
    mass = np.bincount(kernel.scatter, np.concatenate((pair[:, :, 1:], occ),
                                                      axis=None),
                       minlength=f + v.phi.size + 2)
    mass[lay.eta_map + 1] = first
    mass = mass[1:]
    tail = mass[lay.grid][:, ::-1].cumsum(axis=1).ravel()[lay.tail_cell]
    np.add(kernel.base, mass[:-1] / k, out=kernel.x[:f + v.phi.size])
    tail -= mass[:f]
    tail /= k
    np.add((kernel.shape_q / kernel.rates)[lay.rate_of], tail, out=v.second)
    kernel.refresh()
    rest = kernel.psi.log_rest
    np.subtract(hyper.d, np.add.reduceat(
        rest[lay.n_nodes:f].reshape(lay.n_entries, -1), lay.starts),
        out=kernel.b)
    np.subtract(hyper.f, np.add.reduceat(rest[:lay.n_nodes],
                                         lay.offsets[:-1]), out=kernel.h)
    np.maximum(kernel.rates, 1e-6, out=kernel.rates)
    if not (kernel.rates.min() > 0.0 and kernel.rates.max() < math.inf):
        _assert_positive(kernel, ("b", "h"))
    return np.bincount(lay.eta_map.ravel() + 1, total.ravel(),
                       minlength=lay.n_nodes + 1)[1:]


def elbo(states, value, hyper, kernel=None):
    """Evidence lower bound at the current factors and point estimate.

    The node-path factor is constructed so its weighted data expectation
    minus its own entropy collapses to the log of the empirical value;
    every other factor contributes an analytic prior-minus-entropy term,
    each taken in one pass over every agent: the Beta terms of all eta
    and omega sticks, the Gamma terms of all concentrations and the
    Dirichlet terms of all action rows. The omega sticks are the entries
    of the kernel, each weighted by the (column, source, destination)
    triples it stands for. `kernel` is the states' `_Kernel`, built (and
    the states checked) here if absent.
    """
    if kernel is None:
        kernel = _Kernel(states, hyper)
    lay, psi, x = kernel.layout, kernel.psi, kernel.sticks
    lg = lay.split(gammaln(kernel.x))
    log_rate = np.log(kernel.rates)
    e_ln_rate = kernel.psi_q - log_rate
    # Beta sticks: E[ln Beta(u; 1, conc)] - E[ln q(u)], q = Beta(first,
    # second), with the concentration's expected log and mean
    e_ln_u = psi.first - psi.total
    e_ln_1mu = psi.second - psi.total
    prior = e_ln_rate[lay.rate_of] \
        + ((kernel.shape_q / kernel.rates)[lay.rate_of] - 1.0) * e_ln_1mu
    entropy = (lg.total - lg.first - lg.second + (x.first - 1.0) * e_ln_u
               + (x.second - 1.0) * e_ln_1mu)
    total = math.log(value) + float(np.sum((prior - entropy)
                                           * lay.bound_weight))
    # Gamma concentrations: E[ln Gamma(x; c or e, d or f)] - E[ln q(x)],
    # q = Gamma(a or g, b or h)
    prior = kernel.prior_q + kernel.shape_p1 * e_ln_rate \
        - kernel.rate_shape / kernel.rates
    entropy = (kernel.shape_q * log_rate - kernel.lgamma_q
               + (kernel.shape_q - 1.0) * e_ln_rate - kernel.shape_q)
    total += float(np.sum((prior - entropy) * kernel.weight_q))
    # Dirichlet action rows
    n_actions = lay.n_actions
    e_ln_pi = psi.phi - psi.phisum
    prior = (lay.n_nodes * (math.lgamma(n_actions * hyper.theta)
                            - n_actions * math.lgamma(hyper.theta))
             + float(np.sum((hyper.theta - 1.0) * e_ln_pi)))
    entropy = float(np.sum(lg.phisum) - np.sum(lg.phi)
                    + np.sum((x.phi - 1.0) * e_ln_pi))
    return total + prior - entropy


def learn(episodes, hyper, max_iters=200, tol=1e-5, prune_epsilon=1e-3,
          max_nodes=10, action_set=None, n_obs_bins=DEFAULT_OBS_BINS):
    """Coordinate-ascent loop: refresh point estimates, reweight paths,
    update every factor, evaluate the bound; stop when the relative bound
    change drops below tol.

    The limits, then the episodes are checked (ValueError) before any
    work; the episodes are indexed once into an `EpisodeBatch` and are not
    modified. During the run every agent's factors live in one kernel
    (`_Kernel`), and each step of an iteration runs once for all agents;
    the kernel is written back to the returned states at the end.
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
    kernel = _Kernel(states, hyper, batch)
    offsets, node_agent = kernel.layout.offsets, kernel.layout.agent_of_node
    active = np.ones(offsets[-1], dtype=bool)
    prev_elbo, converged = None, False
    estimate = point_estimate(kernel, kernel.psi)
    rw = reweighted(batch, estimate, r_min, hyper.gamma)
    for _ in range(max_iters):
        # the path-weight constraint: weights average to 1 over the batch
        norm = sum(float(s) for s in rw.nu.sum(axis=1)) / k
        if abs(norm - 1.0) > 1e-9:
            raise FloatingPointError("path-weight normalization drifted: %r" % norm)
        trace.norm.append(norm)
        occ_total = _update_agent(kernel, rw)
        estimate = point_estimate(kernel, kernel.psi)
        rw = reweighted(batch, estimate, r_min, hyper.gamma)
        cur = elbo(states, rw.value, hyper, kernel)
        if not math.isfinite(cur):
            raise FloatingPointError("bound is not finite")
        trace.elbo.append(cur)
        trace.value.append(rw.value)
        # pruning never resurrects a node, and leaves each agent one
        totals = np.add.reduceat(occ_total, offsets[:-1])
        live = active & (occ_total >= prune_epsilon * totals[node_agent])
        kept = np.logical_or.reduceat(live, offsets[:-1])
        active = np.where(kept[node_agent], live, active)
        trace.node_counts.append(
            np.add.reduceat(active.astype(int), offsets[:-1]).tolist())
        trace.g.append(kernel.g.tolist())
        trace.h.append(kernel.h.tolist())
        trace.a.append(kernel.a.tolist())
        trace.b_min.append(np.minimum.reduceat(
            kernel.b.min(axis=1), offsets[:-1]).tolist())
        trace.live.append(kernel.layout.n_live.tolist())
        trace.ess.append(float(rw.nu.sum() ** 2 / np.sum(rw.nu ** 2)))
        per_episode = rw.nu.sum(axis=1)
        trace.max_share.append(float(per_episode.max() / per_episode.sum()))
        if prev_elbo is not None and abs((cur - prev_elbo) / prev_elbo) < tol:
            converged = True
            break
        prev_elbo = cur
    kernel.store(states)
    occupancy = np.split(occ_total, offsets[1:-1])
    estimates, policies = [], []
    for n, st in enumerate(states):
        lanes = kernel.layout.n_live[n]
        estimates.append(PointEstimate(
            eta=estimate.eta[n, :lanes], pi=estimate.pi[n, :lanes],
            omega=estimate.omega[n, :lanes, ..., :lanes]))
        mask = np.where(active[offsets[n]:offsets[n + 1]], occupancy[n], 0.0)
        policies.append(prune(mean_policy(st, action_set, n_obs_bins), mask,
                              prune_epsilon)[0])
    return LearnResult(states=states, point_estimates=estimates, trace=trace,
                       policies=policies, occupancy=occupancy,
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
