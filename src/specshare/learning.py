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
once for all agents, through the layout's padded index maps: a pad adds
exact zeros, so the arithmetic differs from one agent at a time only in
summation order, and the number of numpy calls per iteration does not
depend on the number of agents. Whatever depends only on the layout or
the run (the buffers the steps write into, the index maps, the bound's
weights and constant part, the discounted rewards) is built when the
kernel is and again only when a node leaves it; an iteration fills it.

Kernel-live compaction. The stick-breaking prior empties most nodes
within a few iterations: after the sweep, a node whose share of its
agent's occupancy mass is below `_DROP_SHARE` = 2^-100 leaves the kernel
for the rest of the run. The path weights sum to K, so every mass x the
node feeds, divided by K, is at most 2^-100 T, below half an ulp of each
sum it enters (delta = 1 + x, phi = theta + x, sigma = 1 + x, mu = g/h + x,
lam = a/b + x): its delta, sigma and phi are exactly 1, 1 and theta, the
lam of its run of dropped neighbours is one value, and its share of any
prefix likelihood does not move the forward scales. The kernel then holds
the live nodes' parameters only: their eta sticks, phi and omega sticks to
live destinations (`fsc.KernelLayout`). Every other stick is (1, lam), and
needs no special function: E[ln(1 - u)] = -1 / lam and its Beta terms are
w (1 - m / lam - ln lam) (`_update_agent`, `elbo`). Its lam is the
concentration plus the mass of the live sticks after it in its row, one
value for each run of dropped nodes before a live one, and the
concentration it was set from for the run after the last one and for a
dropped source row, whose rates then follow b <- d + Z b / a. A dropped
node's phi adds nothing to the bound. At one live node per agent the
history likelihoods are sums of the estimate's logs (`_log_factors`),
which cannot underflow, and the update needs no sweep: its masses are the
path weights' reverse cumulative sums. At every layout the masses reach
the factors through the map the one-node log factors are read by.
`VariationalState` keeps the full truncation; the kernel reads it and
`learn` writes it back through one map (`fsc.KernelLayout.stick_at`).
"""

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .batch import EpisodeBatch
from .distributions import _special_function, check_discount, is_number
from .fsc import (DEFAULT_OBS_BINS, FscPolicy, KernelLayout, PointEstimate,
                  agent_index, forward_pass, init_from_episodes,
                  omega_columns, point_estimate, prune, stack_policies,
                  stick_digammas)
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
            if not is_number(value):
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
        self.delta, self.mu = np.ones(z), np.ones(z)
        self.phi = np.full((z, n_actions), hyper.theta)
        if pi_seed is not None:
            self.phi = self.phi + np.asarray(pi_seed, dtype=float)
        self.sigma = np.ones((z, n_actions, n_obs, z))
        self.lam = np.ones((z, n_actions, n_obs, z))
        self.g, self.h, self.a = hyper.e + z, hyper.f, hyper.c + z
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
    """Every agent's factors for a run, in the flat buffers of `layout`
    (`fsc.KernelLayout`), and the workspace that each learn iteration
    fills.

    `x` holds the live sticks and phi (`sticks` are its views); `rates`
    holds h per agent (`h`) and b on the kept columns (`b`, one row per
    node, live rows first, `KernelLayout.row_node`), with shapes g = e + Z
    and a = c + Z fixed for the run (`shape_q`), and mean concentrations
    shape / rate (`rate_conc`; `conc` per stick). Every other stick is (1,
    lam), and `lam` holds its lam: per rate that of its trailing sticks
    (`lam_rate`, the `rate_conc` they were set from; on a dropped source
    row every stick), then per `gapped` stick that of its gap (`lam_gap`,
    conc + the mass of the live sticks from it on).
    Built from states, every node is live; `load` reads and `store` writes
    the states through the layout's map (`stick_at`). Given a batch, the
    kernel holds it and `index`, the entry of `x` each of the update's
    `masses` adds to (a pad's, one past the sticks and phi, is read by
    nothing); at one live node per agent it reshapes to (2, N, K, t+1)
    (`_log_factors`). Rates, `lam` and both concentrations keep their
    buffers' order, so an iteration reaches each block, the dropped rows'
    too, through views.

    `_allocate` builds the workspace whenever the layout changes: `index`,
    `masses` and its (occ, pair) views (`mass_views`); `terms`, the
    digammas of x (`psi`), their log-gammas (`lg`), and the log
    (`log_terms`) and the ratio `numer` / `denom` (`div_terms`) of
    `denom`, the rates and then `lam`: 1 / rate and conc / lam; and
    `coef`, their weights in the bound `bound_const + coef @ terms`
    (`elbo`).
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
        z = np.array([st.node_count for st in states])
        lay = self.layout = KernelLayout(z, [np.arange(n) for n in z],
                                         self.columns, n_actions, n_obs)
        counts = self.columns[2]
        self.g, self.a = (np.array([float(getattr(st, name)) for st in states])
                          for name in ("g", "a"))

        def per_rate(eta_value, omega_value):  # per h, then per node's b
            return np.concatenate([
                np.broadcast_to(eta_value, z.size),
                np.repeat(np.broadcast_to(omega_value, lay.n_nodes),
                          counts.size)])
        shape_q = per_rate(self.g, self.a[lay.agent_of_node])
        psi_q = digamma(shape_q)
        shape_p, rate_p = per_rate(hyper.e, hyper.c), per_rate(hyper.f,
                                                               hyper.d)
        lgamma_q, lgamma_p = np.split(
            gammaln(np.concatenate([shape_q, shape_p])), 2)
        # each rate stands for the flat columns of its kept column, and
        # carries the E[ln rate] terms of its row's sticks per flat column
        weight_q = np.concatenate([np.ones(z.size),
                                   np.tile(counts, lay.n_nodes)])
        weight = weight_q * lay.row_len
        # the run's part of the bound's Gamma terms (`elbo`)
        self.run_const = float(weight_q @ (
            shape_p * np.log(rate_p) - lgamma_p + lgamma_q + shape_q
            + (shape_p - shape_q) * psi_q) + weight @ psi_q)
        # per rate, in `KernelLayout.rate_order`: shape, prior rate and the
        # weights of ln(rate) and 1 / rate
        self.per_rate = np.array([shape_q, rate_p, -weight_q * shape_p
                                  - weight, -weight_q * rate_p * shape_q])
        b = np.concatenate([st.b for st in states]).reshape(lay.n_nodes, -1)
        self._allocate(np.append([st.h for st in states],
                                 b[:, self.columns[0]]))
        self.load(states)

    def _allocate(self, rates):
        """Build the workspace of the current layout around the rates
        `rates`, in its order."""
        lay, hyper = self.layout, self.hyper
        f, n_rates, n_held = lay.n_sticks, lay.n_rates, lay.live_nodes.size
        p, size = n_held * lay.n_actions, lay.size
        n_lam = n_rates + lay.gapped.size
        self.x = np.empty(size)
        self.sticks, self.params = lay.split(self.x), self.x[:lay.n_params]
        self.head = self.x[:f + p]
        self.base = np.concatenate([np.ones(f), np.full(p, hyper.theta)])
        self.shape_q, self.prior, log_coef, inv_coef = \
            self.per_rate[:, lay.rate_order]
        self.denom, self.numer = np.ones((2, n_rates + n_lam))
        self.rates, self.lam = self.denom[:n_rates], self.denom[n_rates:]
        self.rates[:] = rates
        self.h, self.b = self.rates[:lay.n_agents], self.rates[
            lay.n_agents:].reshape(lay.n_nodes, -1)
        self.lam_rate, self.lam_gap = self.lam[:n_rates], self.lam[n_rates:]
        self.rate_conc, self.gap_conc = self.numer[n_rates:2 * n_rates], \
            self.numer[2 * n_rates:]
        self.conc, self.gap_rate = np.empty(f), lay.rate_of[lay.gapped]
        self.gather_conc()
        self.neg_gap = -lay.gap
        self.terms = terms = np.empty(2 * (size + n_rates + n_lam))
        self.psi, self.lg = lay.digammas(terms[:size]), terms[size:2 * size]
        self.log_terms, self.div_terms = terms[2 * size:].reshape(2, -1)
        # a (1, lam) stick's Beta terms are w (1 - ln lam - conc / lam), and
        # only the live action rows have Dirichlet normalizers (phi = theta)
        bw, lam_w = lay.bound_weight, np.concatenate([lay.trail_weight,
                                                      lay.gap_weight])
        self.coef = np.concatenate([
            np.zeros(size), bw, np.ones(p), bw, -bw, -np.ones(n_held),
            log_coef, -lam_w, inv_coef, -lam_w])
        self.psi_coef = lay.split(self.coef[:size])
        theta, n_actions = hyper.theta, lay.n_actions
        self.bound_const = self.run_const + float(lam_w.sum()) \
            + n_held * (math.lgamma(n_actions * theta)
                        - n_actions * math.lgamma(theta))
        if self.batch is not None:
            # the point estimate's maps at every step, laid out as the
            # masses (`_mass_views`): eta at the first step's destination
            # lane 0, omega[a_{t-1}, o_{t-1}] at the later ones, pi[a_t]
            actions, lanes = self.batch.actions, lay.n_lanes
            agent = agent_index(lay.n_agents)
            pair = np.full(actions.shape + (lanes, lanes), -1)
            pair[:, :, 0, :, 0] = lay.eta_map[:, None]
            pair[:, :, 1:] = lay.omega_map[agent, :, actions[..., :-1],
                                           self.batch.obs_bins]
            self.index = np.concatenate(
                (pair, lay.pi_map[agent, :, actions]), axis=None)
            self.index[self.index < 0] = self.head.size  # a bin none reads
            self.masses = np.zeros(self.index.size)
            self.mass_views = _mass_views(self.masses,
                                          actions.shape + (lanes,))
            self.node_bins = lay.lane_node.ravel() + 1

    def gather_conc(self):
        """Set `rate_conc` and `conc` from the rates."""
        np.divide(self.shape_q, self.rates, out=self.rate_conc)
        np.take(self.rate_conc, self.layout.rate_of, out=self.conc)
        if self.gap_rate.size:
            np.take(self.rate_conc, self.gap_rate, out=self.gap_conc)

    def relayout(self, live):
        """Hold only the nodes `live` (per agent) from now on; the sticks,
        phi and `lam_gap` are to be set before the next `refresh`."""
        old = self.layout
        self.layout = KernelLayout(old.node_counts, live, self.columns,
                                   old.n_actions, old.n_obs)
        rates = np.empty(old.n_rates)
        rates[old.rate_order] = self.rates
        self._allocate(rates[self.layout.rate_order])

    def load(self, states):
        """Set the sticks, phi and `lam` from the states, then refresh."""
        self.x[:], self.lam[:] = self.layout.fill(states)
        self.refresh()

    def refresh(self):
        """Check the sticks and phi once, then take their digammas, with
        each gap's E[ln(1 - u)], -gap / lam."""
        params = self.params
        if not (params.min() > 0.0 and params.max() < math.inf):
            _assert_positive(self.sticks, ("delta", "mu", "phi", "sigma",
                                           "lam"))
        if self.lam_gap.size:
            self.psi.log_rest[self.layout.gapped] = self.neg_gap \
                / self.lam_gap
        stick_digammas(self.sticks, self.psi, digamma)

    def store(self, states):
        """Write the kernel to the states through the layout's map: every
        entry of a stick row starts as (1, the row's trailing lam), each
        gap's entries take its lam and the live sticks their parameters; a
        dropped node's phi is theta, and each column takes its kept one's."""
        lay, v, expand = self.layout, self.sticks, self.columns[1]
        shape = (lay.n_actions, lay.n_obs)
        order = np.argsort(lay.row_at)  # the rows in the states' order
        second = np.repeat(self.lam_rate[order], lay.row_len[order])
        second[lay.gap_at] = np.repeat(self.lam_gap, lay.gap)
        first = np.ones(second.size)
        first[lay.stick_at], second[lay.stick_at] = v.first, v.second
        phi = np.full((lay.n_nodes, lay.n_actions), self.hyper.theta)
        phi[lay.live_nodes] = v.phi
        b = self.b[lay.node_row][:, expand].reshape((-1,) + shape)
        agents, nodes = lay.row_at[1:lay.n_agents], lay.offsets[1:-1]
        for st, z, one, two, phi_n, b_n, h in zip(
                states, lay.node_counts, np.split(first, agents),
                np.split(second, agents), np.split(phi, nodes),
                np.split(b, nodes), self.h.tolist()):
            st.delta, st.mu, st.phi = one[:z], two[:z], phi_n
            st.b, st.h = b_n, h
            st.sigma, st.lam = (x[z:].reshape(z, -1, z)[:, expand].reshape(
                (z,) + shape + (z,)) for x in (one, two))


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
    one pass over every agent's episodes; the scales' log is taken once.
    A learner `_Kernel` stands for its point estimate, and at one live node
    per agent gives `_log_factors` and no pass (None)."""
    if isinstance(policies, _Kernel):
        if policies.layout.n_lanes == 1:
            index = policies.index.reshape((2,) + batch.actions.shape)
            return _log_factors(policies.psi.logs, index), None
        policies = point_estimate(policies, policies.psi)
    fwd = forward_pass(stack_policies(policies), batch.actions, batch.obs_bins)
    return np.cumsum(np.log(fwd.scale), axis=2).sum(axis=0), fwd


def _log_factors(logs, index):
    """`_log_prefix` of a stacked one-node estimate from its `logs`: `index`
    (2, N, K, t+1) names each step's log eta (first) or log omega[a_{t-1},
    o_{t-1}], and log pi[a_t]. A sum of logs does not underflow."""
    return logs[index].sum(axis=(0, 1)).cumsum(axis=1)


def discounted_rewards(batch, r_min, gamma):
    """gamma^t (R_t - r_min) per (episode, t) of an `EpisodeBatch`: the
    shifted discounted rewards that the importance ratios weight, fixed for
    a run."""
    t = np.arange(batch.rewards.shape[1])
    return (gamma ** t) * (batch.rewards - r_min)


def _return_terms(batch, target, behavior, rewards):
    """The empirical value, each (episode, t) return term (importance ratio
    times shifted discounted reward, `discounted_rewards`) and the target's
    stacked forward pass. Behaviour policies, when given, run through the
    same forward call as the target, so equal policies cancel exactly;
    otherwise the per-step probabilities stored at collection time are
    used."""
    logp, fwd = _log_prefix(batch, target)
    logb = batch.log_behavior if behavior is None \
        else _log_prefix(batch, behavior)[0]
    # an overflowing ratio makes the value inf or NaN, checked once here
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(logp - logb) * rewards
        value = float(terms.sum()) / batch.size
    if not math.isfinite(value):
        raise FloatingPointError("empirical value is not finite: %r" % value)
    return value, terms, fwd


def empirical_value(episodes, target, behavior=None, r_min=None, gamma=0.9):
    """Importance-weighted discounted return of the target policy.

    target: per-agent controllers, with action sets. behavior: controllers
    with the target's action sets, or None to use the probabilities stored
    in the episodes. r_min defaults to the batch minimum.
    """
    check_discount(gamma)
    sets = [getattr(p, "action_set", None) for p in target]
    if None in sets:
        raise ValueError("target policies need action sets")
    if behavior is not None \
            and [getattr(p, "action_set", None) for p in behavior] != sets:
        raise ValueError("behavior policies must match the target "
                         "policies' agents and action sets")
    batch = EpisodeBatch(episodes, sets, min(
        np.shape(p.omega)[2] for p in list(target) + list(behavior or [])))
    if r_min is None:
        r_min, _ = reward_bounds(batch)
    return _return_terms(batch, target, behavior,
                         discounted_rewards(batch, r_min, gamma))[0]


def reweighted(batch, estimates, rewards):
    """Posterior path weights of an `EpisodeBatch`, one (K, t) block, plus
    the value they normalize by; the behaviour probabilities are the stored
    ones and `rewards` the batch's `discounted_rewards`. `estimates` are
    per-agent point estimates or controllers, one stacked estimate
    (`fsc.stack_policies`) or the learner's `_Kernel` (`_log_prefix`)."""
    value, terms, fwd = _return_terms(batch, estimates, None, rewards)
    if not value > 0.0:
        raise FloatingPointError("empirical value is not positive: %r" % value)
    return ReweightedRewards(value=value, nu=terms / value, fwd=fwd)


def _mass_views(masses, shape):
    """(occ, pair) views of a flat buffer of a sweep's masses over (N, K,
    t1, Z) alpha_hat: pair (N, K, t1, Z, Z) first, then occ (N, K, t1, Z);
    at Z = 1 the buffer is also (2, N, K, t1)."""
    n_pair = math.prod(shape) * shape[-1]
    return (masses[n_pair:].reshape(shape),
            masses[:n_pair].reshape(shape + shape[-1:]))


def _sweep(fwd, nu, out=None):
    """nu-weighted posterior node statistics over a block of equal-length
    episodes, stacked over agents, read backward from their forward pass.

    `fwd` is the `fsc.ForwardPass` of (N, K, t1) episodes and `nu` (K, t1)
    their path weights, the same for every agent. The statistics are
    written into `out`, (occ, pair) views of a flat buffer (`_mass_views`),
    but for the first pair slot, pair[:, :, 0], which keeps its values (the
    learner's eta masses), or into new ones. Returns the views (occ, pair):
    occ[n, k, tau, i] sums the singleton marginals of z_tau over every
    prefix endpoint t >= tau, each weighted by nu[k, t]; pair[n, k, tau]
    (tau >= 1) likewise sums the weighted pairwise marginals coupling
    z_{tau-1} and z_tau. All endpoints share one reward-to-go recursion
    (Toussaint & Storkey 2006): G_tau = nu_tau + M_tau G_{tau+1} /
    c_{tau+1}, over the forward pass's step matrices M_tau and its scales
    c_{tau+1} = sum(ahat_tau M_tau), neither gathered nor computed again
    here; occ_tau = ahat_tau G_tau and pair_{tau+1}[i, j] = ahat_tau[i]
    M_tau[i, j] G_{tau+1}[j] / c_{tau+1}. With one node G is the reverse
    cumulative sum of nu, up to about an ulp, which the learner takes
    directly (`_update_agent`). A non-finite G raises FloatingPointError.
    """
    if out is None:
        shape = fwd.alpha_hat.shape
        out = _mass_views(np.zeros(math.prod(shape) * (shape[-1] + 1)), shape)
    occ, pair = out
    n, k, t1, z = occ.shape
    ahat, scale, m = fwd.alpha_hat, fwd.scale[..., 1:], fwd.steps
    to_go = np.empty((n, k, t1, z))
    to_go[:, :, -1] = nu[:, -1:]
    for tau in range(t1 - 2, -1, -1):
        after = to_go[:, :, tau + 1] / scale[:, :, tau, None]
        to_go[:, :, tau] = nu[:, tau, None] \
            + (m[:, :, tau] @ after[..., None])[..., 0]
    _check_finite(to_go, "node sweep")
    np.multiply(ahat[:, :, :-1, :, None] * m,
                (to_go[:, :, 1:] / scale[..., None])[..., None, :],
                out=pair[:, :, 1:])
    np.multiply(ahat, to_go, out=occ)
    return occ, pair


def _check_finite(table, name):
    if not np.isfinite(table).all():
        raise FloatingPointError("%s is not finite" % name)


def _drop(kernel, drop, occ, pair, total):
    """Take the nodes of the (agent, lane) mask `drop` out of the kernel and
    move the sweep's output (occ, pair) onto the kept lanes of the new
    workspace, a pad lane reading lane 0; returns `total`, per agent and
    lane, on the kept lanes."""
    lay = kernel.layout
    kept = [np.flatnonzero(~d[:n]) for d, n in zip(drop, lay.n_live)]
    kernel.relayout([nodes[keep] for nodes, keep in zip(lay.live, kept)])
    lane = np.zeros(kernel.layout.lane_real.shape, dtype=int)
    lane[kernel.layout.lane_real] = np.concatenate(kept)
    src, dst = lane[:, None, None, :, None], lane[:, None, None, None]
    to_occ, to_pair = kernel.mass_views
    to_occ[...] = np.take_along_axis(occ, lane[:, None, None], 3)
    to_pair[...] = np.take_along_axis(np.take_along_axis(pair, src, 3), dst, 4)
    return np.take_along_axis(total, lane, 1)


def _update_agent(kernel, rw):
    """One coordinate sweep of every agent's factors, in one pass over the
    kernel (the name is the traced span's).

    `rw` holds the path weights and the stacked forward pass that
    `reweighted` computed at the kernel's point estimate (None at one node
    per agent), whose posteriors, scales and step matrices the sweep reads.
    It writes its masses into the kernel's `masses`, and at every layout
    they go into the factors in one scatter (`np.bincount`) through
    `index`, the maps the point estimate reads: each pair mass of a
    transition to its omega entry, each occupancy of a step to its phi
    entry and the first step's occupancy, which the first pair slot holds,
    to its eta stick, so every parameter gets its terms in episode and step
    order. A node whose occupancy share this sweep is below `_DROP_SHARE`
    leaves the kernel before the factors are set; only then is the layout
    built again, and the sweep's output moved onto the kept lanes of the
    new workspace before the first pair slot is written. At one live node
    per agent no sweep runs: the reverse cumulative sums of the path
    weights are every mass, no stick has a heavier live one after it, and
    each node's occupancy is its phi masses' sum.

    Order: action rows, omega sticks (using the previous omega
    concentrations, `conc`) and eta sticks (using the previous eta
    concentrations), then the rates h and b of both concentrations and
    from them `conc`; their shapes g and a keep the values the states were
    built with. A (1, lam) stick takes lam = conc + the mass of the live
    sticks after it in its row, which is 0 for the trailing ones
    (`lam_rate`): a rate's b (or h) is d (or f) minus its row's E[ln(1 -
    u)], the closed forms -1 / lam included, so a dropped source row's b
    is d + Z / lam. Returns the occupancy mass of every node this sweep,
    0.0 at every dropped node.
    """
    lay, k = kernel.layout, kernel.batch.size
    if lay.n_lanes > 1:  # an agent's one lane holds all of its mass
        occ, pair = _sweep(rw.fwd, rw.nu, kernel.mass_views)
        # each node's occupancy, per agent and lane, summed on the sweep's
        # own lanes: numpy's summation order follows the shape
        total = occ.sum(axis=(1, 2))
        drop = (total < _DROP_SHARE * total.sum(axis=1, keepdims=True)) \
            & lay.lane_real
        if drop.any():  # a dropped node never returns
            total = _drop(kernel, drop, occ, pair, total)
            lay = kernel.layout
        occ, pair = kernel.mass_views
        pair[:, :, 0, :, 0] = occ[:, :, 0]  # the first step feeds eta
    else:
        to_go = rw.nu[:, ::-1].cumsum(axis=1)[:, ::-1]
        # nu >= 0, so a row's first sum is finite only if all of it is
        _check_finite(to_go[:, 0], "node sweep")
        kernel.masses.reshape((2,) + kernel.batch.actions.shape)[...] = to_go
    f, v, conc = lay.n_sticks, kernel.sticks, kernel.conc
    # each stick's and phi entry's mass, then the bin the pads add to and
    # a 0 that the grid's pads read
    mass = np.bincount(kernel.index, kernel.masses,
                       minlength=kernel.head.size + 2)
    if lay.n_lanes > 1:
        # the mass of the heavier sticks of its row: lam and mu add it to
        # the concentration's mean
        heavier = mass[lay.grid[:, ::2]][:, ::-1].cumsum(axis=1)[
            :, ::-1].ravel()[lay.prefix_cell // 2]
        tail = heavier - mass[:f]
        tail /= k
        np.add(conc, tail, out=v.second)
        heavier /= k
    else:
        total = mass[f:-2].reshape(-1, lay.n_actions).sum(axis=1)
        heavier = mass[:f]  # divided by K below
        np.copyto(v.second, conc)
    mass /= k
    np.add(kernel.base, mass[:-2], out=kernel.head)
    if lay.gapped.size:
        np.add(conc[lay.gapped], heavier[lay.gapped], out=kernel.lam_gap)
    kernel.refresh()
    rates = kernel.rates
    np.copyto(kernel.lam_rate, kernel.rate_conc)
    np.divide(lay.trail, kernel.lam_rate, out=rates)
    rates += kernel.prior
    rates[:lay.n_rows] -= kernel.psi.row_rest
    np.maximum(rates, 1e-6, out=rates)
    if not rates.max() < math.inf:  # False for a NaN too
        _assert_positive(kernel, ("b", "h"))
    kernel.gather_conc()
    return np.bincount(kernel.node_bins, total.ravel(),
                       minlength=lay.n_nodes + 1)[1:]


def elbo(states, value, hyper, kernel=None):
    """Evidence lower bound at the current factors and point estimate.

    The node-path factor is constructed so its weighted data expectation
    minus its own entropy collapses to the log of the empirical value;
    every other factor contributes an analytic prior-minus-entropy term:
    the Beta terms of all eta and omega sticks (the kernel's entries, each
    weighted by the flat columns it stands for), the Gamma terms of all
    concentrations and the Dirichlet terms of all action rows. `kernel` is
    the states' `_Kernel`, built (and the states checked) here if absent.
    Every term is linear in the digammas and log-gammas of the sticks and
    phi, and in ln(rate) and 1 / rate, with E[ln rate] = digamma(shape) -
    ln(rate) and E[rate'] = shape / rate: the bound is `kernel.coef @
    kernel.terms` plus a constant. A stick (first, second) with weight w
    and concentration mean m weighs digamma(first) by w (1 - first),
    digamma(second) by w (m - second) and digamma(first + second) by minus
    their sum, its log-gammas by w, w and -w; an action row weighs
    digamma(phi) by theta - phi, digamma of its sum by minus their sum,
    and its log-gammas by 1 and -1. A Gamma factor of shape s, prior (s0,
    r0) and weight w, whose rate also carries the sticks' E[ln rate] terms
    of total weight W, weighs ln(rate) by -(w s0 + W) and 1 / rate by -w r0
    s. By psi(x + 1) = psi(x) + 1 / x, a (1, lam) stick has Beta terms w
    (1 - ln lam - m / lam): ln(lam) and m / lam weigh -w. Only the
    digammas' weights of the sticks and phi change within a layout; they
    are set here, the rest come with the kernel's workspace.
    """
    if kernel is None:
        kernel = _Kernel(states, hyper)
    c, x, w = kernel.psi_coef, kernel.sticks, kernel.layout.bound_weight
    np.subtract(1.0, x.first, out=c.first)
    np.multiply(c.first, w, out=c.first)
    np.subtract(kernel.conc, x.second, out=c.second)
    np.multiply(c.second, w, out=c.second)
    np.add(c.first, c.second, out=c.total)
    np.negative(c.total, out=c.total)
    np.subtract(hyper.theta, x.phi, out=c.phi)
    np.subtract(x.phisum, c.phi.shape[1] * hyper.theta, out=c.phisum)
    gammaln(kernel.x, out=kernel.lg)
    np.log(kernel.denom, out=kernel.log_terms)
    np.divide(kernel.numer, kernel.denom, out=kernel.div_terms)
    return math.log(value) + kernel.bound_const \
        + float(kernel.coef @ kernel.terms)


def learn(episodes, hyper, max_iters=200, tol=1e-5, prune_epsilon=1e-3,
          max_nodes=10, n_obs_bins=DEFAULT_OBS_BINS):
    """Coordinate-ascent loop: refresh point estimates, reweight paths,
    update every factor, evaluate the bound; stop when the relative bound
    change drops below tol.

    The limits, then the episodes are checked (ValueError) before any
    work; the episodes are indexed once into an `EpisodeBatch` and are not
    modified. During the run every agent's factors live in one kernel
    (`_Kernel`), and each step of an iteration runs once for all agents;
    the kernel is written back to the returned states at the end. A
    history of zero likelihood under the learner's own point estimate is
    an underflow of the run, and a stop at a bound within its own rounding
    error a loss of precision: FloatingPointError naming the iteration.
    """
    if not (max_iters >= 1 and max_nodes >= 1 and 0.0 < prune_epsilon < 1.0
            and 0.0 <= tol < math.inf):
        raise ValueError("need max_iters >= 1, max_nodes >= 1, 0 < "
                         "prune_epsilon < 1 and a finite tol >= 0")
    batch = EpisodeBatch(episodes, None, n_obs_bins)
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
    rewards = discounted_rewards(batch, r_min, hyper.gamma)
    offsets, node_agent = kernel.layout.offsets, kernel.layout.agent_of_node
    active = np.ones(offsets[-1], dtype=bool)
    node_counts = np.diff(offsets).tolist()
    g, a = kernel.g.tolist(), kernel.a.tolist()
    prev, converged = None, False

    def reweigh(iteration):  # the weights at the kernel's point estimate
        try:
            return reweighted(batch, kernel, rewards)
        except ValueError as exc:  # a likelihood underflowed to 0
            raise FloatingPointError("iteration %d: point estimate underflow: "
                                     "%s" % (iteration, exc)) from None

    rw = reweigh(0)
    # per iteration, for the trace statistics after the loop: the path
    # weights, and the layout with each of its b rows' smallest value
    weights, b_rows = [], []
    for iteration in range(1, max_iters + 1):
        # the path-weight constraint: weights average to 1 over the batch
        norm = sum(rw.nu.sum(axis=1).tolist()) / k
        if abs(norm - 1.0) > 1e-9:
            raise FloatingPointError("path-weight normalization drifted: %r" % norm)
        trace.norm.append(norm)
        occ_total = _update_agent(kernel, rw)
        rw = reweigh(iteration)
        cur = elbo(states, rw.value, hyper, kernel)
        if not math.isfinite(cur):
            raise FloatingPointError("bound is not finite")
        trace.elbo.append(cur)
        trace.value.append(rw.value)
        # pruning never resurrects a node and leaves each agent one, so once
        # every agent is down to one node nothing changes
        if max(node_counts) > 1:
            totals = np.add.reduceat(occ_total, offsets[:-1])
            live = active & (occ_total >= prune_epsilon * totals[node_agent])
            kept = np.logical_or.reduceat(live, offsets[:-1])
            active = np.where(kept[node_agent], live, active)
            node_counts = np.add.reduceat(active.astype(int),
                                          offsets[:-1]).tolist()
        trace.node_counts.append(node_counts[:])
        trace.g.append(g[:])
        trace.h.append(kernel.h.tolist())
        trace.a.append(a[:])
        trace.live.append(kernel.layout.n_live.tolist())
        weights.append(rw.nu)
        b_rows.append((kernel.layout, kernel.b.min(axis=1)))
        if prev is not None and abs(cur - prev) < tol * abs(prev):
            # the bound sums n terms of absolute sum `parts`, so its
            # rounding error may reach n u parts (u = 2^-53; Higham,
            # "Accuracy and Stability of Numerical Algorithms", sec. 3.1);
            # a bound no larger has no significant digit, and the stop rule
            # compared rounding errors
            n = kernel.terms.size + 2
            parts = abs(math.log(rw.value)) + abs(kernel.bound_const) \
                + float(np.abs(kernel.coef) @ np.abs(kernel.terms))
            if not abs(cur) > n * 2.0 ** -53 * parts:
                raise FloatingPointError(
                    "iteration %d: the bound %r has no significant digit: "
                    "its %d terms reach %r" % (iteration, cur, n, parts))
            converged = True
            break
        prev = cur
    _add_statistics(trace, weights, b_rows)
    kernel.store(states)
    estimate = point_estimate(kernel, kernel.psi)
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


def _add_statistics(trace, weights, b_rows):
    """Every iteration's path-weight statistics and smallest b, at once:
    the Kish ESS of its path weights `weights` and its largest episode
    share, and per agent the smallest of its b rows' minima `b_rows`, each
    with the layout whose rows they are."""
    nu = np.array(weights)
    per_episode = nu.sum(axis=2)
    trace.ess = (nu.sum(axis=(1, 2)) ** 2
                 / (nu ** 2).sum(axis=(1, 2))).tolist()
    trace.max_share = (per_episode.max(axis=1)
                       / per_episode.sum(axis=1)).tolist()
    for lay, rows in itertools.groupby(b_rows, key=operator.itemgetter(0)):
        mins = np.array([m for _, m in rows])[:, lay.node_row]
        trace.b_min += np.minimum.reduceat(mins, lay.offsets[:-1],
                                           axis=1).tolist()


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
