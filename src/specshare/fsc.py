"""Finite-state-controller policies: stochastic execution, history
likelihoods, episode-based initialization, exp-digamma point estimates,
and node pruning.

A controller is the tuple (Z, eta, omega, pi): eta is the initial node
distribution, pi maps each node to an action distribution, and omega maps
(node, action, observation-bin) to a distribution over successor nodes.
Observations are integer microsecond waits quantized into logarithmic bins
so the observation alphabet stays finite.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .distributions import digamma, validate_simplex, validate_simplex_rows

DEFAULT_OBS_BINS = 24


def observation_bin(obs_us, n_bins=DEFAULT_OBS_BINS):
    """Quantize a positive integer microsecond wait to a log2 bin index."""
    obs_us = int(obs_us)
    if obs_us < 1:
        raise ValueError("observation must be a positive duration")
    return min(obs_us.bit_length() - 1, n_bins - 1)


@dataclass
class FscPolicy:
    """A proper (row-stochastic) finite state controller."""
    eta: np.ndarray            # (Z,)
    pi: np.ndarray             # (Z, A)
    omega: np.ndarray          # (Z, A, O, Z)
    action_set: tuple
    n_obs_bins: int = DEFAULT_OBS_BINS

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        self.action_set = tuple(self.action_set)
        z, a, o = self.eta.size, len(self.action_set), self.n_obs_bins
        if self.pi.shape != (z, a) or self.omega.shape != (z, a, o, z):
            raise ValueError("inconsistent controller shapes")
        validate_simplex(self.eta)
        validate_simplex_rows(self.pi)
        validate_simplex_rows(self.omega)

    @property
    def node_count(self):
        return self.eta.size

    def action_index(self, action):
        return self.action_set.index(action)

    def to_json(self):
        omega = {"%d/%d/%d" % (i, self.action_set[a], o):
                 self.omega[i, a, o].tolist()
                 for i, a, o in np.ndindex(self.omega.shape[:3])}
        return {
            "node_count": self.node_count,
            "eta": self.eta.tolist(),
            "pi": self.pi.tolist(),
            "omega": omega,
            "action_set": list(self.action_set),
            "n_obs_bins": self.n_obs_bins,
        }

    @classmethod
    def from_json(cls, data):
        action_set = tuple(data["action_set"])
        z, o = int(data["node_count"]), int(data["n_obs_bins"])
        omega = np.zeros((z, len(action_set), o, z))
        for key, row in data["omega"].items():
            i, a, oi = (int(p) for p in key.split("/"))
            omega[i, action_set.index(a), oi] = row
        return cls(eta=np.array(data["eta"]), pi=np.array(data["pi"]),
                   omega=omega, action_set=action_set, n_obs_bins=o)


@dataclass
class PointEstimate:
    """Unnormalized exp-digamma policy parameters.

    Rows are sub-probabilities (entries in (0, 1], sums <= 1). They are
    used as-is in downstream likelihoods; the reweighting normalizer
    absorbs the deficit.
    """
    eta: np.ndarray
    pi: np.ndarray
    omega: np.ndarray

    @property
    def node_count(self):
        return self.eta.size


def initial_node(policy, rng):
    """Sample the starting node from eta."""
    return int(rng.choice(policy.eta.size, p=policy.eta))


def select_action(policy, node, rng):
    """Sample an action (contention-window value) from the node's pi row."""
    if not 0 <= node < policy.node_count:
        raise ValueError("node index out of range")
    idx = int(rng.choice(policy.pi.shape[1], p=policy.pi[node]))
    return policy.action_set[idx]


def transition_node(policy, node, action, obs_us, rng):
    """Sample the successor node given the taken action and raw observation."""
    if not 0 <= node < policy.node_count:
        raise ValueError("node index out of range")
    ai = policy.action_index(action)
    oi = observation_bin(obs_us, policy.n_obs_bins)
    return int(rng.choice(policy.node_count, p=policy.omega[node, ai, oi]))


def forward(policy, action_idx, obs_bins):
    """Scaled forward recursion over controller nodes, batched over episodes.

    `action_idx` are action indices, shape (K, t+1), and `obs_bins` are
    observation-bin indices, shape (K, t): one row per episode, all of
    the same length. Returns (alpha_hat, log_scale), shapes (K, t+1, Z)
    and (K, t+1): alpha_hat[k, tau] is episode k's node posterior given
    its history up to tau, and log_scale[k, tau] is the log of the factor
    it was divided by, so the cumulative sum of log_scale along tau is the
    log history likelihood of every prefix. Per-step scaling keeps T = 50
    histories from underflowing. 1-D inputs are the K = 1 case and give
    results without the K axis.
    """
    aidx = np.asarray(action_idx, dtype=int)
    obins = np.asarray(obs_bins, dtype=int)
    single = aidx.ndim == 1
    if single:
        aidx, obins = aidx[None], obins[None]
    if obins.shape != (aidx.shape[0], aidx.shape[1] - 1):
        raise ValueError("need exactly one fewer observation than actions")
    k, t1 = aidx.shape
    pi_rows = policy.pi.T[aidx]  # (K, t+1, Z): pi[:, a] at every step
    # (K, t, Z, Z): omega[:, a, o, :] at every transition
    trans = policy.omega.transpose(1, 2, 0, 3)[aidx[:, :-1], obins]
    alpha_hat = np.empty((k, t1, policy.eta.size))
    log_scale = np.empty((k, t1))
    alpha = policy.eta * pi_rows[:, 0]
    for t in range(t1):
        if t:
            alpha = (alpha_hat[:, t - 1, None, :] @ trans[:, t - 1])[:, 0] \
                * pi_rows[:, t]
        total = alpha.sum(axis=1)
        if np.any(total <= 0.0):
            raise ValueError("history has zero likelihood under the policy")
        log_scale[:, t] = np.log(total)
        alpha_hat[:, t] = alpha / total[:, None]
    if single:
        return alpha_hat[0], log_scale[0]
    return alpha_hat, log_scale


def history_likelihood(policy, action_idx, obs_bins):
    """p(a_{0:t} | o_{1:t}) under a controller or point estimate.

    For sub-probability point estimates the result is a non-negative
    weight rather than a probability.
    """
    _, log_scale = forward(policy, action_idx, obs_bins)
    return math.exp(float(np.sum(log_scale)))


def log_history_likelihoods(policy, action_idx, obs_bins):
    """Cumulative log p(a_{0:t} | o_{1:t}) for every prefix t, as an array
    of length len(action_idx)."""
    return np.cumsum(forward(policy, action_idx, obs_bins)[1])


def stick_log_expectations(first, second):
    """Expected log stick weights from Beta(first, second) break factors.

    Index i < last combines E[ln u_i] with the accumulated E[ln(1-u_m)]
    for m < i; the last index uses only the accumulated (1-u) terms. Works
    along the final axis of matching arrays.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    return _stick_logs(digamma(first), digamma(second),
                       digamma(first + second))


def _stick_logs(psi_first, psi_second, psi_sum):
    """`stick_log_expectations` from digamma of first, second and sum."""
    e_ln_u = psi_first - psi_sum
    e_ln_1mu = psi_second - psi_sum
    prefix = np.zeros_like(e_ln_1mu)
    prefix[..., 1:] = np.cumsum(e_ln_1mu[..., :-1], axis=-1)
    logp = prefix + e_ln_u
    logp[..., -1] = prefix[..., -1]
    return logp


def omega_columns(state):
    """The (action, obs-bin) columns of omega's stick arrays that can differ.

    `state.visited`, an (A, O) boolean array when present, marks the pairs
    at which some episode takes a transition; without it every pair counts
    as visited. The learner's updates keep the parameters of all other
    columns identical to one another, so one of them stands for the rest.
    Returns (columns, expand, counts): the flat a * O + o index of each kept
    column (the stand-in last), the kept column that every flat column
    takes its values from, and how many flat columns each kept one covers.
    """
    _, n_actions, n_obs, _ = np.shape(state.sigma)
    visited = getattr(state, "visited", None)
    if visited is None:
        flat = np.ones(n_actions * n_obs, dtype=bool)
    else:
        flat = np.asarray(visited, dtype=bool).reshape(n_actions * n_obs)
    columns = np.flatnonzero(flat)
    expand = np.empty(flat.size, dtype=int)
    expand[columns] = np.arange(columns.size)
    rest = np.flatnonzero(~flat)
    if rest.size:
        expand[rest] = columns.size
        columns = np.append(columns, rest[0])
    return columns, expand, np.bincount(expand)


# digamma of (delta, mu, delta + mu), of (sigma, lam, sigma + lam) on the
# kept columns and of (phi, phi's row sums), and omega_columns' expand
FactorDigammas = namedtuple("FactorDigammas", "eta omega pi expand")


def factor_digammas(state, layout=None, digamma_fn=None):
    """`FactorDigammas` of `state`; `layout` is `omega_columns(state)` and
    `digamma_fn` the digamma to call, both computed or checked if absent."""
    psi = digamma_fn or digamma
    columns, expand, _ = layout or omega_columns(state)
    z, _, _, z_next = np.shape(state.sigma)
    sigma = np.reshape(state.sigma, (z, -1, z_next))[:, columns]
    lam = np.reshape(state.lam, (z, -1, z_next))[:, columns]
    delta, mu, phi = (np.asarray(v, dtype=float)
                      for v in (state.delta, state.mu, state.phi))
    return FactorDigammas((psi(delta), psi(mu), psi(delta + mu)),
                          (psi(sigma), psi(lam), psi(sigma + lam)),
                          (psi(phi), psi(phi.sum(axis=1, keepdims=True))),
                          expand)


def point_estimate(state, psi=None):
    """Exp-digamma point estimate of the policy from variational params.

    `state` carries delta, mu (per-node stick Betas for eta), sigma, lam
    (per-(i,a,o,j) stick Betas for omega) and phi (per-node Dirichlets for
    pi), and optionally `visited` (see `omega_columns`). `psi` is the
    state's `FactorDigammas`, computed here when not given. Entries are exp
    of expected log-probabilities, hence sub-probabilities; no
    renormalization is applied.
    """
    psi = psi or factor_digammas(state)
    eta = np.exp(_stick_logs(*psi.eta))
    pi = np.exp(psi.pi[0] - psi.pi[1])
    omega = np.exp(_stick_logs(*psi.omega))[:, psi.expand]
    return PointEstimate(eta=eta, pi=pi,
                         omega=omega.reshape(np.shape(state.sigma)))


def prune(policy, occupancy, mass_epsilon=1e-3):
    """Drop nodes whose share of total occupancy mass is below epsilon.

    Returns (reduced policy, kept node indices). Rows are renormalized
    over the surviving nodes; at least one node always survives.
    """
    if not 0.0 < mass_epsilon < 1.0:
        raise ValueError("mass_epsilon must be in (0, 1)")
    occupancy = np.asarray(occupancy, dtype=float)
    if occupancy.size != policy.node_count:
        raise ValueError("occupancy vector must have one entry per node")
    total = occupancy.sum()
    if total <= 0.0:
        kept = [int(np.argmax(policy.eta))]
    else:
        kept = [i for i in range(occupancy.size)
                if occupancy[i] >= mass_epsilon * total]
        if not kept:
            kept = [int(np.argmax(occupancy))]

    def renormalized(rows):  # uniform where a row has no mass left
        sums = rows.sum(axis=-1, keepdims=True)
        return np.where(sums > 0.0, rows / np.where(sums > 0.0, sums, 1.0),
                        1.0 / len(kept))
    reduced = FscPolicy(eta=renormalized(policy.eta[kept]),
                        pi=policy.pi[kept],
                        omega=renormalized(policy.omega[kept][..., kept]),
                        action_set=policy.action_set,
                        n_obs_bins=policy.n_obs_bins)
    return reduced, kept


def _normalize_rows(counts):
    return counts / counts.sum(axis=-1, keepdims=True)


def init_from_episodes(episodes, agent, action_set, n_obs_bins=DEFAULT_OBS_BINS,
                       max_nodes=10, merge_tol=0.1):
    """Build a starting controller for one agent from collected episodes.

    Grows a prefix tree over (action, observation-bin) histories, merges
    tree nodes whose empirical next-action distributions are within
    `merge_tol` in L1, caps the node count at `max_nodes` by folding the
    smallest clusters into their nearest neighbor, and smooths all rows
    with add-one pseudo-counts.
    """
    if not episodes:
        raise ValueError("need at least one episode")
    action_set = tuple(action_set)
    n_actions = len(action_set)
    act_counts = {}   # history tuple -> action count vector
    edges = []        # (history, action idx, obs bin, child history)
    for ep in episodes:
        track = ep.agents[agent]
        hist = ()
        for action, ob in zip(track.actions, track.obs_bin, strict=True):
            ai = action_set.index(action)
            act_counts.setdefault(hist, np.zeros(n_actions))[ai] += 1.0
            child = hist + ((ai, ob),)
            edges.append((hist, ai, ob, child))
            hist = child
        act_counts.setdefault(hist, np.zeros(n_actions))

    # greedy clustering of tree nodes by next-action distribution
    order = sorted((h for h, c in act_counts.items() if c.sum() > 0),
                   key=lambda h: (-act_counts[h].sum(), h))
    clusters = []  # [aggregate count vector, member set]
    for h in order:
        dist_h = act_counts[h] / act_counts[h].sum()
        best, best_d = None, merge_tol
        for ci, (agg, _) in enumerate(clusters):
            d = float(np.abs(dist_h - agg / agg.sum()).sum())
            if d < best_d:
                best, best_d = ci, d
        if best is None:
            clusters.append([act_counts[h].copy(), {h}])
        else:
            clusters[best][0] += act_counts[h]
            clusters[best][1].add(h)
    while len(clusters) > max_nodes:
        smallest = min(range(len(clusters)), key=lambda i: clusters[i][0].sum())
        src = clusters.pop(smallest)
        p_src = src[0] / src[0].sum()
        near = min(range(len(clusters)),
                   key=lambda i: float(np.abs(
                       p_src - clusters[i][0] / clusters[i][0].sum()).sum()))
        clusters[near][0] += src[0]
        clusters[near][1] |= src[1]
    clusters.sort(key=lambda c: -c[0].sum())

    z = len(clusters)
    # leaves with no recorded action join the top cluster
    assign = {h: 0 for h in act_counts}
    assign.update({h: ci for ci, (_, members) in enumerate(clusters)
                   for h in members})

    pi_counts = 1.0 + np.array([agg for agg, _ in clusters])
    omega_counts = np.ones((z, n_actions, n_obs_bins, z))
    for h, ai, ob, child in edges:
        omega_counts[assign[h], ai, ob, assign[child]] += 1.0
    eta_counts = np.ones(z)
    eta_counts[assign[()]] += float(len(episodes))

    return FscPolicy(eta=_normalize_rows(eta_counts),
                     pi=_normalize_rows(pi_counts),
                     omega=_normalize_rows(omega_counts),
                     action_set=action_set, n_obs_bins=n_obs_bins)


def save_policies(policies, path):
    with open(path, "w") as fh:
        json.dump({"schema": "specshare-policies-v1",
                   "policies": [p.to_json() for p in policies]}, fh)


def load_policies(path):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != "specshare-policies-v1":
        raise ValueError("unrecognized policy file schema")
    return [FscPolicy.from_json(p) for p in data["policies"]]
