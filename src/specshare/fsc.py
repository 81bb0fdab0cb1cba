"""Finite-state-controller policies: stochastic execution, history
likelihoods, episode-based initialization, node pruning and policy files.

A controller is the tuple (Z, eta, omega, pi): eta is the initial node
distribution, pi maps each node to an action distribution, and omega maps
(node, action, observation-bin) to a distribution over successor nodes.
Observations are integer microsecond waits quantized into logarithmic bins
so the observation alphabet stays finite.
"""

import functools
import json
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .distributions import (is_number, is_number_list, validate_simplex,
                            validate_simplex_rows)
# perfbench/tracing.py patches this name here; nothing here calls it
from .distributions import digamma  # noqa: F401

DEFAULT_OBS_BINS = 24
_MERGE_TOL = 0.1  # L1 gap below which `init_from_episodes` merges nodes


def observation_bin(obs_us, n_bins=DEFAULT_OBS_BINS):
    """Quantize a positive integer microsecond wait to a log2 bin index."""
    obs_us = int(obs_us)
    if obs_us < 1:
        raise ValueError("observation must be a positive duration")
    return min(obs_us.bit_length() - 1, n_bins - 1)


def observation_bins(obs_us, n_bins=DEFAULT_OBS_BINS):
    """`observation_bin` of each entry of an integer array of positive
    waits at once; exact while n_bins <= 53, as float64 holds every wait
    below 2**53 and the top bin takes all from 2**52 on."""
    return np.minimum(np.frexp(obs_us)[1] - 1, n_bins - 1)


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
        for name, check in (("eta", validate_simplex),
                            ("pi", validate_simplex_rows),
                            ("omega", validate_simplex_rows)):
            try:
                check(getattr(self, name))
            except ValueError as exc:
                raise ValueError("%s: %s" % (name, exc)) from None

    # the cumulative rows that `draw` samples from, built on first use, so
    # the learner, which never draws, does not hold them
    @functools.cached_property
    def eta_cdf(self):
        return cumulative_rows(self.eta)

    @functools.cached_property
    def pi_cdf(self):
        return cumulative_rows(self.pi)

    @functools.cached_property
    def omega_cdf(self):
        return cumulative_rows(self.omega)

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
        """The policy that `to_json` wrote; ValueError, naming the field,
        for a record of any other structure."""
        if not isinstance(data, dict):
            raise ValueError("a policy must be a JSON object")
        action_set, z, o, eta, pi = (data.get(name) for name in (
            "action_set", "node_count", "n_obs_bins", "eta", "pi"))
        if not (is_number_list(action_set, count=True) and action_set):
            raise ValueError("action_set must be a non-empty list of integers")
        for name, value in (("node_count", z), ("n_obs_bins", o)):
            if not (is_number(value, count=True) and value >= 1):
                raise ValueError("%s must be a positive integer" % name)
        for name, value, rows in (("eta", eta, False), ("pi", pi, True)):
            if not is_number_list(value, rows=rows):
                raise ValueError("%s must be an array of numbers" % name)
        if len(eta) != z:
            raise ValueError("node_count must equal the length of eta")
        rows, shape = data.get("omega"), (z, len(action_set), o)
        # one row per (node, action, bin), so the file's size bounds omega's
        if not (isinstance(rows, dict) and len(rows) == math.prod(shape)):
            raise ValueError("omega must be an object of %d rows, one per "
                             "node, action and observation bin"
                             % math.prod(shape))
        omega = np.zeros(shape + (z,))
        for key, row in rows.items():
            try:
                i, a, oi = (int(p) for p in key.split("/"))
                ai = action_set.index(a)
                # a key written any other way than `to_json` writes it
                # ("0/015/0", " 1/15/0") would name a row of another key
                if key != "%d/%d/%d" % (i, a, oi):
                    raise ValueError
            except ValueError:
                raise ValueError("omega key %r is not node/action/bin of "
                                 "this policy" % key) from None
            if not is_number_list(row):
                raise ValueError("omega row %s must be an array of numbers"
                                 % key)
            if not (0 <= i < z and 0 <= oi < o and len(row) == z):
                raise ValueError("omega row %s is out of range or not %d "
                                 "numbers" % (key, z))
            omega[i, ai, oi] = row
        return cls(eta=eta, pi=pi, omega=omega, action_set=action_set,
                   n_obs_bins=o)


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


def cumulative_rows(p):
    """Cumulative sums along the last axis of `p`, each row divided by its
    last entry, as nested lists: the rows `Generator.choice` builds."""
    cdf = np.cumsum(p, axis=-1)
    return (cdf / cdf[..., -1:]).tolist()


def draw(cdf, rng):
    """The index `Generator.choice(len(row), p=row)` draws, from the same one
    double of `rng`, given the cumulative row `cdf` of `row`."""
    return bisect_right(cdf, rng.random())


def initial_node(policy, rng):
    """Sample the starting node from eta."""
    return draw(policy.eta_cdf, rng)


def transition_node(policy, node, action, obs_us, rng):
    """Sample the successor node given the taken action and raw observation."""
    if not 0 <= node < policy.node_count:
        raise ValueError("node index out of range")
    ai = policy.action_index(action)
    oi = observation_bin(obs_us, policy.n_obs_bins)
    return draw(policy.omega_cdf[node][ai][oi], rng)


@functools.lru_cache(maxsize=None)
def agent_index(n):
    """(n, 1, 1) agent numbers, which index the agent axis of a stacked
    policy or batch against (K, t) episode arrays; built once per n."""
    index = np.arange(n)[:, None, None]
    index.flags.writeable = False
    return index


# What `forward_pass` returns: alpha_hat (N, K, t+1, Z), the scales (N, K,
# t+1) it was divided by and the step matrices (N, K, t, Z, Z)
ForwardPass = namedtuple("ForwardPass", "alpha_hat scale steps")


def forward_pass(policy, action_idx, obs_bins):
    """Scaled forward recursion over controller nodes, batched over episodes
    and stacked over agents, as a `ForwardPass`.

    `action_idx` are action indices, shape (K, t+1), and `obs_bins` are
    observation-bin indices, shape (K, t): one row per episode, all of
    the same length; 1-D inputs are the K = 1 case. alpha_hat[n, k, tau]
    is episode k's node posterior given its history up to tau, and
    scale[n, k, tau] the factor it was divided by, so the product of the
    scales along tau is the history likelihood of every prefix. Per-step
    scaling keeps T = 50 histories from underflowing. The node sweep of
    `learning` reads the same scales and step matrices backward.

    A stacked policy (`stack_policies`: eta (N, Z), pi (N, Z, A), omega
    (N, Z, A, O, Z), zero beyond each agent's own nodes) takes (N, K, t+1)
    and (N, K, t) indices, and all N K rows run in one pass; a zero node
    adds only exact zeros, so only summation order differs from N passes.
    A single policy gives N = 1. The entries each step reads, pi[:, a_tau]
    and omega[:, a_tau, o_tau], are gathered once and handed to
    `scaled_forward`, which holds the recursion and its checks.
    """
    aidx = np.asarray(action_idx, dtype=int)
    obins = np.asarray(obs_bins, dtype=int)
    shape = aidx.shape
    if obins.shape != shape[:-1] + (shape[-1] - 1,):
        raise ValueError("need exactly one fewer observation than actions")
    eta, pi, omega = (np.asarray(x, dtype=float)
                      for x in (policy.eta, policy.pi, policy.omega))
    if eta.ndim == 1:
        eta, pi, omega = eta[None], pi[None], omega[None]
    elif aidx.ndim != 3 or len(aidx) != len(eta):
        raise ValueError("a stacked policy needs (agents, K, t+1) actions")
    n = len(eta)
    aidx = aidx.reshape(n, -1, shape[-1])
    k, t1 = aidx.shape[1:]
    obins = obins.reshape(n, k, t1 - 1)
    agent = agent_index(n)
    pi_rows = pi.transpose(0, 2, 1)[agent, aidx]  # pi[:, a] per step
    with np.errstate(invalid="ignore", over="ignore"):
        first = eta[:, None] * pi_rows[:, :, 0]
    return scaled_forward(first, omega.transpose(0, 2, 3, 1, 4)[
        agent, aidx[..., :-1], obins], pi_rows[:, :, 1:])


def scaled_forward(first, omega_steps, pi_steps):
    """`forward_pass`'s recursion from gathered factors: the first alpha
    (N, K, Z), eta[i] pi[i, a_0], and per step omega[i, a_tau, o_tau, j]
    (N, K, t, Z, Z) and pi[j, a_{tau+1}] (N, K, t, Z), whose product is
    the step matrix M_tau[i, j]; alpha advances by one matmul per step.
    A history of zero likelihood raises ValueError; any other non-finite
    scale FloatingPointError."""
    (n, k, z), t1 = first.shape, pi_steps.shape[2] + 1
    scale = np.empty((n, k, t1))
    # a zero total turns the rest of its row into NaN; one check at the end
    # finds the zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = omega_steps * pi_steps[:, :, :, None, :]
        alpha_hat = np.empty((n, k, t1, z))
        alpha = first
        for t in range(t1):
            if t:
                alpha = (alpha_hat[:, :, t - 1, None, :]
                         @ steps[:, :, t - 1])[:, :, 0]
            scale[..., t] = total = alpha.sum(axis=-1)
            alpha_hat[:, :, t] = alpha / total[..., None]
    # min > 0 is False for a NaN, so one reduction per bound covers both
    if not (scale.min() > 0.0 and scale.max() < math.inf):
        if np.any(scale == 0.0):
            raise ValueError("history has zero likelihood under the policy")
        raise FloatingPointError("forward pass is not finite")
    return ForwardPass(alpha_hat, scale, steps)


def forward(policy, action_idx, obs_bins):
    """(alpha_hat, log_scale) of `forward_pass`, in the inputs' shape: (K,
    t+1, Z) and (K, t+1) for (K, t+1) actions, without the K axis for 1-D
    inputs and with the agent axis for a stacked policy. The cumulative sum
    of log_scale along tau is the log history likelihood of every prefix."""
    alpha_hat, scale, _ = forward_pass(policy, action_idx, obs_bins)
    shape = np.shape(action_idx)
    return alpha_hat.reshape(shape + (-1,)), np.log(scale).reshape(shape)


def stack_policies(policies):
    """Controllers or point estimates of N agents as one `PointEstimate` of
    stacked arrays, eta (N, Z), pi (N, Z, A) and omega (N, Z, A, O, Z),
    zero beyond each agent's own nodes, actions and bins, as
    `forward_pass` takes them."""
    stacked = []
    for name in ("eta", "pi", "omega"):
        parts = [np.asarray(getattr(p, name), dtype=float) for p in policies]
        out = np.zeros((len(parts),) + tuple(np.max([x.shape for x in parts],
                                                    axis=0)))
        for n, x in enumerate(parts):
            out[(n,) + tuple(map(slice, x.shape))] = x
        stacked.append(out)
    return PointEstimate(*stacked)


def history_likelihood(policy, action_idx, obs_bins):
    """p(a_{0:t} | o_{1:t}) under a controller or point estimate.

    For sub-probability point estimates the result is a non-negative
    weight rather than a probability.
    """
    return math.exp(float(np.sum(forward(policy, action_idx, obs_bins)[1])))


def log_history_likelihoods(policy, action_idx, obs_bins):
    """Cumulative log p(a_{0:t} | o_{1:t}) for every prefix t, as an array
    of length len(action_idx)."""
    return np.cumsum(forward(policy, action_idx, obs_bins)[1])


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


def init_from_episodes(actions, obs_bins, n_actions, max_nodes=10):
    """The start of one agent's controller: its nodes' action rows, (Z, A).

    `actions` (K, t+1) and `obs_bins` (K, t) are the agent's action indices
    and transition obs bins in an `EpisodeBatch`. Grows a prefix tree over
    (action, observation-bin) histories, merges tree nodes whose empirical
    next-action distributions are within `_MERGE_TOL` in L1, caps the node
    count at `max_nodes` by folding the smallest clusters into their
    nearest neighbor, and smooths the rows with add-one pseudo-counts.
    """
    act_counts = {}   # history tuple -> action count vector
    for acts, bins in zip(actions.tolist(), obs_bins.tolist()):
        hist = ()  # the last action has no transition, so no obs bin
        for ai, ob in zip(acts, bins + [None]):
            act_counts.setdefault(hist, np.zeros(n_actions))[ai] += 1.0
            hist += ((ai, ob),)

    # greedy clustering of tree nodes by next-action distribution, the
    # most visited first; a node joins the nearest cluster within tolerance.
    # The first m rows of `counts` are the clusters' aggregate counts and
    # those of `rows` the same normalized, so one expression gives a node's
    # L1 gap to every cluster
    counts, rows = np.zeros((2, len(act_counts), n_actions))
    m = 0
    for h in sorted(act_counts, key=lambda h: (-act_counts[h].sum(), h)):
        dist = act_counts[h] / act_counts[h].sum()
        if m:
            gaps = np.abs(dist - rows[:m]).sum(axis=1)
            j = int(np.argmin(gaps))
        if m and gaps[j] < _MERGE_TOL:
            counts[j] += act_counts[h]
            rows[j] = counts[j] / counts[j].sum()
        else:
            counts[m], rows[m] = act_counts[h], dist
            m += 1
    counts, rows = counts[:m], rows[:m]
    while len(counts) > max_nodes:
        i = int(np.argmin(counts.sum(axis=1)))
        src = counts[i]
        counts, rows = np.delete(counts, i, 0), np.delete(rows, i, 0)
        j = int(np.argmin(np.abs(src / src.sum() - rows).sum(axis=1)))
        counts[j] += src
        rows[j] = counts[j] / counts[j].sum()
    pi_counts = 1.0 + counts[np.argsort(-counts.sum(axis=1), kind="stable")]
    return pi_counts / pi_counts.sum(axis=-1, keepdims=True)


def save_policies(policies, path):
    # one dumps call runs the C encoder; json.dump to a file runs the
    # pure-Python one chunk by chunk, for the same text
    text = json.dumps({"schema": "specshare-policies-v1",
                       "policies": [p.to_json() for p in policies]})
    with open(path, "w") as fh:
        fh.write(text)


def load_policies(path):
    """The policies of a `save_policies` file; ValueError, naming the
    policy and its field, for a file of any other structure."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict)
            and data.get("schema") == "specshare-policies-v1"):
        raise ValueError("unrecognized policy file schema")
    policies = data.get("policies")
    if not (isinstance(policies, list) and policies):
        raise ValueError("policies must be a non-empty list")
    loaded = []
    for n, record in enumerate(policies):
        try:
            loaded.append(FscPolicy.from_json(record))
        except ValueError as exc:
            raise ValueError("%s policy %d: %s" % (path, n, exc)) from None
    return loaded
