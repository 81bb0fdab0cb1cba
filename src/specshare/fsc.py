"""Finite-state-controller policies: stochastic execution, history
likelihoods, episode-based initialization, exp-digamma point estimates,
and node pruning.

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

from .distributions import digamma, validate_simplex, validate_simplex_rows

DEFAULT_OBS_BINS = 24
_MERGE_TOL = 0.1  # L1 gap below which `init_from_episodes` merges nodes


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
        action_set, z, o = (data.get(name) for name in
                            ("action_set", "node_count", "n_obs_bins"))
        if not (isinstance(action_set, list) and action_set
                and all(_is_int(a) for a in action_set)):
            raise ValueError("action_set must be a non-empty list of integers")
        for name, value in (("node_count", z), ("n_obs_bins", o)):
            if not (_is_int(value) and value >= 1):
                raise ValueError("%s must be a positive integer" % name)
        eta, pi = (_numbers(data.get(name), name) for name in ("eta", "pi"))
        if eta.size != z:
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
            except ValueError:
                raise ValueError("omega key %r is not node/action/bin of "
                                 "this policy" % key) from None
            row = _numbers(row, "omega row %s" % key)
            if not (0 <= i < z and 0 <= oi < o and row.shape == (z,)):
                raise ValueError("omega row %s is out of range or not %d "
                                 "numbers" % (key, z))
            omega[i, ai, oi] = row
        return cls(eta=eta, pi=pi, omega=omega, action_set=action_set,
                   n_obs_bins=o)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(value, name):
    """`value`, a number or (nested) list of numbers, as a float array."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError("%s must be an array of numbers" % name)
    return arr.astype(float)


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

    With one node there is nothing to step through: alpha_hat is all ones
    and each scale is that step's factor, eta pi[a_0] first and then
    omega[a_{t-1}, o_{t-1}] pi[a_t], the values the recursion reaches
    exactly (x / x = 1 and 1 x = x), so both paths give the same bits.
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
    # a zero total logs as -inf and, in the loop, turns the rest of its row
    # into NaN, so one check at the end finds it
    with np.errstate(divide="ignore", invalid="ignore"):
        if policy.eta.size == 1:
            alpha_hat = np.ones((k, t1, 1))
            log_scale = np.log(np.concatenate(
                [np.broadcast_to(policy.eta, (k, 1)), trans[:, :, 0, 0]],
                axis=1) * pi_rows[..., 0])
        else:
            alpha_hat = np.empty((k, t1, policy.eta.size))
            log_scale = np.empty((k, t1))
            alpha = policy.eta * pi_rows[:, 0]
            for t in range(t1):
                if t:
                    alpha = (alpha_hat[:, t - 1, None, :]
                             @ trans[:, t - 1])[:, 0] * pi_rows[:, t]
                total = alpha.sum(axis=1)
                log_scale[:, t] = np.log(total)
                alpha_hat[:, t] = alpha / total[:, None]
    if not np.all(log_scale > -np.inf):
        raise ValueError("history has zero likelihood under the policy")
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


def _stick_logs(psi_first, psi_second, psi_sum, counts=1.0):
    """Expected log stick weights from Beta(first, second) break factors,
    given digamma of first, second and their sum, along the last axis.

    Index i < last combines E[ln u_i] with the accumulated E[ln(1-u_m)]
    for m < i; the last index uses only the accumulated (1-u) terms. A
    stick along the last axis stands for `counts` equal sticks in a row.
    """
    e_ln_u = psi_first - psi_sum
    e_ln_1mu = (psi_second - psi_sum) * counts
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


# Which omega sticks a learner kernel holds once some nodes have left it.
# `live`: the kernel-live nodes, ascending. Destination slots: each live
# node is a slot of its own and each run of dropped nodes between live ones
# is one slot; `slot_of` maps every node to its slot and `counts` is the
# number of nodes per slot. The stick entries, one row of kept columns
# each, are every (live node, slot) pair in row-major order, then one entry
# per dropped source node, standing for all its destinations: `rows` is
# the source node of each entry, `weights` the (source, destination) pairs
# it stands for, and `starts` the first entry of each source node.
NodeSlots = namedtuple("NodeSlots", "live slot_of counts rows weights starts")


def node_slots(live, z):
    """`NodeSlots` of the ascending kernel-live nodes `live` out of z."""
    live = np.asarray(live, dtype=int)
    alive = np.zeros(z, dtype=bool)
    alive[live] = True
    new_slot = alive.copy()
    new_slot[0] = True
    new_slot[1:] |= alive[:-1]
    slot_of = np.cumsum(new_slot) - 1
    counts = np.bincount(slot_of)
    dead = np.flatnonzero(~alive)
    n = live.size * counts.size
    return NodeSlots(
        live, slot_of, counts,
        rows=np.concatenate([np.repeat(live, counts.size), dead]),
        weights=np.concatenate([np.tile(counts, live.size),
                                np.full(dead.size, z)]).astype(float),
        starts=np.concatenate([np.arange(0, n, counts.size),
                               np.arange(n, n + dead.size)]))


def omega_entries(state, columns):
    """sigma and lam of `state` on the kept `columns` as the stick entries
    of a kernel in which every node is live, (Z * Z, columns) each."""
    z = np.size(state.delta)
    return tuple(np.reshape(x, (z, -1, z))[:, columns].transpose(0, 2, 1)
                 .reshape(z * z, -1) for x in (state.sigma, state.lam))


# digamma of (delta, mu, delta + mu), of the omega stick entries (sigma,
# lam, sigma + lam) and of (phi, phi's row sums), omega_columns' expand and
# the entries' `NodeSlots`
FactorDigammas = namedtuple("FactorDigammas", "eta omega pi expand slots")


def stick_digammas(state, sigma, lam, slots, expand, digamma_fn=None):
    """`FactorDigammas` of the eta and pi factors of `state` and of the
    omega stick entries `sigma` and `lam`, laid out as `slots` says."""
    psi = digamma_fn or digamma
    delta, mu, phi = (np.asarray(v, dtype=float)
                      for v in (state.delta, state.mu, state.phi))
    return FactorDigammas((psi(delta), psi(mu), psi(delta + mu)),
                          (psi(sigma), psi(lam), psi(sigma + lam)),
                          (psi(phi), psi(phi.sum(axis=1, keepdims=True))),
                          expand, slots)


def point_estimate(state, psi=None):
    """Exp-digamma point estimate of the policy from variational params.

    `state` carries delta, mu (per-node stick Betas for eta), sigma, lam
    (per-(i,a,o,j) stick Betas for omega) and phi (per-node Dirichlets for
    pi), and optionally `visited` (see `omega_columns`). `psi` is the
    state's `FactorDigammas`, computed here, every node live, when not
    given. The estimate covers the kernel-live nodes `psi.slots.live`.
    Entries are exp of expected log-probabilities, hence sub-probabilities;
    no renormalization is applied.
    """
    if psi is None:
        columns, expand, _ = omega_columns(state)
        z = np.size(state.delta)
        psi = stick_digammas(state, *omega_entries(state, columns),
                             node_slots(np.arange(z), z), expand)
    live, slot_of, counts = psi.slots[:3]
    n = live.size * counts.size
    eta = np.exp(_stick_logs(*psi.eta))[live]
    pi = np.exp(psi.pi[0] - psi.pi[1])[live]
    sticks = (np.reshape(p[:n], (live.size, counts.size, -1))
              .transpose(0, 2, 1) for p in psi.omega)
    omega = np.exp(_stick_logs(*sticks, counts))[..., slot_of[live]]
    _, n_actions, n_obs, _ = np.shape(state.sigma)
    return PointEstimate(eta=eta, pi=pi, omega=omega[:, psi.expand].reshape(
        live.size, n_actions, n_obs, live.size))


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
    # most visited first; a node joins the nearest cluster within tolerance
    clusters = []  # aggregate count vectors
    for h in sorted(act_counts, key=lambda h: (-act_counts[h].sum(), h)):
        dist = act_counts[h] / act_counts[h].sum()
        gaps = [np.abs(dist - agg / agg.sum()).sum() for agg in clusters]
        if gaps and min(gaps) < _MERGE_TOL:
            clusters[gaps.index(min(gaps))] += act_counts[h]
        else:
            clusters.append(act_counts[h].copy())
    while len(clusters) > max_nodes:
        src = clusters.pop(int(np.argmin([c.sum() for c in clusters])))
        dist = src / src.sum()
        gaps = [np.abs(dist - agg / agg.sum()).sum() for agg in clusters]
        clusters[gaps.index(min(gaps))] += src
    clusters.sort(key=lambda c: -c.sum())
    pi_counts = 1.0 + np.array(clusters)
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
