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

from .distributions import (digamma, is_number, is_number_list,
                            validate_simplex, validate_simplex_rows)

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
    A single policy gives N = 1. Each step matrix, steps[n, k, tau] = M_tau
    with M_tau[i, j] = omega[i, a_tau, o_tau, j] pi[j, a_{tau+1}], is
    gathered once, and alpha advances by one matmul per step (with one node
    each scale is a step's factor; the learner adds their logs instead,
    `learning._log_factors`). A history of zero likelihood raises
    ValueError; any other non-finite scale FloatingPointError.
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
    n, z = eta.shape
    aidx = aidx.reshape(n, -1, shape[-1])
    k, t1 = aidx.shape[1:]
    obins = obins.reshape(n, k, t1 - 1)
    agent = agent_index(n)
    scale = np.empty((n, k, t1))
    # a zero total turns the rest of its row into NaN; one check at the end
    # finds the zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi_rows = pi.transpose(0, 2, 1)[agent, aidx]  # pi[:, a] per step
        steps = omega.transpose(0, 2, 3, 1, 4)[
            agent, aidx[..., :-1], obins] * pi_rows[:, :, 1:, None, :]
        alpha_hat = np.empty((n, k, t1, z))
        alpha = eta[:, None] * pi_rows[:, :, 0]
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
    `forward_pass` takes them. An estimate that is stacked already is
    returned as it is."""
    if isinstance(policies, PointEstimate):
        return policies
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


def omega_columns(visited, n_actions, n_obs):
    """The (action, obs-bin) columns of omega's stick arrays that can differ.

    `visited`, an (A, O) boolean array or None for all, marks the pairs at
    which some episode takes a transition. The learner's updates keep the
    parameters of all other columns identical to one another, so one of
    them stands for the rest. Returns (columns, expand, counts): the flat
    a * O + o index of each kept column (the stand-in last), the kept
    column that every flat column takes its values from, and how many flat
    columns each kept one covers.
    """
    flat = np.ones(n_actions * n_obs, dtype=bool) if visited is None \
        else np.asarray(visited, dtype=bool).reshape(n_actions * n_obs)
    columns = np.flatnonzero(flat)
    expand = np.empty(flat.size, dtype=int)
    expand[columns] = np.arange(columns.size)
    rest = np.flatnonzero(~flat)
    if rest.size:
        expand[rest] = columns.size
        columns = np.append(columns, rest[0])
    return columns, expand, np.bincount(expand)


# Views of a kernel's flat buffer (`KernelLayout.split`): the sticks' first
# parameters (delta, then sigma), phi, the second parameters (mu, then lam),
# the sticks' sums and phi's row sums, and the whole buffer
Sticks = namedtuple("Sticks", "first phi second total phisum delta sigma mu "
                              "lam flat")
# digamma of each part of the buffer (`KernelLayout.digammas`), plus
# `log_rest`, the E[ln(1 - u)] of the dropped sticks just before each stick
# (its gap, set by the caller, 0 where there are none) and of the stick
# itself, followed by a 0; `row_rest`, their sum along each stick row;
# `logs`, the point estimate's log of each stick and phi entry followed by
# the -inf a pad reads; and the layout
FactorDigammas = namedtuple("FactorDigammas", Sticks._fields + (
    "log_rest", "row_rest", "logs", "layout"))


class KernelLayout:
    """Where a learner kernel over N agents holds each parameter, and the
    index maps of the steps that follow each agent's own nodes.

    Nodes are numbered agent after agent (`offsets`); `live_nodes` are the
    kernel-live ones, each agent's ascending, and `dropped` the rest. The
    flat buffer (`split`) holds the live parameters only: delta and the
    omega sticks' sigma (the `n_sticks` first parameters), phi, mu and
    lam, then the sticks' sums and phi's row sums; its first `n_params`
    values are the parameters. There is one eta stick per live node, and
    per live source one omega entry per live destination of its agent
    (`n_entries`, source after source), each a row over the kept columns,
    the union of every agent's (`omega_columns`); a column an agent never
    transitions at evolves exactly like its stand-in.

    Every other stick is (1, lam) and has a closed form. Along a stick
    row (an agent's eta sticks, or a live source's omega sticks at one
    column) the dropped nodes just before a live stick share one lam
    (`gap` of them per `gapped` stick, the sticks that have any), and so
    do the dropped nodes after the last live one, whose lam is the row's
    concentration (`trail` of them per rate); a dropped source row is Z
    such sticks per column. The rates
    live in their own buffer: h per agent, then b on the kept columns,
    the live nodes' rows first and the dropped nodes' after them
    (`row_node`), so that the stick rows (`n_rows`: eta per agent, then
    omega per live source and column) and their rates share the order;
    `rate_order` places each rate in the order h, then b node after node,
    and `rate_of` is the concentration rate of each stick.

    With several live nodes in an agent, steps along a stick row read the
    row through a padded block, `grid`, of each live stick's gap and own
    E[ln(1 - u)] in turn (at `prefix_cell`), whose cumulative sums give
    the point estimate's prefix sums (a stick that is its agent's last
    node takes the rest, `not_last`) and the rows' sums; its even columns
    hold the live sticks alone, whose reversed cumulative sums give the
    update's masses of heavier sticks. With one live node per agent it is
    None: every row is one gap and one stick. The point estimate pads
    every agent to `n_lanes` live nodes with zeros (`eta_map`, `pi_map`,
    `omega_map`: the buffer entry of each lane; `lane_node`, the node of
    each lane), and at every layout the update scatters its masses
    through the same maps read the other way (`learning._Kernel.index`).
    Every pad index is -1, and every array it indexes ends in the value a
    pad reads. A layout is built again only when a node leaves the kernel.

    One map links the layout to the states' stick rows laid out flat,
    agent after agent: the eta row, then one omega row per node and kept
    column, each of `row_len` (Z) entries. `row_at` (where each rate's row
    starts), `stick_at` (each stick's entry) and `gap_at` (each gap's
    entries) are built on first use: no layout the learn loop builds reads
    them. `fill` gathers through the map, `learning._Kernel.store` scatters.
    """

    def __init__(self, node_counts, live, columns, n_actions, n_obs):
        z = np.asarray(node_counts, dtype=int)
        self.node_counts, self.n_agents = z, z.size
        self.live = [np.asarray(nodes, dtype=int) for nodes in live]
        self.columns, self.expand, self.counts = columns
        self.n_actions, self.n_obs = n_actions, n_obs
        n_agents, n_cols, col = z.size, self.counts.size, np.arange(
            self.counts.size)
        self.offsets = np.concatenate([[0], np.cumsum(z)])
        self.n_nodes = n_nodes = int(self.offsets[-1])
        self.agent_of_node = np.repeat(np.arange(n_agents), z)
        self.n_live = n_live = np.array([nodes.size for nodes in self.live])
        self.live_offsets = np.concatenate([[0], np.cumsum(n_live)])
        self.n_lanes = lanes = int(n_live.max())
        step = np.arange(lanes)
        self.lane_real = real = step < n_live[:, None]
        # the live nodes, agent after agent: agent, own number and lane
        agent = np.repeat(np.arange(n_agents), n_live)
        self.local = local = np.concatenate(self.live)
        n_held = local.size
        lane = np.arange(n_held) - self.live_offsets[agent]
        self.live_nodes = live_nodes = self.offsets[agent] + local
        alive = np.zeros(n_nodes, dtype=bool)
        alive[live_nodes] = True
        self.dropped = np.flatnonzero(~alive)
        self.row_node = np.concatenate([live_nodes, self.dropped])
        self.node_row = np.argsort(self.row_node)
        # dropped nodes just before each live one, and after each agent's
        # last live one
        before = np.concatenate([[-1], local[:-1]])
        before[lane == 0] = -1
        gap, not_last = local - before - 1, local != z[agent] - 1
        trail = z - local[self.live_offsets[1:] - 1] - 1
        # omega entries: per live source, one per live node of its agent
        per = n_live[agent]
        start = np.cumsum(per) - per
        self.n_entries = n_ent = int(per.sum())
        source = np.repeat(np.arange(n_held), per)
        self.dest = dest = self.live_offsets[agent[source]] \
            + np.arange(n_ent) - start[source]
        f = self.n_sticks = n_held + n_ent * n_cols
        p = n_held * n_actions
        self.n_params, self.size = 2 * f + p, 3 * f + p + n_held

        def per_stick(eta, omega, dtype=float):  # omega: (entries, columns)
            out = np.empty(f, dtype=dtype)
            out[:n_held] = eta
            out[n_held:].reshape(n_ent, n_cols)[...] = omega
            return out
        # per stick: a value of the live node it stands for (eta) or leads
        # to (omega); its row, eta per agent and omega per live source and
        # column, in the order of the rates the rows share
        self.not_last = per_stick(not_last, not_last[dest, None])
        self.bound_weight = per_stick(1.0, self.counts)
        gap = per_stick(gap, gap[dest, None], int)
        self.gapped = np.flatnonzero(gap)
        self.gap = gap[self.gapped]
        self.gap_weight = self.gap * self.bound_weight[self.gapped]
        self.rate_of = per_stick(agent, n_agents + source[:, None] * n_cols
                                 + col, int)
        self.n_rows = n_agents + n_held * n_cols
        self.n_rates = n_rates = n_agents + n_nodes * n_cols

        def per_rate(eta, omega, dtype=float):  # omega: (b rows, columns)
            out = np.empty(n_rates, dtype=dtype)
            out[:n_agents] = eta
            out[n_agents:].reshape(n_nodes, n_cols)[...] = omega
            return out
        self.rate_order = per_rate(np.arange(n_agents), n_agents
                                   + self.row_node[:, None] * n_cols + col,
                                   int)
        row_trail = np.concatenate([trail[agent],
                                    z[self.agent_of_node[self.dropped]]])
        self.trail = per_rate(trail, row_trail[:, None])
        self.row_len = per_rate(z, z[self.agent_of_node[self.row_node], None],
                                int)
        self.trail_weight = per_rate(trail, row_trail[:, None] * self.counts)
        self.grid = None
        if lanes > 1:
            # each stick's place along its row: its live node's lane
            row, at = self.rate_of, per_stick(lane, lane[dest, None], int)
            # [gap_0, stick_0, gap_1, stick_1, ...] in `log_rest`: the
            # cumulative sum at a gap is the prefix of the stick after it
            self.grid = np.full((self.n_rows, 2 * lanes), -1)
            self.prefix_cell = row * 2 * lanes + 2 * at
            self.grid.reshape(-1)[self.prefix_cell] = np.arange(f)
            self.grid.reshape(-1)[self.prefix_cell + 1] = np.arange(f, 2 * f)
        # the point estimate's gathers from [stick logs, pi logs, -inf],
        # and the update's scatter into the buffer
        held = np.where(real, self.live_offsets[:-1, None] + step, 0)
        self.eta_map = np.where(real, held, -1)
        self.lane_node = np.where(real, live_nodes[held], -1)
        self.pi_map = np.where(real[..., None], f + held[..., None]
                               * n_actions + np.arange(n_actions), -1)
        entry = n_held + (start[held][..., None] + step) * n_cols
        omega_map = np.where((real[:, :, None] & real[:, None])[:, :, None],
                             entry[:, :, None] + self.expand[:, None], -1)
        self.omega_map = omega_map.reshape(n_agents, lanes, n_actions, n_obs,
                                           lanes)

    def split(self, x):
        """`Sticks` views of a flat buffer of this layout."""
        n_held, f = self.live_nodes.size, self.n_sticks
        p = n_held * self.n_actions
        first, second = x[:f], x[f + p:2 * f + p]
        return Sticks(first=first, phi=x[f:f + p].reshape(-1, self.n_actions),
                      second=second, total=x[2 * f + p:3 * f + p],
                      phisum=x[3 * f + p:, None],
                      delta=first[:n_held], sigma=first[n_held:].reshape(
                          self.n_entries, -1),
                      mu=second[:n_held], lam=second[n_held:].reshape(
                          self.n_entries, -1), flat=x)

    def digammas(self, flat):
        """`FactorDigammas` views of `flat`, a buffer of this layout's size,
        and a new `log_rest` (no gaps), `row_rest` and `logs`, for
        `stick_digammas` to fill."""
        f = self.n_sticks
        return FactorDigammas(*self.split(flat), np.zeros(2 * f + 1),
                              np.zeros(self.n_rows),
                              np.full(self.n_params - f + 1, -np.inf), self)

    @functools.cached_property
    def row_at(self):
        z, n, n_cols = self.node_counts, self.n_agents, self.counts.size
        start = np.cumsum(z + z * z * n_cols) - z - z * z * n_cols
        agent = np.repeat(self.agent_of_node[self.row_node], n_cols)
        # each b row's place among its agent's: node * columns + column
        row = self.rate_order[n:] - n - self.offsets[agent] * n_cols
        return np.append(start, start[agent] + z[agent] * (1 + row))

    @functools.cached_property
    def stick_at(self):
        return self.row_at[self.rate_of] + np.append(
            self.local, np.repeat(self.local[self.dest], self.counts.size))

    @functools.cached_property
    def gap_at(self):
        return np.repeat(self.stick_at[self.gapped] - np.cumsum(self.gap),
                         self.gap) + np.arange(self.gap.sum())

    def fill(self, states):
        """A flat buffer of this layout holding the states' parameters, and
        the lam of every (1, lam) stick as a `learning._Kernel` holds them:
        per rate its row's last entry, then per `gapped` stick the entry
        before it. The sums are taken by `stick_digammas`."""
        def rows(eta, omega):  # the states' stick rows, laid out flat
            return np.concatenate([np.append(getattr(st, eta), np.reshape(
                getattr(st, omega), (z, -1, z))[:, self.columns])
                for st, z in zip(states, self.node_counts)])
        first, second = rows("delta", "sigma"), rows("mu", "lam")
        v = self.split(np.empty(self.size))
        v.first[:], v.second[:] = first[self.stick_at], second[self.stick_at]
        v.phi[:] = np.concatenate([st.phi for st in states])[self.live_nodes]
        return v.flat, np.append(second[self.row_at + self.row_len - 1],
                                 second[self.stick_at[self.gapped] - 1])


def stick_digammas(sticks, psi, digamma_fn=None):
    """Fill `psi`, `FactorDigammas` views (`KernelLayout.digammas`), with
    the digammas of the buffer that `sticks` views, whose parameters are
    set (the sums are taken here first), and the point estimate's logs:
    E[ln u] of a stick but a row's last, plus the E[ln(1 - u)] of those
    before it (the gaps' from `log_rest`), and E[ln pi]; and each row's
    E[ln(1 - u)] in `row_rest`. Returns `psi`."""
    lay, f, logs = psi.layout, psi.layout.n_sticks, psi.logs
    np.add(sticks.first, sticks.second, out=sticks.total)
    sticks.phi.sum(axis=1, keepdims=True, out=sticks.phisum)
    (digamma_fn or digamma)(sticks.flat, out=psi.flat)
    gap, rest = psi.log_rest[:f], psi.log_rest[f:-1]
    np.subtract(psi.second, psi.total, out=rest)
    np.subtract(psi.first, psi.total, out=logs[:f])
    logs[:f] *= lay.not_last
    if lay.grid is None:  # each row is one gap and one stick
        logs[:f] += gap
        np.add(gap, rest, out=psi.row_rest)
    else:
        along = psi.log_rest[lay.grid].cumsum(axis=1)
        logs[:f] += along.ravel()[lay.prefix_cell]
        psi.row_rest[:] = along[:, -1]
    np.subtract(psi.phi, psi.phisum, out=logs[f:-1].reshape(psi.phi.shape))
    return psi


def point_estimate(state, psi=None):
    """Exp-digamma point estimate of the policy from variational params.

    `state` carries delta, mu (per-node stick Betas for eta), sigma, lam
    (per-(i,a,o,j) stick Betas for omega) and phi (per-node Dirichlets for
    pi), and optionally `visited` (see `omega_columns`); its estimate
    covers every node. Given `psi`, the `FactorDigammas` of a learner
    kernel, the estimate is instead that kernel's, over each agent's
    kernel-live nodes, stacked and zero-padded as `forward_pass` takes it:
    one `exp` of the logs `stick_digammas` left in `psi` and three
    gathers. Entries are exp of expected log-probabilities, hence
    sub-probabilities; no renormalization is applied.
    """
    if psi is None:
        z = np.size(state.delta)
        _, n_actions, n_obs, _ = np.shape(state.sigma)
        layout = KernelLayout([z], [np.arange(z)], omega_columns(
            getattr(state, "visited", None), n_actions, n_obs),
            n_actions, n_obs)
        est = point_estimate(None, stick_digammas(
            layout.split(layout.fill([state])[0]),
            layout.digammas(np.empty(layout.size))))
        return PointEstimate(eta=est.eta[0], pi=est.pi[0],
                             omega=est.omega[0])
    lay, p = psi.layout, np.exp(psi.logs)
    return PointEstimate(eta=p[lay.eta_map], pi=p[lay.pi_map],
                         omega=p[lay.omega_map])


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
