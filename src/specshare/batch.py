"""Learner batches: episodes checked once and turned into per-agent index
arrays, grouped by episode length so that every group is one rectangular
block for the batched forward-backward kernel in `learning`.
"""

import numpy as np


class EpisodeBatch:
    """A learner batch as per-agent index arrays, checked and built once.

    Episodes are grouped by length, so each group is one rectangular block
    that the forward-backward kernel sweeps in a single call per agent.
    `action_sets` holds one entry per agent: the tuple its actions are
    indexed in, or None to use the pre-indexed `track.action_idx` (for
    point-estimate targets). Every obs_bin must lie in [0, n_obs_bins).
    The episodes themselves are only read.
    """

    def __init__(self, episodes, action_sets, n_obs_bins):
        if not episodes:
            raise ValueError("need at least one episode")
        n_agents = len(episodes[0].agents)
        if len(action_sets) != n_agents:
            raise ValueError("%d policies for %d agents"
                             % (len(action_sets), n_agents))
        by_length = {}
        for k, ep in enumerate(episodes):
            if len(ep.agents) != n_agents:
                raise ValueError("episode %d has %d agents, the first has %d"
                                 % (k, len(ep.agents), n_agents))
            t1 = len(ep.rewards)
            for n, tr in enumerate(ep.agents):
                lengths = (len(tr.actions), len(tr.obs_bin),
                           len(tr.pi_behavior))
                if t1 == 0 or lengths != (t1,) * 3:
                    raise ValueError(
                        "episode %d agent %d: %d actions, %d obs_bin and %d "
                        "pi_behavior for %d rewards" % ((k, n) + lengths
                                                        + (t1,)))
            by_length.setdefault(t1, []).append(k)
        self.size = len(episodes)
        self.n_obs_bins = n_obs_bins
        self.groups = [_Group([episodes[k] for k in rows], rows, action_sets,
                              n_obs_bins) for rows in by_length.values()]

    @classmethod
    def for_policies(cls, episodes, target, behavior=None):
        """Index a list of episodes for evaluating the target policies; the
        behaviour policies, if given, are evaluated on the same indices."""
        sets = [getattr(p, "action_set", None) for p in target]
        if behavior is not None \
                and [getattr(p, "action_set", None) for p in behavior] != sets:
            raise ValueError("behavior policies must match the target "
                             "policies' agents and action sets")
        policies = list(target) + list(behavior or [])
        return cls(episodes, sets, min(np.shape(p.omega)[2] for p in policies))

    def visited(self, agent, n_actions):
        """(action, obs-bin) mask of the pairs the agent takes a transition
        at somewhere in the batch."""
        mask = np.zeros((n_actions, self.n_obs_bins), dtype=bool)
        for g in self.groups:
            mask[g.action_idx[agent][:, :-1], g.obs_bins[agent]] = True
        return mask

    def per_episode(self, blocks):
        """Split one (K_g, ...) block per group into per-episode rows, in
        batch order."""
        out = [None] * self.size
        for g, block in zip(self.groups, blocks):
            for row, k in enumerate(g.rows):
                out[k] = block[row]
        return out


class _Group:
    """The episodes of one length: their batch positions, per-agent action
    indices (K_g, t+1) and transition obs bins (K_g, t), the summed
    cumulative log of the stored behaviour probabilities and the rewards.
    Every behaviour probability must lie in (0, 1] and every reward must be
    finite."""

    def __init__(self, episodes, rows, action_sets, n_obs_bins):
        self.rows = rows
        self.action_idx = []
        self.obs_bins = []
        log_behavior = []
        for n, aset in enumerate(action_sets):
            tracks = [ep.agents[n] for ep in episodes]
            self.action_idx.append(np.array(
                [_action_indices(tr, aset) for tr in tracks], dtype=int))
            bins = np.array([tr.obs_bin for tr in tracks])
            if bins.dtype.kind not in "iu" or np.any(bins < 0) \
                    or np.any(bins >= n_obs_bins):
                raise ValueError("obs_bin values must be integers in [0, %d)"
                                 % n_obs_bins)
            self.obs_bins.append(bins[:, :-1])
            probs = np.array([tr.pi_behavior for tr in tracks], dtype=float)
            if not np.all((probs > 0.0) & (probs <= 1.0)):
                raise ValueError("pi_behavior values must lie in (0, 1]")
            log_behavior.append(np.cumsum(np.log(probs), axis=1))
        self.log_behavior = np.sum(log_behavior, axis=0)
        self.rewards = np.array([ep.rewards for ep in episodes], dtype=float)
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")


def _action_indices(track, action_set):
    if action_set is not None:
        return [action_set.index(a) for a in track.actions]
    if hasattr(track, "action_idx"):
        return track.action_idx
    raise ValueError("point-estimate targets need pre-indexed actions")
