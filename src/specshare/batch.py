"""Learner batches: episodes checked once and turned into stacked index
arrays for the batched forward-backward kernel in `learning`.
"""

import numpy as np

from .fsc import DEFAULT_OBS_BINS, observation_bins
from .trajectories import INTEGER_FIELDS, TRACK_FIELDS


class EpisodeBatch:
    """A learner batch as stacked index arrays, checked and built once.

    All K episodes have t+1 steps, as `collect` writes them, so the batch
    is one block that the kernel sweeps in one call for all N agents:
    `actions` (N, K, t+1), indexed in each agent's `action_sets[n]`, and
    the transition obs bins `obs_bins` (N, K, t), each in [0, n_obs_bins),
    one (K, t+1) and (K, t) slice per agent. Every stored obs bin must be
    `fsc.observation_bin` of its obs_us, a positive integer, at the number
    of bins the agent's collector used: one past its largest stored bin, as
    a collector may quantize to fewer bins than n_obs_bins. `log_behavior`
    sums the agents' cumulative log behaviour probabilities, each in
    (0, 1]; `rewards` must be finite. `action_sets` None gives every agent
    the sorted union of the batch's actions. The learner reads episodes
    only here, and never modifies them.
    """

    def __init__(self, episodes, action_sets=None,
                 n_obs_bins=DEFAULT_OBS_BINS):
        if not episodes:
            raise ValueError("need at least one episode")
        n_agents = len(episodes[0].agents)
        if action_sets is None:
            action_sets = [tuple(sorted({a for ep in episodes
                                         for tr in ep.agents
                                         for a in tr.actions}))] * n_agents
        if len(action_sets) != n_agents:
            raise ValueError("%d policies for %d agents"
                             % (len(action_sets), n_agents))
        first = len(episodes[0].rewards)
        for k, ep in enumerate(episodes):
            if len(ep.agents) != n_agents:
                raise ValueError("episode %d has %d agents, the first has %d"
                                 % (k, len(ep.agents), n_agents))
            t1 = len(ep.rewards)
            for n, tr in enumerate(ep.agents):
                lengths = [len(getattr(tr, name)) for name in TRACK_FIELDS]
                if t1 == 0 or lengths != [t1] * len(lengths):
                    raise ValueError("episode %d agent %d: %s for %d steps" % (
                        k, n, ", ".join("%d %s" % pair for pair in zip(
                            lengths, TRACK_FIELDS)), t1))
            if t1 != first:
                raise ValueError("episode %d has %d steps, the first has %d"
                                 % (k, t1, first))
        self.size = len(episodes)
        self.action_sets = action_sets
        self.n_obs_bins = n_obs_bins
        self.actions, self.obs_bins, log_behavior = [], [], []
        for n, aset in enumerate(action_sets):
            tracks = [ep.agents[n] for ep in episodes]
            ints = {name: np.array([getattr(tr, name) for tr in tracks])
                    for name in INTEGER_FIELDS}
            for name, values in ints.items():
                if values.dtype.kind not in "iu":
                    raise ValueError("%s values must be integers" % name)
            index = {a: i for i, a in enumerate(aset)}
            for k, tr in enumerate(tracks):
                outside = [a for a in tr.actions if a not in index]
                if outside:
                    raise ValueError("episode %d agent %d: action %r is not "
                                     "in the action set %s"
                                     % (k, n, outside[0], list(aset)))
            self.actions.append(np.array(
                [[index[a] for a in tr.actions] for tr in tracks], dtype=int))
            bins, us = ints["obs_bin"], ints["obs_us"]
            if np.any(bins < 0) or np.any(bins >= n_obs_bins):
                raise ValueError("obs_bin values must be integers in [0, %d)"
                                 % n_obs_bins)
            # the fewest bins the agent's collector can have used
            used = bins.max() + 1
            wrong = np.argwhere((us < 1) | (bins != observation_bins(us, used)))
            if wrong.size:
                k, t = wrong[0]
                raise ValueError("episode %d agent %d step %d: obs_bin %d is "
                                 "not the bin of obs_us %d"
                                 % (k, n, t, bins[k, t], us[k, t]))
            self.obs_bins.append(bins[:, :-1])
            probs = np.array([tr.pi_behavior for tr in tracks], dtype=float)
            if not np.all((probs > 0.0) & (probs <= 1.0)):
                raise ValueError("pi_behavior values must lie in (0, 1]")
            log_behavior.append(np.cumsum(np.log(probs), axis=1))
        self.actions, self.obs_bins = (np.stack(self.actions),
                                       np.stack(self.obs_bins))
        self.log_behavior = np.sum(log_behavior, axis=0)
        self.rewards = np.array([ep.rewards for ep in episodes], dtype=float)
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")

    def visited(self, agent, n_actions):
        """(action, obs-bin) mask of the pairs the agent takes a transition
        at somewhere in the batch."""
        mask = np.zeros((n_actions, self.n_obs_bins), dtype=bool)
        mask[self.actions[agent][:, :-1], self.obs_bins[agent]] = True
        return mask
