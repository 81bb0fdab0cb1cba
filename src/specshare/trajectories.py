"""Behavior-policy trajectory collection and episode persistence.

Episodes are collected off-policy with an epsilon-greedy mixture over a
proper controller; the exact mixture probability of every taken action is
stored alongside it so importance ratios stay finite downstream.
"""

import json
from dataclasses import dataclass

import numpy as np

from .fsc import initial_node, observation_bin, transition_node
from .simulator import AgentTrack, CoexistenceSimulator, Episode

SCHEMA = "specshare-episodes-v1"
TRACK_FIELDS = ("actions", "obs_us", "obs_bin", "pi_behavior", "rewards")


@dataclass
class EpsilonSchedule:
    start: float
    end: float
    rounds: int

    def epsilon(self, round_index):
        if self.rounds <= 1:
            return self.start
        frac = min(max(round_index, 0), self.rounds - 1) / (self.rounds - 1)
        return self.start + (self.end - self.start) * frac


SCHEDULES = {"a": EpsilonSchedule(0.9, 0.5, 40),
             "b": EpsilonSchedule(0.9, 0.2, 40)}


@dataclass
class BehaviorPolicy:
    policies: list   # one proper FscPolicy per agent
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


def behavior_action(behavior, agent, node, rng):
    """Epsilon-greedy action draw; returns (action, its exact probability).

    With probability epsilon the action is uniform over the action set,
    otherwise sampled from the node's action row; the returned probability
    is the full mixture epsilon/|A| + (1 - epsilon) * pi(a | node).
    """
    pol = behavior.policies[agent]
    n_actions = len(pol.action_set)
    if rng.random() < behavior.epsilon:
        idx = int(rng.integers(n_actions))
    else:
        idx = int(rng.choice(n_actions, p=pol.pi[node]))
    prob = behavior.epsilon / n_actions \
        + (1.0 - behavior.epsilon) * float(pol.pi[node, idx])
    return pol.action_set[idx], prob


def _collect_episode(config, behavior, horizon, k, seed):
    rng = np.random.default_rng(seed)
    sim = CoexistenceSimulator(_with_seed(config, int(rng.integers(2 ** 31))))
    n = config.agent_count
    nodes = [initial_node(behavior.policies[i], rng) for i in range(n)]
    tracks = [AgentTrack() for _ in range(n)]
    done = [False] * n
    while not all(done):
        actions = {}
        for agent in sim.pending_agents():
            if done[agent]:
                continue
            if len(tracks[agent].actions) >= horizon:
                done[agent] = True
                continue
            action, prob = behavior_action(behavior, agent, nodes[agent], rng)
            actions[agent] = action
            tracks[agent].pi_behavior.append(prob)
        if not actions and all(done):
            break
        outcomes = sim.step_epoch(actions, wait="any")
        for out in outcomes:
            tr = tracks[out.agent]
            pol = behavior.policies[out.agent]
            tr.actions.append(out.action)
            tr.obs_us.append(out.observation_us)
            obin = observation_bin(out.observation_us, pol.n_obs_bins)
            tr.obs_bin.append(obin)
            tr.rewards.append(int(round(out.local_cumulative_reward)))
            nodes[out.agent] = transition_node(pol, nodes[out.agent],
                                               out.action, out.observation_us,
                                               rng)
    t_max = min(len(t.actions) for t in tracks)
    for tr in tracks:
        for name in TRACK_FIELDS:
            setattr(tr, name, getattr(tr, name)[:t_max])
    rewards = [sum(tr.rewards[t] for tr in tracks) for t in range(t_max)]
    return Episode(k=k, agents=tracks, rewards=rewards)


def _with_seed(config, seed):
    data = config.to_json()
    data["seed"] = int(seed)
    return type(config).from_json(data)


def collect(config, behavior, k_episodes, horizon, seed=0):
    """Collect k episodes of `horizon` decision epochs per agent.

    Per-episode seeds are spawned deterministically from the master seed,
    so the batch is reproducible and episodes are independent.
    """
    if k_episodes < 1 or horizon < 1:
        raise ValueError("need at least one episode and one epoch")
    children = np.random.SeedSequence(seed).spawn(k_episodes)
    return [_collect_episode(config, behavior, horizon, k, child)
            for k, child in enumerate(children)]


def save(episodes, path):
    """Write a batch as JSON lines, one episode per line."""
    with open(path, "w") as fh:
        for ep in episodes:
            agents = [{name: getattr(tr, name) for name in TRACK_FIELDS}
                      for tr in ep.agents]
            fh.write(json.dumps({"schema": SCHEMA, "k": ep.k,
                                 "agents": agents, "rewards": ep.rewards})
                     + "\n")


def load(path):
    """Read a JSON-lines episode batch; rejects empty or mismatched files."""
    episodes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") != SCHEMA:
                raise ValueError("unrecognized episode schema: %r"
                                 % record.get("schema"))
            agents = [AgentTrack(**{name: a[name] for name in TRACK_FIELDS})
                      for a in record["agents"]]
            episodes.append(Episode(k=record["k"], agents=agents,
                                    rewards=record["rewards"]))
    if not episodes:
        raise ValueError("no episodes in %s" % path)
    return episodes
