"""The episode record (`Episode`, one `AgentTrack` per agent), its JSON-lines
file format (`save`, `load`) and epsilon-greedy collection over a proper
controller (`collect`), the only part that runs, and so imports, the channel
simulator. The exact mixture probability of every taken action is stored
with it, so importance ratios stay finite downstream.
"""

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .distributions import is_number, is_number_list
from .fsc import draw, initial_node, observation_bin, transition_node


@dataclass
class AgentTrack:
    """Per-agent record of one episode."""
    actions: list = field(default_factory=list)
    obs_us: list = field(default_factory=list)
    obs_bin: list = field(default_factory=list)
    pi_behavior: list = field(default_factory=list)
    rewards: list = field(default_factory=list)  # cumulative, rounded


@dataclass
class Episode:
    k: int
    agents: list
    rewards: list  # global cumulative reward per epoch index


SCHEMA = "specshare-episodes-v1"
TRACK_FIELDS = tuple(f.name for f in fields(AgentTrack))
INTEGER_FIELDS = ("actions", "obs_us", "obs_bin")  # the rest hold numbers


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
        idx = draw(pol.pi_cdf[node], rng)
    prob = behavior.epsilon / n_actions \
        + (1.0 - behavior.epsilon) * float(pol.pi[node, idx])
    return pol.action_set[idx], prob


def _collect_episode(config, behavior, horizon, k, seed):
    from .simulator import CoexistenceSimulator
    rng = np.random.default_rng(seed)
    sim = CoexistenceSimulator(replace(config, seed=int(rng.integers(2 ** 31))))
    n = config.agent_count
    nodes = [initial_node(behavior.policies[i], rng) for i in range(n)]
    tracks = [AgentTrack() for _ in range(n)]
    # no agent acts past the horizon, so each outcome is one of these
    remaining = n * horizon
    while remaining:
        actions = {}
        for agent in sim.pending_agents():
            if len(tracks[agent].actions) >= horizon:
                continue
            action, prob = behavior_action(behavior, agent, nodes[agent], rng)
            actions[agent] = action
            tracks[agent].pi_behavior.append(prob)
        outcomes = sim.step_epoch(actions, wait="any")
        remaining -= len(outcomes)
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
    rewards = [sum(tr.rewards[t] for tr in tracks) for t in range(horizon)]
    return Episode(k=k, agents=tracks, rewards=rewards)


def collect(config, behavior, k_episodes, horizon, seed=0):
    """Collect k episodes of `horizon` decision epochs per agent.

    Per-episode seeds are spawned deterministically from the master seed,
    so the batch is reproducible and episodes are independent. The
    behaviour needs exactly one policy per agent of the config, each
    acting only in the config's contention-window set.
    """
    if k_episodes < 1 or horizon < 1:
        raise ValueError("need at least one episode and one epoch")
    if len(behavior.policies) != config.agent_count:
        raise ValueError("%d policies for %d agents"
                         % (len(behavior.policies), config.agent_count))
    for n, pol in enumerate(behavior.policies):
        outside = [a for a in pol.action_set if a not in config.cw_set]
        if outside:
            raise ValueError("policy %d: action_set entries %s are not in "
                             "the config's cw_set" % (n, outside))
    children = np.random.SeedSequence(seed).spawn(k_episodes)
    return [_collect_episode(config, behavior, horizon, k, child)
            for k, child in enumerate(children)]


def save(episodes, path):
    """Write a batch as JSON lines, one episode per line; a track's fields
    keep `AgentTrack`'s order, as its instance dict does."""
    with open(path, "w") as fh:
        for ep in episodes:
            fh.write(json.dumps({"schema": SCHEMA, "k": ep.k, "agents": [
                vars(tr) for tr in ep.agents], "rewards": ep.rewards}) + "\n")


def load(path):
    """Read a JSON-lines episode batch; ValueError, naming the line, for an
    empty file or a record that `_episode` rejects."""
    episodes = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                episodes.append(_episode(json.loads(line)))
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, n, exc)) from None
    if not episodes:
        raise ValueError("no episodes in %s" % path)
    return episodes


def _episode(record):
    """An Episode from a record: an object of the schema with an integer k,
    whose agents are a non-empty list of objects; rewards and each agent's
    track fields are lists of numbers, of integers for `INTEGER_FIELDS`."""
    if not isinstance(record, dict):
        raise ValueError("an episode record must be a JSON object")
    if record.get("schema") != SCHEMA:
        raise ValueError("unrecognized episode schema: %r"
                         % record.get("schema"))
    k = record.get("k")
    if not is_number(k, count=True):
        raise ValueError("k must be an integer")
    agents = record.get("agents")
    if not (isinstance(agents, list) and agents
            and all(isinstance(a, dict) for a in agents)):
        raise ValueError("agents must be a non-empty list of objects")
    tracks = [(name, a.get(name)) for a in agents for name in TRACK_FIELDS]
    for name, value in tracks + [("rewards", record.get("rewards"))]:
        count = name in INTEGER_FIELDS
        if not is_number_list(value, count):
            raise ValueError("%s must be a list of %s"
                             % (name, "integers" if count else "numbers"))
    return Episode(k=k, rewards=record["rewards"], agents=[
        AgentTrack(**{name: a[name] for name in TRACK_FIELDS}) for a in agents])
