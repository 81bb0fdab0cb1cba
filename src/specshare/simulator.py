"""Event-driven microsecond simulator of LTE-LAA and Wi-Fi agents
contending for a single 20 MHz unlicensed channel.

Agents follow listen-before-talk: an initial sensing window (DIFS for Wi-Fi,
ICCA for LTE), then slotted back-off sensing with a counter drawn uniformly
from [0, CW]. Each back-off slot is 9 us and is judged clear when at most 5
of its 9 per-us readings are busy; a transmitting agent is misread as idle
with probability pe independently per reading. Overlapping transmissions
lose the overlapped Wi-Fi packet or LTE sub-frame.

Agents act asynchronously: a new decision epoch for an agent starts when its
previous transmission ends. One submitted contention-window action covers
one full access attempt (sense, back off, transmit).
"""

import heapq
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

CW_SET = (15, 31, 63, 127, 255, 511, 1023)
DEFAULT_LTE_BURST_MS = {15: 3, 31: 6, 63: 6, 127: 8, 255: 8, 511: 10, 1023: 10}


@dataclass
class SimConfig:
    lte_count: int
    wifi_count: int
    difs_us: int = 34
    wifi_slot_us: int = 9
    icca_us: int = 43
    ecca_slot_us: int = 9
    cw_set: tuple = CW_SET
    lte_burst_ms: dict = field(default_factory=lambda: dict(DEFAULT_LTE_BURST_MS))
    wifi_packet_bytes: int = 15000
    rate_mbps: float = 30.0
    gamma: float = 0.9
    pe: float = 0.05
    horizon: int = 50
    seed: int = 0

    def __post_init__(self):
        self.cw_set = tuple(int(c) for c in self.cw_set)
        self.lte_burst_ms = {int(k): int(v) for k, v in self.lte_burst_ms.items()}
        if self.lte_count < 0 or self.wifi_count < 0:
            raise ValueError("agent counts must be non-negative")
        if self.lte_count + self.wifi_count < 1:
            raise ValueError("need at least one agent")
        if list(self.cw_set) != sorted(set(self.cw_set)):
            raise ValueError("cw_set must be strictly increasing")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.pe < 1.0:
            raise ValueError("pe must be in [0, 1)")
        if any(cw not in self.lte_burst_ms for cw in self.cw_set):
            raise ValueError("lte_burst_ms must cover every contention window")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    @property
    def agent_count(self):
        return self.lte_count + self.wifi_count

    def agent_kind(self, agent):
        return "lte" if agent < self.lte_count else "wifi"

    @property
    def wifi_packet_us(self):
        # bits / (Mbps == bits per us)
        return self.wifi_packet_bytes * 8 / self.rate_mbps

    def to_json(self):
        d = asdict(self)
        d["cw_set"] = list(self.cw_set)
        d["lte_burst_ms"] = {str(k): v for k, v in self.lte_burst_ms.items()}
        return d

    @classmethod
    def from_json(cls, data):
        data = dict(data)
        if "lte_burst_ms" in data:
            data["lte_burst_ms"] = {int(k): int(v) for k, v in data["lte_burst_ms"].items()}
        if "cw_set" in data:
            data["cw_set"] = tuple(data["cw_set"])
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class DecisionOutcome:
    agent: int
    epoch: int
    action: int
    backoff_counter: int
    observation_us: int
    payload_bits: float
    tx_duration_us: int
    throughput_mbps: float
    jain: float
    reward_increment: float
    local_cumulative_reward: float
    completed_at_us: int


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

    @property
    def length(self):
        return len(self.rewards)


def backoff_counter(cw, rng, cw_set=CW_SET):
    """Uniform back-off counter from [0, cw]."""
    if cw not in cw_set:
        raise ValueError("unknown contention window %r" % (cw,))
    return int(rng.integers(0, cw + 1))


def effective_throughput(payload_bits, duration_us):
    """Delivered payload over access duration, in Mbps (bits per us)."""
    if duration_us <= 0:
        raise ValueError("duration must be positive")
    return payload_bits / duration_us


def jain_index(x):
    """Jain's fairness index of a non-negative allocation vector.

    Defined as 1 for the all-zero vector (start of an episode, before any
    agent has completed a transmission).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one allocation")
    if np.any(x < 0.0):
        raise ValueError("allocations must be non-negative")
    total_sq = float(np.sum(x * x))
    if total_sq == 0.0:
        return 1.0
    total = float(np.sum(x))
    return total * total / (x.size * total_sq)


def local_reward(previous, throughput, jain):
    """Cumulative local reward r_t = r_{t-1} + ln(|J * Th| + 1)."""
    return previous + math.log(abs(jain * throughput) + 1.0)


def global_reward(local_rewards):
    return float(np.sum(local_rewards))


# agent phases
_WAIT_ACTION = "wait_action"
_INITIAL = "initial"
_WAIT_IDLE = "wait_idle"
_BACKOFF = "backoff"
_TRANSMIT = "transmit"


class _AgentState:
    __slots__ = ("kind", "phase", "gen", "action", "counter", "remaining",
                 "epoch_start", "epoch", "cum_reward", "last_share",
                 "tx_start", "tx_end", "init_dur")

    def __init__(self, kind, init_dur):
        self.kind = kind
        self.init_dur = init_dur
        self.phase = _WAIT_ACTION
        self.gen = 0
        self.action = None
        self.counter = 0
        self.remaining = 0
        self.epoch_start = 0
        self.epoch = 0
        self.cum_reward = 0.0
        self.last_share = 0.0
        self.tx_start = 0
        self.tx_end = 0


class CoexistenceSimulator:
    """One shared channel, N = lte_count + wifi_count contending agents."""

    def __init__(self, config):
        self.config = config
        self.reset()

    def reset(self):
        cfg = self.config
        self.clock = 0
        self.rng = np.random.default_rng(cfg.seed)
        self.agents = []
        for n in range(cfg.agent_count):
            kind = cfg.agent_kind(n)
            init_dur = cfg.icca_us if kind == "lte" else cfg.difs_us
            self.agents.append(_AgentState(kind, init_dur))
        self._heap = []
        self._seq = 0
        self._tx_log = []   # (start, end, agent), pruned as time advances
        self._active_tx = 0
        self._outstanding = set()  # agents with a submitted, uncompleted attempt
        return self

    # -- public inspection ------------------------------------------------

    @property
    def occupancy(self):
        """Number of agents currently transmitting (global state value)."""
        return self._active_tx

    def pending_agents(self):
        return [n for n, st in enumerate(self.agents) if st.phase == _WAIT_ACTION]

    def sense_slot(self):
        """Sample one 9 us back-off sensing slot against current occupancy.

        Returns True when the slot is clear (at most 5 busy readings).
        """
        busy = self._busy_readings(self.clock, self.clock + self.config.ecca_slot_us,
                                   assume_current=True)
        return busy <= 5

    # -- occupancy bookkeeping --------------------------------------------

    def _segments(self, t0, t1):
        """Piecewise-constant transmitter counts over [t0, t1)."""
        points = {t0, t1}
        for s, e, _ in self._tx_log:
            if s < t1 and e > t0:
                points.add(max(s, t0))
                points.add(min(e, t1))
        cuts = sorted(points)
        segs = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = sum(1 for s, e, _ in self._tx_log if s <= a and e >= b)
            segs.append((b - a, m))
        return segs

    def _busy_readings(self, t0, t1, assume_current=False):
        """Sampled count of busy per-us readings over [t0, t1)."""
        pe = self.config.pe
        busy = 0
        if assume_current:
            segs = [(t1 - t0, self._active_tx)]
        else:
            segs = self._segments(t0, t1)
        for length, m in segs:
            if m == 0 or length == 0:
                continue
            if pe == 0.0:
                busy += length
            else:
                busy += int(self.rng.binomial(length, 1.0 - pe ** m))
        return busy

    def _window_all_idle(self, t0, t1):
        """Whether every per-us reading over [t0, t1) came back idle."""
        pe = self.config.pe
        for length, m in self._segments(t0, t1):
            if m == 0 or length == 0:
                continue
            p_all = (pe ** m) ** length
            if p_all == 0.0 or self.rng.random() >= p_all:
                return False
        return True

    def _prune_tx_log(self):
        horizon = self.clock - 200000
        if len(self._tx_log) > 64:
            self._tx_log = [t for t in self._tx_log if t[1] >= horizon]

    # -- event machinery ---------------------------------------------------

    def _push(self, time, agent, kind):
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, agent, kind, self.agents[agent].gen))

    def _occupancy_changed(self, now):
        # re-derive wait-idle candidates; geometric waits are memoryless
        for n, st in enumerate(self.agents):
            if st.phase == _WAIT_IDLE:
                st.gen += 1
                self._schedule_wait_idle(n, now)

    def _schedule_wait_idle(self, agent, now):
        pe = self.config.pe
        m = self._active_tx
        if m == 0:
            self._push(now + 1, agent, "idle_found")
            return
        p_idle = pe ** m
        if p_idle == 0.0:
            return  # next occupancy change will reschedule
        wait = int(self.rng.geometric(p_idle))
        self._push(now + wait, agent, "idle_found")

    def _start_initial(self, agent, now):
        st = self.agents[agent]
        st.phase = _INITIAL
        st.gen += 1
        self._push(now + st.init_dur, agent, "initial_end")

    def _start_transmission(self, agent, now):
        st = self.agents[agent]
        cfg = self.config
        if st.kind == "wifi":
            dur = int(round(cfg.wifi_packet_us))
        else:
            dur = cfg.lte_burst_ms[st.action] * 1000
        st.phase = _TRANSMIT
        st.gen += 1
        st.tx_start = now
        st.tx_end = now + dur
        self._tx_log.append((now, st.tx_end, agent))
        self._active_tx += 1
        self._push(st.tx_end, agent, "tx_end")
        self._occupancy_changed(now)

    def _complete_transmission(self, agent, now):
        st = self.agents[agent]
        cfg = self.config
        self._active_tx -= 1
        # payload surviving collisions
        if st.kind == "wifi":
            collided = any(a != agent and s < st.tx_end and e > st.tx_start
                           for s, e, a in self._tx_log)
            payload = 0.0 if collided else cfg.wifi_packet_bytes * 8.0
        else:
            payload = 0.0
            for j in range((st.tx_end - st.tx_start) // 1000):
                f0 = st.tx_start + 1000 * j
                f1 = f0 + 1000
                hit = any(a != agent and s < f1 and e > f0
                          for s, e, a in self._tx_log)
                if not hit:
                    payload += 1000.0 * cfg.rate_mbps
        duration = st.tx_end - st.epoch_start
        th = effective_throughput(payload, duration)
        fair_share = cfg.rate_mbps / cfg.agent_count
        shares = np.array([self.agents[i].last_share for i in range(cfg.agent_count)])
        shares[agent] = th / fair_share
        j_index = jain_index(shares)
        increment = local_reward(0.0, th, j_index)
        st.cum_reward += increment
        st.last_share = th / fair_share
        outcome = DecisionOutcome(
            agent=agent,
            epoch=st.epoch,
            action=st.action,
            backoff_counter=st.counter,
            observation_us=int(st.tx_start - st.epoch_start),
            payload_bits=payload,
            tx_duration_us=int(duration),
            throughput_mbps=th,
            jain=j_index,
            reward_increment=increment,
            local_cumulative_reward=st.cum_reward,
            completed_at_us=now,
        )
        st.epoch += 1
        st.phase = _WAIT_ACTION
        st.gen += 1
        self._occupancy_changed(now)
        self._prune_tx_log()
        return outcome

    def _handle(self, time, agent, kind):
        st = self.agents[agent]
        cfg = self.config
        if kind == "initial_end":
            if self._window_all_idle(time - st.init_dur, time):
                st.phase = _BACKOFF
                st.gen += 1
                st.counter = backoff_counter(st.action, self.rng, cfg.cw_set)
                st.remaining = st.counter + 1
                self._schedule_slot(agent, time)
            else:
                st.phase = _WAIT_IDLE
                st.gen += 1
                self._schedule_wait_idle(agent, time)
        elif kind == "idle_found":
            self._start_initial(agent, time)
        elif kind == "slot_end":
            slot = cfg.ecca_slot_us if st.kind == "lte" else cfg.wifi_slot_us
            if self._busy_readings(time - slot, time) <= 5:
                st.remaining -= 1
            if st.remaining == 0:
                self._start_transmission(agent, time)
                return None
            self._schedule_slot(agent, time)
        elif kind == "tx_end":
            return self._complete_transmission(agent, time)
        return None

    def _schedule_slot(self, agent, now):
        st = self.agents[agent]
        slot = self.config.ecca_slot_us if st.kind == "lte" else self.config.wifi_slot_us
        if self.config.agent_count == 1:
            # nothing can interrupt: all remaining slots are clear
            self._push(now + slot * st.remaining, agent, "slot_end")
            st.remaining = 1
        else:
            self._push(now + slot, agent, "slot_end")

    # -- stepping ------------------------------------------------------------

    def submit_action(self, agent, cw):
        st = self.agents[agent]
        if st.phase != _WAIT_ACTION:
            raise ValueError("agent %d is not awaiting an action" % agent)
        if cw not in self.config.cw_set:
            raise ValueError("action %r not in contention-window set" % (cw,))
        st.action = int(cw)
        st.epoch_start = self.clock
        self._start_initial(agent, self.clock)

    def step_epoch(self, actions, wait="all"):
        """Assign pending actions and advance the event clock.

        wait="all": run until every agent submitted in this call completes
        its access attempt. wait="any": run until at least one outstanding
        attempt (from this or an earlier call) completes. Returns the
        DecisionOutcomes emitted while advancing.
        """
        for agent, cw in sorted(actions.items()):
            self.submit_action(agent, cw)
            self._outstanding.add(agent)
        waiting = set(actions)
        outcomes = []
        while ((wait == "all" and waiting)
               or (wait == "any" and not outcomes and self._outstanding)):
            if not self._heap:
                raise RuntimeError("event queue drained with pending attempts")
            time, _, agent, kind, gen = heapq.heappop(self._heap)
            if gen != self.agents[agent].gen:
                continue
            self.clock = time
            out = self._handle(time, agent, kind)
            if out is not None:
                outcomes.append(out)
                waiting.discard(out.agent)
                self._outstanding.discard(out.agent)
        return outcomes
