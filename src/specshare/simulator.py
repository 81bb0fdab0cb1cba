"""Event-driven microsecond simulator of LTE-LAA and Wi-Fi agents
contending for a single 20 MHz unlicensed channel: the channel model and
its per-decision outcomes only (the episode record is in `trajectories`).

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

import bisect
import functools
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .distributions import check_discount, is_integer

CW_SET = (15, 31, 63, 127, 255, 511, 1023)
DEFAULT_LTE_BURST_MS = {15: 3, 31: 6, 63: 6, 127: 8, 255: 8, 511: 10, 1023: 10}
MAX_TX_MS = 10  # LAA's longest channel occupancy (3GPP TS 36.213 sec. 15)


def _require_int(name, value, least):
    if not is_integer(value):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be at least %d, got %d" % (name, least, value))


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
        for name, least in (("lte_count", 0), ("wifi_count", 0),
                            ("difs_us", 1), ("wifi_slot_us", 1),
                            ("icca_us", 1), ("ecca_slot_us", 1),
                            ("wifi_packet_bytes", 1), ("horizon", 1),
                            ("seed", 0)):
            _require_int(name, getattr(self, name), least)
        for name in ("rate_mbps", "gamma", "pe"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError("%s must be a number, got %r" % (name, value))
        if not 0.0 < self.rate_mbps < math.inf:
            raise ValueError("rate_mbps must be positive and finite")
        if not isinstance(self.cw_set, (list, tuple)) or not self.cw_set:
            raise ValueError("cw_set must be a non-empty list")
        if not isinstance(self.lte_burst_ms, dict):
            raise ValueError("lte_burst_ms must map contention windows to ms")
        for cw in self.cw_set:
            _require_int("cw_set entry", cw, 0)
        for cw, ms in self.lte_burst_ms.items():
            if not re.fullmatch(r"0|-?[1-9][0-9]*", str(cw)):
                raise ValueError("lte_burst_ms key %r is not an integer in "
                                 "plain decimal" % (cw,))
            _require_int("lte_burst_ms[%s]" % cw, ms, 1)
        self.cw_set = tuple(int(c) for c in self.cw_set)
        self.lte_burst_ms = {int(k): int(v) for k, v in self.lte_burst_ms.items()}
        if self.lte_count + self.wifi_count < 1:
            raise ValueError("need at least one agent")
        if list(self.cw_set) != sorted(set(self.cw_set)):
            raise ValueError("cw_set must be strictly increasing")
        check_discount(self.gamma)
        if not 0.0 <= self.pe < 1.0:
            raise ValueError("pe must be in [0, 1)")
        if any(cw not in self.lte_burst_ms for cw in self.cw_set):
            raise ValueError("lte_burst_ms must cover every contention window")
        if max(self.lte_burst_ms.values()) > MAX_TX_MS \
                or self.wifi_packet_us > 1000 * MAX_TX_MS:
            raise ValueError("an LTE burst or Wi-Fi packet may last at most "
                             "%d ms" % MAX_TX_MS)
        if round(self.wifi_packet_us) < 1:
            raise ValueError("a Wi-Fi packet must last at least 1 us, got "
                             "%g us" % self.wifi_packet_us)

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
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object, not %s"
                             % type(data).__name__)
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(unknown))
        missing = sorted({"lte_count", "wifi_count"} - set(data))
        if missing:
            raise ValueError("missing config keys: %s" % ", ".join(missing))
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class DecisionOutcome:
    agent: int
    action: int
    backoff_counter: int
    observation_us: int
    payload_bits: float
    tx_duration_us: int
    throughput_mbps: float
    jain: float
    local_cumulative_reward: float
    completed_at_us: int


def backoff_counter(cw, rng, cw_set=CW_SET):
    """Uniform back-off counter from [0, cw]."""
    if cw not in cw_set:
        raise ValueError("unknown contention window %r" % (cw,))
    return int(rng.integers(0, cw + 1))


@functools.lru_cache(maxsize=256)
def slot_clear_probability(slot_us, pe, transmitters):
    """P(a back-off slot is clear) at constant occupancy: at most 5 of its
    slot_us readings are busy, each busy w.p. 1 - pe**transmitters."""
    busy = 1.0 - pe ** transmitters
    return min(1.0, sum(math.comb(slot_us, i) * busy ** i
                        * (1.0 - busy) ** (slot_us - i)
                        for i in range(min(slot_us, 5) + 1)))


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
    x = [float(v) for v in x]
    if not x:
        raise ValueError("need at least one allocation")
    # left-to-right sums, which equal numpy's below 8 terms; sum() is not
    # used because from Python 3.12 it compensates float rounding
    total = total_sq = 0.0
    for v in x:
        if v < 0.0:
            raise ValueError("allocations must be non-negative")
        total += v
        total_sq += v * v
    if total_sq == 0.0:
        return 1.0
    return total * total / (len(x) * total_sq)


def local_reward(previous, throughput, jain):
    """Cumulative local reward r_t = r_{t-1} + ln(|J * Th| + 1)."""
    return previous + math.log(abs(jain * throughput) + 1.0)


# agent phases
_WAIT_ACTION = "wait_action"
_INITIAL = "initial"
_WAIT_IDLE = "wait_idle"
_BACKOFF = "backoff"
_TRANSMIT = "transmit"

# an empty event slot; it sorts after every event
_NO_EVENT = (math.inf, 0, None, None)


class _AgentState:
    __slots__ = ("kind", "phase", "action", "counter", "remaining",
                 "epoch_start", "cum_reward", "last_share",
                 "tx_start", "init_dur", "slot_us", "clear", "run_start",
                 "run_q")

    def __init__(self, kind, init_dur, slot_us, clear):
        self.kind = kind
        self.init_dur = init_dur
        self.slot_us = slot_us
        self.clear = clear  # per occupancy, P(a back-off slot is clear)
        self.phase = _WAIT_ACTION
        self.action = None
        self.counter = 0
        self.remaining = 0
        self.epoch_start = 0
        self.cum_reward = 0.0
        self.last_share = 0.0
        self.tx_start = 0
        # back-off run: slots counted from run_start, each clear with
        # probability run_q (None: one exact slot)
        self.run_start = 0
        self.run_q = None


class CoexistenceSimulator:
    """One shared channel, N = lte_count + wifi_count contending agents."""

    def __init__(self, config):
        self.config = cfg = config
        self.clock = 0
        self.rng = np.random.default_rng(cfg.seed)
        occupancies = range(cfg.agent_count + 1)
        timing = {"lte": (cfg.icca_us, cfg.ecca_slot_us),
                  "wifi": (cfg.difs_us, cfg.wifi_slot_us)}
        clear = {kind: [slot_clear_probability(slot_us, cfg.pe, m)
                        for m in occupancies]
                 for kind, (_, slot_us) in timing.items()}
        self.agents = [_AgentState(kind, *timing[kind], clear[kind])
                       for kind in map(cfg.agent_kind, range(cfg.agent_count))]
        # per occupancy, P(one per-us reading is busy)
        self._busy = [1.0 - cfg.pe ** m for m in occupancies]
        # sensing windows judged and, of them, failed (`_window_all_idle`
        # and the retries of `_retry_sensing`)
        self.windows_judged = self.windows_failed = 0
        # each agent's one live event, (time, seq, agent, kind), or _NO_EVENT
        self._events = [_NO_EVENT] * cfg.agent_count
        self._seq = 0
        # the transmitter count as a step function: (time, transmitters
        # from then on), one step per transmission start and end
        self._steps = [(0, 0)]
        # no transmission outlasts MAX_TX_MS and no read looks back further
        # than one, or one sensing window: completions drop older steps
        self._reach = max(1000 * MAX_TX_MS, cfg.icca_us, cfg.difs_us,
                          cfg.ecca_slot_us, cfg.wifi_slot_us)

    # -- public inspection ------------------------------------------------

    @property
    def occupancy(self):
        """Number of agents currently transmitting (global state value)."""
        return self._steps[-1][1]

    def pending_agents(self):
        return [n for n, st in enumerate(self.agents) if st.phase == _WAIT_ACTION]

    # -- occupancy bookkeeping --------------------------------------------

    def _segments(self, t0, t1):
        """(length, transmitters) pieces of [t0, t1), cut at every
        transmission start and end inside it, also where the count does not
        change (one transmission ends as another starts)."""
        steps = self._steps
        if t0 >= steps[-1][0]:  # after the last start or end
            return [(t1 - t0, steps[-1][1])]
        i = bisect.bisect(steps, (t0, math.inf)) - 1  # the step in effect
        segs = []
        start, m = t0, steps[i][1]
        for time, count in steps[i + 1:]:
            if time >= t1:
                break
            if time > start:
                segs.append((time - start, m))
                start = time
            m = count
        segs.append((t1 - start, m))
        return segs

    def _busy_readings(self, t0, t1):
        """Sampled count of busy per-us readings over [t0, t1)."""
        # at pe == 0 every reading is busy; binomial(n, 1.0) would still draw
        certain, p_busy = self.config.pe == 0.0, self._busy
        binomial = self.rng.binomial
        busy = 0
        for length, m in self._segments(t0, t1):
            if m == 0:
                continue
            if certain:
                busy += length
            else:
                busy += int(binomial(length, p_busy[m]))
        return busy

    def _window_all_idle(self, t0, t1):
        """Whether every per-us reading over [t0, t1) came back idle."""
        pe = self.config.pe
        self.windows_judged += 1
        for length, m in self._segments(t0, t1):
            if m == 0:
                continue
            p_all = (pe ** m) ** length
            if p_all == 0.0 or self.rng.random() >= p_all:
                self.windows_failed += 1
                return False
        return True

    # -- event machinery ---------------------------------------------------

    def _push(self, time, agent, kind):
        """Make (time, kind) agent's one live event, replacing any other."""
        self._seq += 1
        self._events[agent] = (time, self._seq, agent, kind)

    def _occupancy_changed(self, now, change):
        self._steps.append((now, self._steps[-1][1] + change))
        # re-derive wait-idle waits and back-off runs; both are memoryless
        for n, st in enumerate(self.agents):
            if st.phase == _WAIT_IDLE:
                self._schedule_wait_idle(n, now)
            elif st.phase == _BACKOFF and self._events[n][0] != now:
                done, into = divmod(now - st.run_start, st.slot_us)
                if st.run_q == 1.0:
                    st.remaining -= done  # every finished slot was clear
                self._schedule_slot(n, now - into, exact=into > 0)

    def _schedule_wait_idle(self, agent, now):
        pe = self.config.pe
        m = self.occupancy
        if m == 0:
            self._push(now + 1, agent, "idle_found")
            return
        p_idle = pe ** m
        if p_idle == 0.0:
            self._events[agent] = _NO_EVENT  # the next change reschedules
            return
        wait = int(self.rng.geometric(p_idle))
        self._push(now + wait, agent, "idle_found")

    def _start_initial(self, agent, now):
        st = self.agents[agent]
        st.phase = _INITIAL
        self._push(now + st.init_dur, agent, "initial_end")

    def _start_transmission(self, agent, now):
        st = self.agents[agent]
        cfg = self.config
        if st.kind == "wifi":
            dur = int(round(cfg.wifi_packet_us))
        else:
            dur = cfg.lte_burst_ms[st.action] * 1000
        st.phase = _TRANSMIT
        st.tx_start = now
        self._push(now + dur, agent, "tx_end")
        self._occupancy_changed(now, 1)

    def _complete_transmission(self, agent, now):
        st = self.agents[agent]
        cfg = self.config
        # a transmission is a run of units, the whole Wi-Fi packet or 1 ms
        # LTE sub-frames; a unit delivers its bits unless the count reaches
        # two, this transmission and another, somewhere in it
        unit, bits = ((now - st.tx_start, cfg.wifi_packet_bytes * 8.0)
                      if st.kind == "wifi" else (1000, 1000.0 * cfg.rate_mbps))
        lost, t = set(), 0  # t: us into the transmission
        for length, m in self._segments(st.tx_start, now):
            if m > 1:
                lost.update(range(t // unit, (t + length - 1) // unit + 1))
            t += length
        payload = 0.0
        for _ in range(t // unit - len(lost)):
            payload += bits  # per unit: bits * n may round differently
        duration = now - st.epoch_start
        th = effective_throughput(payload, duration)
        fair_share = cfg.rate_mbps / cfg.agent_count
        shares = [a.last_share for a in self.agents]
        shares[agent] = th / fair_share
        j_index = jain_index(shares)
        st.cum_reward += local_reward(0.0, th, j_index)
        st.last_share = th / fair_share
        outcome = DecisionOutcome(
            agent=agent,
            action=st.action,
            backoff_counter=st.counter,
            observation_us=int(st.tx_start - st.epoch_start),
            payload_bits=payload,
            tx_duration_us=int(duration),
            throughput_mbps=th,
            jain=j_index,
            local_cumulative_reward=st.cum_reward,
            completed_at_us=now,
        )
        st.phase = _WAIT_ACTION
        self._occupancy_changed(now, -1)
        # keep the step in effect at now - _reach and every later one
        first = bisect.bisect(self._steps, (now - self._reach, math.inf)) - 1
        del self._steps[:max(first, 0)]
        return outcome

    def _handle(self, time, agent, kind):
        """Run the agent's event `kind` at `time`; a `DecisionOutcome` when
        it ends an access attempt, else None. A failed sensing window is
        retried inline (`_retry_sensing`)."""
        st = self.agents[agent]
        if kind == "slot_end":
            if st.run_q == 1.0:
                st.remaining = 0
            elif st.run_q is not None \
                    or self._busy_readings(time - st.slot_us, time) <= 5:
                st.remaining -= 1  # the run's clear slot, or a judged one
            if st.remaining == 0:
                self._start_transmission(agent, time)
                return None
            self._schedule_slot(agent, time)
        elif kind == "initial_end":
            if not self._window_all_idle(time - st.init_dur, time):
                time = self._retry_sensing(agent, time)
                if time is None:
                    return None
            st.phase = _BACKOFF
            st.counter = backoff_counter(st.action, self.rng,
                                         self.config.cw_set)
            st.remaining = st.counter + 1
            self._schedule_slot(agent, time)
        elif kind == "tx_end":
            return self._complete_transmission(agent, time)
        elif kind == "idle_found":
            self._start_initial(agent, time)
        return None

    def _retry_sensing(self, agent, time):
        """Retry the agent's sensing window that failed at `time` without a
        return to `step_epoch`: the end of the first retried window that is
        idle, or None once a retry's next event is not strictly before every
        other agent's live event; that event is then pushed.

        `step_epoch` would run the retry's events next (on a tie the other
        event goes first, having the smaller sequence number), and until
        then no transmission starts or ends, so the occupancy m holds. A
        cycle is an `idle_found` after a Geometric(pe**m) wait (1 us at
        m == 0, no draw) and an `initial_end` whose window is idle with
        probability (pe**m)**init_dur, one `rng.random()` unless that is 0.0
        (certain at m == 0): the draws of `_schedule_wait_idle` and
        `_window_all_idle`, in their order. At pe**m == 0.0 no reading is
        idle, and the agent waits for the next change.
        """
        st = self.agents[agent]
        horizon = min(self._events)[0]  # this agent's slot is empty
        m = self._steps[-1][1]
        p_idle = self.config.pe ** m
        st.phase = _WAIT_IDLE
        if p_idle == 0.0:
            return None  # the slot stays empty
        init_dur, p_all = st.init_dur, p_idle ** st.init_dur
        geometric, uniform = self.rng.geometric, self.rng.random
        judged = 0
        while True:
            idle = time + 1 if m == 0 else time + int(geometric(p_idle))
            if not idle < horizon:
                self._push(idle, agent, "idle_found")
                break
            time = idle + init_dur
            if not time < horizon:
                st.phase = _INITIAL
                self._push(time, agent, "initial_end")
                break
            judged += 1
            if m == 0 or (p_all != 0.0 and uniform() < p_all):
                self.windows_judged += judged
                self.windows_failed += judged - 1
                return time
        self.windows_judged += judged
        self.windows_failed += judged
        return None

    def _schedule_slot(self, agent, start, exact=False):
        """Push the event of the next slot from `start` that can decrement
        the counter. Until occupancy changes each slot is clear w.p. q, so a
        geometric number of slots is skipped (all remaining ones if q == 1);
        an exact slot, one that straddles a change, is judged as it ends."""
        st = self.agents[agent]
        st.run_start = start
        st.run_q = q = None if exact else st.clear[self._steps[-1][1]]
        if q is None:
            slots = 1
        elif q == 1.0:
            slots = st.remaining
        elif q > 0.0:
            slots = int(self.rng.geometric(q))
        else:
            self._events[agent] = _NO_EVENT  # the next change reschedules
            return
        self._push(start + st.slot_us * slots, agent, "slot_end")

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
        waiting = set(actions)
        until_all = wait == "all"
        # only a completion ends an attempt, and one ends a wait="any" run
        until_any = wait == "any" and any(st.phase != _WAIT_ACTION
                                          for st in self.agents)
        events, handle, outcomes = self._events, self._handle, []
        while (until_all and waiting) or (until_any and not outcomes):
            time, _, agent, kind = min(events)
            if agent is None:
                raise RuntimeError("event queue drained with pending attempts")
            events[agent] = _NO_EVENT
            self.clock = time
            out = handle(time, agent, kind)
            if out is not None:
                outcomes.append(out)
                waiting.discard(out.agent)
        return outcomes
