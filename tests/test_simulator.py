import collections
import json
import math
import os

import numpy as np
import pytest
import scipy.stats

from specshare.cli import _uniform_behavior
from specshare.simulator import (CW_SET, MAX_TX_MS, CoexistenceSimulator,
                                 SimConfig, backoff_counter,
                                 effective_throughput, jain_index,
                                 local_reward, slot_clear_probability)
from specshare.trajectories import collect

from . import retry_reference, stepping_reference

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "data",
                              "stepping_reference.json")


def single_wifi(seed=0, pe=0.0):
    return SimConfig(lte_count=0, wifi_count=1, pe=pe, seed=seed)


class TestSimConfig:
    def test_defaults_match_channel_constants(self):
        cfg = SimConfig(lte_count=2, wifi_count=2)
        assert cfg.difs_us == 34 and cfg.icca_us == 43
        assert cfg.wifi_slot_us == 9 and cfg.ecca_slot_us == 9
        assert cfg.cw_set == (15, 31, 63, 127, 255, 511, 1023)
        assert cfg.lte_burst_ms[15] == 3 and cfg.lte_burst_ms[1023] == 10
        assert cfg.wifi_packet_us == pytest.approx(4000.0)
        assert cfg.agent_count == 4

    def test_json_round_trip(self, tmp_path):
        cfg = SimConfig(lte_count=1, wifi_count=3, pe=0.02, seed=11)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert SimConfig.load(path) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(lte_count=0, wifi_count=0)
        with pytest.raises(ValueError):
            SimConfig(lte_count=1, wifi_count=0, gamma=1.0)
        with pytest.raises(ValueError):
            SimConfig(lte_count=1, wifi_count=0, pe=1.0)
        with pytest.raises(ValueError):
            SimConfig(lte_count=1, wifi_count=0, cw_set=(31, 15))

    @pytest.mark.parametrize("key", [" 15", "015", "+15", "1_5", "-0", "x"])
    def test_burst_keys_are_plain_decimal_integers(self, key):
        # int() reads all but "x", so " 15" or "015" would replace 15's burst
        data = SimConfig(lte_count=1, wifi_count=1).to_json()
        data["lte_burst_ms"][key] = 9
        with pytest.raises(ValueError) as info:
            SimConfig.from_json(data)
        assert str(info.value) == ("lte_burst_ms key %r is not an integer "
                                   "in plain decimal" % key)

    def test_reset_state(self):
        sim = CoexistenceSimulator(SimConfig(lte_count=2, wifi_count=2))
        assert sim.clock == 0 and sim.occupancy == 0
        assert sim.pending_agents() == [0, 1, 2, 3]


class TestBackoffCounter:
    def test_uniform_mean(self):
        rng = np.random.default_rng(0)
        draws = [backoff_counter(15, rng) for _ in range(100000)]
        assert abs(np.mean(draws) - 7.5) < 0.1
        assert min(draws) == 0 and max(draws) == 15

    def test_reproducible(self):
        a = backoff_counter(15, np.random.default_rng(5))
        b = backoff_counter(15, np.random.default_rng(5))
        assert a == b

    def test_range_bound(self):
        rng = np.random.default_rng(1)
        assert all(backoff_counter(1023, rng) <= 1023 for _ in range(1000))

    def test_unknown_cw(self):
        with pytest.raises(ValueError):
            backoff_counter(16, np.random.default_rng(0))


class TestSenseSlot:
    """One exact 9 us sensing slot, as the back-off judges it: the slot is
    clear when at most 5 of its per-us readings come back busy."""

    @staticmethod
    def busy(sim):
        return sim._busy_readings(sim.clock, sim.clock + 9)

    def test_empty_channel_clear(self):
        sim = CoexistenceSimulator(single_wifi())
        assert self.busy(sim) == 0

    def test_one_transmitter_no_error_busy(self):
        sim = CoexistenceSimulator(single_wifi())
        sim._steps = [(0, 1)]
        assert self.busy(sim) == 9

    def test_error_prone_clear_probability(self):
        # one transmitter, pe = 0.5: slot clear iff busy readings <= 5,
        # i.e. idle readings >= 4 out of Binomial(9, 0.5)
        cfg = SimConfig(lte_count=0, wifi_count=1, pe=0.5, seed=2)
        sim = CoexistenceSimulator(cfg)
        sim._steps = [(0, 1)]
        n = 20000
        hits = sum(self.busy(sim) <= 5 for _ in range(n))
        p = 1.0 - scipy.stats.binom.cdf(3, 9, 0.5)  # P(idle readings >= 4)
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sd


class TestStepEpoch:
    def test_single_wifi_timing(self):
        for seed in range(50):
            sim = CoexistenceSimulator(single_wifi(seed=seed))
            out = sim.step_epoch({0: 15})[0]
            # initial sensing + one slot per counter step plus the final one
            assert out.observation_us == 34 + 9 * (out.backoff_counter + 1)
            assert out.payload_bits == 120000
            assert out.tx_duration_us == out.observation_us + 4000

    def test_single_lte_burst(self):
        sim = CoexistenceSimulator(SimConfig(lte_count=1, wifi_count=0, pe=0.0))
        out = sim.step_epoch({0: 15})[0]
        assert out.tx_duration_us - out.observation_us == 3000
        assert out.observation_us >= 43
        assert out.payload_bits == 3000 * 30

    def test_two_wifi_no_overlap_no_collision(self):
        # find a seed where the two counters differ enough that the loser
        # defers, then check both deliver full payloads
        for seed in range(100):
            sim = CoexistenceSimulator(
                SimConfig(lte_count=0, wifi_count=2, pe=0.0, seed=seed))
            outs = sim.step_epoch({0: 15, 1: 15})
            if len({o.agent for o in outs}) == 2 \
                    and all(o.payload_bits == 120000 for o in outs):
                return
        pytest.fail("no seed produced two clean transmissions")

    def test_rejects_unknown_action(self):
        sim = CoexistenceSimulator(single_wifi())
        with pytest.raises(ValueError):
            sim.step_epoch({0: 14})

    def test_rejects_an_action_for_an_agent_not_waiting(self):
        sim = CoexistenceSimulator(single_wifi())
        sim.submit_action(0, 15)
        assert sim.pending_agents() == []
        with pytest.raises(ValueError, match="agent 0 is not awaiting"):
            sim.submit_action(0, 15)

    def test_payload_bounded_by_channel_rate(self):
        sim = CoexistenceSimulator(
            SimConfig(lte_count=2, wifi_count=2, pe=0.05, seed=3))
        rng = np.random.default_rng(0)
        delivered = 0.0
        for _ in range(40):
            pending = sim.pending_agents()
            actions = {a: int(rng.choice(CW_SET)) for a in pending}
            for out in sim.step_epoch(actions):
                delivered += out.payload_bits
        assert delivered <= 30.0 * sim.clock

    def test_occupancy_within_bounds(self):
        sim = CoexistenceSimulator(
            SimConfig(lte_count=2, wifi_count=2, pe=0.05, seed=4))
        rng = np.random.default_rng(1)
        for _ in range(30):
            actions = {a: int(rng.choice(CW_SET)) for a in sim.pending_agents()}
            sim.step_epoch(actions)
            assert 0 <= sim.occupancy <= 4

    def test_outcomes_jain_in_bounds(self):
        cfg = SimConfig(lte_count=2, wifi_count=2, pe=0.05, seed=5)
        sim = CoexistenceSimulator(cfg)
        rng = np.random.default_rng(2)
        for _ in range(30):
            actions = {a: int(rng.choice(CW_SET)) for a in sim.pending_agents()}
            for out in sim.step_epoch(actions):
                assert 1.0 / cfg.agent_count - 1e-12 <= out.jain <= 1.0 + 1e-12

    def test_local_rewards_non_decreasing(self):
        sim = CoexistenceSimulator(
            SimConfig(lte_count=1, wifi_count=1, pe=0.05, seed=6))
        rng = np.random.default_rng(3)
        last = {}
        for _ in range(30):
            actions = {a: int(rng.choice(CW_SET)) for a in sim.pending_agents()}
            for out in sim.step_epoch(actions):
                prev = last.get(out.agent, 0.0)
                assert out.local_cumulative_reward >= prev - 1e-12
                last[out.agent] = out.local_cumulative_reward


class TestTransmissionLog:
    """The steps keep what a read can still reach, and a transmission is a
    run of units (the whole Wi-Fi packet, or 1 ms LTE sub-frames) of which
    each overlapped one delivers nothing."""

    def test_log_holds_only_entries_that_can_still_overlap(self):
        cfg = SimConfig(lte_count=2, wifi_count=2, seed=1)
        reach = max(1000 * MAX_TX_MS, cfg.icca_us, cfg.difs_us,
                    cfg.ecca_slot_us, cfg.wifi_slot_us)
        sim = CoexistenceSimulator(cfg)
        rng = np.random.default_rng(0)
        decisions = 0
        while decisions < 50 * cfg.agent_count:
            actions = {a: int(rng.choice(CW_SET)) for a in sim.pending_agents()}
            decisions += len(sim.step_epoch(actions, wait="any"))
            # every step_epoch call ends on a completion, which bounds the
            # steps: only the one in effect at clock - reach is older
            assert all(t > sim.clock - reach for t, _ in sim._steps[1:])
        assert sim.clock > 10 * reach

    @pytest.mark.parametrize("second_start, bits", [(9999, 0.0),
                                                    (10000, 300000.0)])
    def test_overlap_in_the_first_microsecond_collides(self, second_start,
                                                       bits):
        # 37,500 bytes at 30 Mbps is a 10 ms packet, the longest allowed;
        # the first packet completes, and prunes the steps, before the second
        sim = CoexistenceSimulator(SimConfig(lte_count=0, wifi_count=2,
                                             wifi_packet_bytes=37500, pe=0.0))
        sim._start_transmission(0, 0)
        sim._start_transmission(1, second_start)
        first = sim._complete_transmission(0, 10000)
        second = sim._complete_transmission(1, second_start + 10000)
        assert first.payload_bits == second.payload_bits == bits

    @pytest.mark.parametrize("wifi_starts, clear_subframes", [
        ((1000,), 10), ((1001,), 9), ((8000,), 6), ((8500,), 5),
        ((11000,), 6), ((1001, 11000), 5)])
    def test_lte_burst_loses_exactly_the_overlapped_subframes(
            self, wifi_starts, clear_subframes):
        # a 10 ms burst over [5000, 15000) and 4 ms Wi-Fi packets, started
        # and completed in time order, as the event loop does
        sim = CoexistenceSimulator(SimConfig(lte_count=1, pe=0.0,
                                             wifi_count=len(wifi_starts)))
        sim.agents[0].action = 1023
        events = [(5000, "start", 0), (15000, "end", 0)]
        for agent, start in enumerate(wifi_starts, 1):
            events += [(start, "start", agent), (start + 4000, "end", agent)]
        payloads = {}
        for time, kind, agent in sorted(events):
            if kind == "start":
                sim._start_transmission(agent, time)
            else:
                payloads[agent] = \
                    sim._complete_transmission(agent, time).payload_bits
        assert payloads[0] == clear_subframes * 30000.0


def interval_segments(intervals, t0, t1):
    """The transmission-log reading of [t0, t1): cut at every start and end
    inside it, each piece counting the (start, end) intervals covering it."""
    cuts = sorted({t0, t1} | {t for span in intervals for t in span
                              if t0 < t < t1})
    return [(b - a, sum(1 for s, e in intervals if s <= a and e >= b))
            for a, b in zip(cuts[:-1], cuts[1:])]


class TestSegments:
    """The step function reads every window as the interval list does."""

    @pytest.mark.parametrize("end_first", [True, False])
    def test_back_to_back_transmissions_are_two_pieces(self, end_first):
        sim = CoexistenceSimulator(SimConfig(lte_count=0, wifi_count=2))
        sim._start_transmission(0, 0)
        handoff = [(sim._complete_transmission, 0),
                   (sim._start_transmission, 1)]
        for call, agent in handoff if end_first else handoff[::-1]:
            call(agent, 4000)
        assert sim._segments(2000, 6000) == [(2000, 1), (2000, 1)]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_starts_and_completions_match_the_intervals(self, seed):
        # starts and ends on a 1 ms grid, so many coincide, over several
        # reaches, so completions prune; ties run in random order
        cfg = SimConfig(lte_count=2, wifi_count=2)
        sim = CoexistenceSimulator(cfg)
        rng = np.random.default_rng(seed)
        events = []
        for agent in range(cfg.agent_count):
            t = 1000 * int(rng.integers(0, 5))
            while t < 60000:
                cw = int(rng.choice(cfg.cw_set))
                dur = (cfg.lte_burst_ms[cw] * 1000 if agent < cfg.lte_count
                       else int(round(cfg.wifi_packet_us)))
                events += [(t, rng.random(), "start", agent, cw, t + dur),
                           (t + dur, rng.random(), "end", agent, cw, None)]
                t += dur + 1000 * int(rng.integers(1, 4))
        intervals = []
        for now, _, kind, agent, cw, end in sorted(events):
            if kind == "start":
                sim.agents[agent].action = cw
                sim._start_transmission(agent, now)
                intervals.append((now, end))
            else:
                sim._complete_transmission(agent, now)
            for _ in range(3):
                t0, t1 = sorted(int(x) for x in rng.integers(
                    max(0, now - sim._reach), now + 1, size=2))
                if rng.random() < 0.5:  # on the grid, where steps are
                    t0, t1 = 1000 * (t0 // 1000), 1000 * -(-t1 // 1000)
                if t0 < t1 <= now and t0 >= now - sim._reach:
                    assert sim._segments(t0, t1) == \
                        interval_segments(intervals, t0, t1), (now, t0, t1)


class TestRewardFunctions:
    def test_effective_throughput(self):
        assert effective_throughput(120000, 4500) == pytest.approx(26.666666666666668)
        assert effective_throughput(0.0, 100) == 0.0
        assert effective_throughput(30.0 * 1234, 1234) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            effective_throughput(1.0, 0)

    def test_jain_index(self):
        assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_index([7.3]) == pytest.approx(1.0)
        assert jain_index([0.0, 0.0]) == 1.0  # defined start-of-episode value
        with pytest.raises(ValueError, match="non-negative"):
            jain_index([-1.0, 1.0])
        with pytest.raises(ValueError, match="at least one"):
            jain_index([])

    @pytest.mark.parametrize("n", range(1, 18))
    def test_jain_index_matches_numpy_sums(self, n):
        # the numpy form it replaced: numpy sums fewer than 8 terms left to
        # right, as jain_index does, and more pairwise, so from 8 terms the
        # two may differ by the rounding of the sums
        rng = np.random.default_rng(n)
        rel = 0.0 if n < 8 else 3 * (n - 1) * np.finfo(float).eps
        for _ in range(300):
            x = rng.uniform(0.0, n, size=n)
            x[rng.random(n) < 0.2] = 0.0
            if not x.any():
                continue
            total = float(np.sum(x))
            expected = total * total / (n * float(np.sum(x * x)))
            assert jain_index(x.tolist()) == pytest.approx(expected, rel=rel,
                                                           abs=0.0)

    def test_local_reward(self):
        assert local_reward(0.0, 0.0, 1.0) == 0.0
        assert local_reward(0.0, 1.0, 1.0) == pytest.approx(math.log(2.0))
        r1 = local_reward(local_reward(0.0, 1.0, 1.0), 1.0, 1.0)
        assert r1 == pytest.approx(2 * math.log(2.0))


class TestSlotSkipping:
    """Frozen back-off slots are skipped in one geometric draw; these pin
    the skipping to the per-slot stepping it replaced."""

    @pytest.mark.parametrize("slot_us", [6, 9, 12])
    @pytest.mark.parametrize("pe", [0.0, 0.05, 0.5])
    def test_clear_probability_is_binomial_cdf(self, slot_us, pe):
        for m in range(5):
            expected = scipy.stats.binom.cdf(5, slot_us, 1.0 - pe ** m)
            assert slot_clear_probability(slot_us, pe, m) == \
                pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("case", sorted(stepping_reference.HASH_CASES))
    def test_collect_files_match_per_slot_stepping(self, case, tmp_path):
        # these runs draw no randomness per slot, so skipping must leave
        # the random-number stream and every file byte-identical
        with open(REFERENCE_PATH) as fh:
            ref = json.load(fh)["hashes"][case]
        got = [stepping_reference.collect_hash(ref["config"], seed, str(tmp_path))
               for seed in ref["seeds"]]
        assert got == ref["sha256"]

    def test_events_per_decision(self, monkeypatch):
        # `_handle` runs the events `step_epoch` hands it and the sensing
        # retries it runs inline; every sensing window but the first of each
        # decision follows an idle_found, and every initial_end judges one
        handled, sims = collections.Counter(), set()
        original = CoexistenceSimulator._handle

        def counting(self, time, agent, kind):
            handled[kind] += 1
            sims.add(self)
            return original(self, time, agent, kind)

        monkeypatch.setattr(CoexistenceSimulator, "_handle", counting)
        config = SimConfig(lte_count=2, wifi_count=2)
        episodes = collect(config, _uniform_behavior(config, 0.9), 1, 50,
                           seed=3)
        decisions = sum(len(tr.actions) for tr in episodes[0].agents)
        assert decisions == 200
        (sim,) = sims
        # every attempt ends, so its last window is its one that succeeded
        assert sim.windows_failed == sim.windows_judged - decisions
        events = (handled["slot_end"] + handled["tx_end"]
                  + sim.windows_judged - decisions + sim.windows_judged)
        # per-slot stepping took about 1,800 events per decision
        assert events / decisions < 60
        # the live events handled or run inline; a dropped or duplicated
        # event changes the count
        assert events == 5151
        # most failed windows are retried inline
        assert sum(handled.values()) == 1950

    @pytest.mark.parametrize("case", sorted(stepping_reference.DIST_CASES))
    def test_matches_per_slot_stepping_in_distribution(self, case):
        # chi-square homogeneity per quantity and agent kind against the
        # per-slot reference, on episode seeds disjoint from it
        alpha = 1e-3
        with open(REFERENCE_PATH) as fh:
            ref = json.load(fh)["distributions"][case]
        first_seed = ref["first_seed"] + 100000
        samples = stepping_reference.sample(ref["config"], ref["episodes"],
                                            ref["horizon"], first_seed)
        failures = []
        for kind, quantities in ref["counts"].items():
            for name, rec in quantities.items():
                new = stepping_reference.bin_counts(samples[kind][name],
                                                    rec["edges"])
                table = np.array([rec["counts"], new])
                table = table[:, table.sum(axis=0) > 0]
                p = scipy.stats.chi2_contingency(table).pvalue
                if p < alpha:
                    failures.append((kind, name, p, table.tolist()))
        assert not failures


class TestInlineRetries:
    @pytest.mark.parametrize("case", sorted(retry_reference.CASES))
    def test_match_retrying_one_window_at_a_time(self, case):
        # the same draws in the same order: every outcome and window count
        # is equal, not only equal in distribution
        for seed in range(10):
            fast = retry_reference.run(CoexistenceSimulator, case, seed, 200)
            one_by_one = retry_reference.run(retry_reference.RetryReference,
                                             case, seed, 200)
            assert fast == one_by_one, (case, seed)
