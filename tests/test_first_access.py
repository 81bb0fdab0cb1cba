"""The simulator's first access against a closed form.

Two Wi-Fi agents submit the same contention window CW at clock 0. The
channel is idle, so both DIFS windows pass, each agent draws a counter c
uniform on {0, ..., CW}, and both count down on one slot grid; let
n = CW + 1. The first transmission then starts at exactly
DIFS + slot (min c + 1). The winner's packet holds S whole slots. Each
reads clear to the other agent, which still needs r = |c1 - c2| clear
slots, with probability q1 = P(Binomial(slot, 1 - pe) <= 5): at most 5 of
its per-µs readings are busy. The other agent transmits into the packet,
and the first access is lost, exactly when c1 = c2 or Binomial(S, q1) >= r,
so P(loss) = 1/n + sum over a != b of P(Binomial(S, q1) >= |a - b|) / n^2.
At pe = 0 a slot never reads clear and P(loss) = 1/n.

The law is computed here with `math.comb` alone, sharing no code with the
simulator, and each case is one two-sided binomial test at alpha = 1e-3
over a fixed seed range.
"""

import math

import pytest
import scipy.stats

from specshare.simulator import CoexistenceSimulator, SimConfig

ALPHA = 1e-3


def first_accesses(cw, pe, seeds):
    """(start µs, smaller counter, lost) of the first transmission of two
    Wi-Fi agents that submit `cw` at clock 0, one per seed."""
    runs = []
    for seed in seeds:
        sim = CoexistenceSimulator(SimConfig(lte_count=0, wifi_count=2,
                                             pe=pe, seed=seed))
        outcomes = sim.step_epoch({0: cw, 1: cw})
        first = min(outcomes, key=lambda out: out.observation_us)
        runs.append((first.observation_us,
                     min(out.backoff_counter for out in outcomes),
                     first.payload_bits == 0))
    return runs


def loss_probability(cw, pe, cfg):
    """P(the first access is lost), from the closed form above."""
    n, slot = cw + 1, cfg.wifi_slot_us
    q1 = sum(math.comb(slot, i) * (1 - pe) ** i * pe ** (slot - i)
             for i in range(6))
    s = int(cfg.wifi_packet_us) // slot
    pmf = [math.comb(s, i) * q1 ** i * (1 - q1) ** (s - i)
           for i in range(s + 1)]
    tail = [sum(pmf[r:]) for r in range(n)]  # P(Binomial(S, q1) >= r)
    return 1 / n + 2 * sum((n - r) * tail[r] for r in range(1, n)) / n ** 2


def test_start_time_follows_the_smaller_counter():
    cfg = SimConfig(lte_count=0, wifi_count=2)
    for start, counter, _ in first_accesses(15, 0.0, range(2000)):
        assert start == cfg.difs_us + cfg.wifi_slot_us * (counter + 1)


@pytest.mark.parametrize("cw", [15, 31])
def test_loss_without_sensing_errors_is_a_counter_tie(cw):
    runs = first_accesses(cw, 0.0, range(4000))
    lost = sum(lost for *_, lost in runs)
    p = scipy.stats.binomtest(lost, len(runs), 1 / (cw + 1)).pvalue
    assert p >= ALPHA, (lost, len(runs))


@pytest.mark.parametrize("cw", [15, 63])
def test_loss_with_sensing_errors_follows_the_binomial_law(cw):
    pe = 0.05
    runs = first_accesses(cw, pe, range(6000))
    lost = sum(lost for *_, lost in runs)
    want = loss_probability(cw, pe, SimConfig(lte_count=0, wifi_count=2))
    p = scipy.stats.binomtest(lost, len(runs), want).pvalue
    assert p >= ALPHA, (lost, len(runs), want)
