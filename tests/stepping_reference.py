"""Reference samples of the simulator's back-off stepping.

Records, for whichever `specshare` is on the import path:

- the SHA-256 of `collect` files for runs whose stepping draws no per-slot
  randomness (a single agent, or one agent of each kind at pe = 0);
- binned counts of the back-off counter and `observation_us` of every
  decision, and of the number of zero-payload decisions in each episode,
  per agent kind, for two contended scenarios. Collisions come in bursts
  within an episode, so zero-payload decisions are counted per episode,
  which keeps the samples independent.

`tests/data/stepping_reference.json` was written with the per-slot stepping
of commit ca446f2, the last one before frozen back-off slots were skipped.
`tests/test_simulator.py` checks the current simulator against it. To
record it again from a checkout of that commit:

    PYTHONPATH=<checkout>/src python -m tests.stepping_reference \\
        --out tests/data/stepping_reference.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from specshare.cli import main as cli_main
from specshare.simulator import CoexistenceSimulator, SimConfig

HASH_CASES = {
    "lte1_wifi1_pe0": {"lte_count": 1, "wifi_count": 1, "pe": 0.0},
    "lte1_pe0.3": {"lte_count": 1, "wifi_count": 0, "pe": 0.3},
    "wifi1_pe0.05": {"lte_count": 0, "wifi_count": 1, "pe": 0.05},
}
HASH_SEEDS = range(20)
HASH_K, HASH_T = 4, 50

DIST_CASES = {
    "lte2_wifi2_pe0.05": {"lte_count": 2, "wifi_count": 2, "pe": 0.05},
    "lte1_wifi1_pe0.3": {"lte_count": 1, "wifi_count": 1, "pe": 0.3},
}
DIST_EPISODES, DIST_HORIZON = 300, 10
REFERENCE_FIRST_SEED = 0
QUANTITIES = ("backoff_counter", "observation_us", "zero_payload_per_episode")
BINS = 10


def collect_hash(config, seed, workdir):
    """SHA-256 of the file `specshare collect` writes for one config."""
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(SimConfig(seed=0, **config).to_json(), fh)
    out = os.path.join(workdir, "episodes.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["collect", "--config", path, "--out", out,
                         "--k", str(HASH_K), "--t", str(HASH_T),
                         "--seed", str(seed)])
    if code != 0:
        raise RuntimeError("collect exited with %d" % code)
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sample(config, episodes, horizon, first_seed):
    """Per agent kind, the back-off counter and observation of every
    decision and the number of zero-payload decisions in every episode.

    Episode e runs the simulator with seed first_seed + e; every agent
    takes `horizon` decisions with contention windows drawn uniformly from
    a separate stream seeded the same way.
    """
    out = {kind: {q: [] for q in QUANTITIES} for kind in ("lte", "wifi")}
    for seed in range(first_seed, first_seed + episodes):
        cfg = SimConfig(seed=seed, **config)
        sim = CoexistenceSimulator(cfg)
        pick = np.random.default_rng([seed, 1])
        done = [0] * cfg.agent_count
        for rec in out.values():
            rec["zero_payload_per_episode"].append(0)
        while min(done) < horizon:
            actions = {a: int(pick.choice(cfg.cw_set))
                       for a in sim.pending_agents() if done[a] < horizon}
            for o in sim.step_epoch(actions, wait="any"):
                done[o.agent] += 1
                rec = out[cfg.agent_kind(o.agent)]
                rec["backoff_counter"].append(o.backoff_counter)
                rec["observation_us"].append(o.observation_us)
                rec["zero_payload_per_episode"][-1] += o.payload_bits == 0.0
    return out


def bin_edges(values, quantity):
    """Inner bin edges: the deciles of `values`, duplicates merged; for
    the integer per-episode counts, unit bins pooled from below until
    every bin holds at least 10 values."""
    if quantity != "zero_payload_per_episode":
        return np.unique(np.quantile(values, np.linspace(0, 1, BINS + 1)[1:-1]))
    values = np.asarray(values)
    edges, pooled = [], 0
    for k in np.unique(values)[:-1]:
        pooled += np.sum(values == k)
        if pooled >= 10 and np.sum(values > k) >= 10:
            edges.append(k + 0.5)
            pooled = 0
    return np.array(edges)


def bin_counts(values, edges):
    """Counts in the bins (-inf, e0), [e0, e1), ..., [e_last, inf)."""
    idx = np.searchsorted(np.asarray(edges), values, side="right")
    return np.bincount(idx, minlength=len(edges) + 1).tolist()


def record():
    hashes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, config in HASH_CASES.items():
            hashes[name] = {"config": config, "k": HASH_K, "t": HASH_T,
                            "seeds": list(HASH_SEEDS),
                            "sha256": [collect_hash(config, s, workdir)
                                       for s in HASH_SEEDS]}
    distributions = {}
    for name, config in DIST_CASES.items():
        samples = sample(config, DIST_EPISODES, DIST_HORIZON,
                         REFERENCE_FIRST_SEED)
        counts = {}
        for kind, quantities in samples.items():
            counts[kind] = {}
            for q, values in quantities.items():
                edges = bin_edges(values, q)
                counts[kind][q] = {"edges": [float(e) for e in edges],
                                   "counts": bin_counts(values, edges)}
        distributions[name] = {"config": config, "episodes": DIST_EPISODES,
                               "horizon": DIST_HORIZON,
                               "first_seed": REFERENCE_FIRST_SEED,
                               "counts": counts}
    return {"hashes": hashes, "distributions": distributions}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
