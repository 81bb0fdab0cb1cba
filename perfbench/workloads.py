"""What each workload runs and how its outputs are checked.

Every operation is one `specshare` command driven in-process through
`specshare.cli.main`, the documented entry point. Nothing here imports
specshare at module load, so the caller decides when imports are timed.
"""

import csv
import math
import os

# collect-paper: the paper configuration, uniform bootstrap behaviour
# (schedule a, round 0, so epsilon = 0.9), one episode of T = 50 per command.
COLLECT_K = 1
COLLECT_T = 50

LEARN_ARGS = ["--max-iters", "200", "--tol", "1e-5"]

# Stored learner batches, made once by make_inputs.py. Runs use `seeds`;
# the `held_out` batch is run only on request (run.py --held-out).
LEARNER_SETS = {
    "learn-paper": {"config": "paper", "k": 10, "t": 50,
                    "seeds": [1, 2, 3, 4], "held_out": 5},
    "learn-small": {"config": "small", "k": 4, "t": 10,
                    "seeds": [1, 2, 3, 4, 5, 6, 7, 8], "held_out": 9},
}

CONFIG_SIZES = {"paper": (2, 2), "small": (1, 1)}


def config_json(name):
    from specshare.simulator import SimConfig
    lte, wifi = CONFIG_SIZES[name]
    return SimConfig(lte_count=lte, wifi_count=wifi, seed=0).to_json()


def collect_seed(workload_seed, index):
    """Seed of the index-th collect command of a run (never negative)."""
    return workload_seed % 2 ** 31 * 1000 + index


def collect_args(config_path, out_path, seed, t=COLLECT_T):
    return ["collect", "--config", config_path, "--out", out_path,
            "--k", str(COLLECT_K), "--t", str(t), "--seed", str(seed),
            "--epsilon-schedule", "a", "--round", "0"]


def learn_command_result(stdout, out_dir):
    """Convergence flag, iteration count, final ELBO/value and node counts
    of one finished `learn` command, read from its stdout and trace.csv."""
    fields = dict(part.split("=", 1) for part in stdout.split()
                  if "=" in part)
    with open(os.path.join(out_dir, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, last = rows[0], rows[-1]
    nodes = [int(v) for name, v in zip(header, last)
             if name.startswith("nodes_agent_")]
    return {"converged": fields.get("converged") == "True",
            "iterations": len(rows) - 1,
            "final_elbo": float(last[header.index("elbo")]),
            "final_value": float(last[header.index("discounted_value")]),
            "nodes_final": nodes}


def check_learn(result, reference):
    """Failed output checks of one learn command against its reference."""
    errors = []
    if not result["converged"]:
        errors.append("learn did not converge")
    if result["iterations"] != reference["iterations"]:
        errors.append("iterations %d != reference %d"
                      % (result["iterations"], reference["iterations"]))
    for key in ("final_elbo", "final_value"):
        if not math.isclose(result[key], reference[key], rel_tol=1e-9,
                            abs_tol=0.0):
            errors.append("%s %r != reference %r"
                          % (key, result[key], reference[key]))
    return errors


def check_collect(episodes, config):
    """Failed output checks of one collect command's episodes."""
    from specshare.fsc import observation_bin
    errors = []
    if len(episodes) != COLLECT_K:
        errors.append("%d episodes != K=%d" % (len(episodes), COLLECT_K))
    cw_set = set(config.cw_set)
    for ep in episodes:
        if len(ep.agents) != config.agent_count:
            errors.append("episode %d has %d agents" % (ep.k, len(ep.agents)))
        for n, tr in enumerate(ep.agents):
            where = "episode %d agent %d" % (ep.k, n)
            lengths = {len(tr.actions), len(tr.obs_us), len(tr.obs_bin),
                       len(tr.pi_behavior), len(tr.rewards)}
            if lengths != {COLLECT_T}:
                errors.append("%s: lengths %s != T=%d"
                              % (where, sorted(lengths), COLLECT_T))
            if not set(tr.actions) <= cw_set:
                errors.append("%s: action outside cw_set" % where)
            if any(b != observation_bin(us)
                   for us, b in zip(tr.obs_us, tr.obs_bin)):
                errors.append("%s: obs_bin disagrees with obs_us" % where)
            if not all(0.0 < p <= 1.0 for p in tr.pi_behavior):
                errors.append("%s: pi_behavior outside (0, 1]" % where)
            if any(b < a for a, b in zip(tr.rewards, tr.rewards[1:])):
                errors.append("%s: cumulative reward decreases" % where)
    return errors
