"""Regenerate the benchmark's stored inputs and references.

Run from the repository root:

    python3 perfbench/make_inputs.py

It writes into perfbench/data/:

- paper.json, small.json: the simulator configurations;
- learn-paper/*.jsonl, learn-small/*.jsonl: the learner batches, each made
  by one `specshare collect` command;
- inputs.json: for every batch the exact command, its seed, the SHA-256 of
  the file, whether it is held out, and the reference `learn` result
  (iteration count, final ELBO, final discounted value);
- collect_reference.json: SHA-256 of the episode file that the first
  collect-paper command of each workload seed writes.

The learner batches are stored rather than made at run time so that a
simulator change that alters the random-number stream does not change the
learner's input.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import (LEARN_ARGS, LEARNER_SETS, collect_args,  # noqa: E402
                       collect_seed, config_json, learn_command_result)

COLLECT_REFERENCE_SEEDS = range(50)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rel(path):
    return os.path.relpath(path, os.path.dirname(HERE))


def run_cli(argv):
    from specshare.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code != 0:
        raise SystemExit("command failed with %d: %s" % (code, argv))
    return out.getvalue()


def write_config(name):
    path = os.path.join(DATA, name + ".json")
    with open(path, "w") as fh:
        json.dump(config_json(name), fh, indent=1)
        fh.write("\n")
    return path


def make_learner_set(name):
    spec = LEARNER_SETS[name]
    config = write_config(spec["config"])
    folder = os.path.join(DATA, name)
    os.makedirs(folder, exist_ok=True)
    out_dir = os.path.join(HERE, ".reference_run")
    batches = []
    for seed in spec["seeds"] + [spec["held_out"]]:
        path = os.path.join(folder, "batch_%d.jsonl" % seed)
        argv = ["collect", "--config", rel(config), "--out", rel(path),
                "--k", str(spec["k"]), "--t", str(spec["t"]),
                "--seed", str(seed)]
        run_cli(argv)
        learn_argv = ["learn", "--episodes", rel(path), "--out", out_dir] \
            + LEARN_ARGS
        reference = learn_command_result(run_cli(learn_argv), out_dir)
        batches.append({"file": os.path.relpath(path, HERE),
                        "seed": seed,
                        "held_out": seed == spec["held_out"],
                        "collect_command": ["specshare"] + argv,
                        "sha256": sha256(path),
                        "learn_command": ["specshare", "learn", "--episodes",
                                          rel(path), "--out", "<dir>"]
                        + LEARN_ARGS,
                        "reference": reference})
        print(name, batches[-1]["file"], reference, flush=True)
    shutil.rmtree(out_dir)
    return batches


def make_collect_reference():
    config = write_config("paper")
    path = os.path.join(HERE, ".reference_episode.jsonl")
    table = {}
    for seed in COLLECT_REFERENCE_SEEDS:
        episode_seed = collect_seed(seed, 0)
        run_cli(collect_args(rel(config), rel(path), episode_seed))
        table[str(episode_seed)] = sha256(path)
        print("collect-paper", episode_seed, table[str(episode_seed)],
              flush=True)
    os.remove(path)
    return {"command": ["specshare"] + collect_args(rel(config), "<file>",
                                                    "<seed>"),
            "sha256_by_seed": table}


def write_json(name, data):
    with open(os.path.join(DATA, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(DATA, exist_ok=True)
    write_json("inputs.json", {name: make_learner_set(name)
                               for name in ("learn-small", "learn-paper")})
    write_json("collect_reference.json",
               {"collect-paper": make_collect_reference()})


if __name__ == "__main__":
    main()
