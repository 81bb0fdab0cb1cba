"""Command-line experiment runner: collect trajectories, learn controllers,
evaluate them, and emit plain CSV metric files for plotting.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure.
"""

import argparse
import csv
import importlib
import json
import os
import sys

# trace.csv has a column per `learning.ElboTrace` field, in field order, or
# one per agent, "<name>_<agent>"; a field is named by its entry here or itself
_TRACE_NAMES = {"value": "discounted_value", "node_counts": "nodes_agent"}

# report files by the trace.csv column prefixes they take; a trace written
# before a file's columns were recorded has none, and the file is skipped
_REPORT_FILES = [("elbo.csv", "elbo"), ("nodes.csv", "nodes_agent_"),
                 ("value.csv", "discounted_value"), ("gh.csv", ("g_", "h_")),
                 ("norm_ab.csv", ("norm", "a_", "b_min_")),
                 ("live.csv", "live_"), ("weights.csv", ("ess", "max_share"))]


def __getattr__(name):
    """`learning` and `trajectories`, imported on first use: perfbench's
    tracer patches `learning.learn` and `trajectories.collect`, `save` and
    `load` as attributes of this module. This can go once its spans name
    those modules themselves (ROADMAP, direction 6)."""
    if name in ("learning", "trajectories"):
        return importlib.import_module("." + name, __package__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _uniform_behavior(config, epsilon):
    """Single-node uniform controller, one shared by every agent, for
    bootstrap collection."""
    import numpy as np
    from . import fsc, trajectories
    n_actions = len(config.cw_set)
    policy = fsc.FscPolicy(
        eta=np.array([1.0]), pi=np.full((1, n_actions), 1.0 / n_actions),
        omega=np.ones((1, n_actions, fsc.DEFAULT_OBS_BINS, 1)),
        action_set=config.cw_set)
    return trajectories.BehaviorPolicy(policies=[policy] * config.agent_count,
                                       epsilon=epsilon)


def _load_config(path):
    """The config at `path`. Every episode is seeded from `--seed`, so a
    non-zero `seed` in the file would change nothing: ValueError."""
    from .simulator import SimConfig
    config = SimConfig.load(path)
    if config.seed != 0:
        raise ValueError("%s: seed must be 0; episodes are seeded from "
                         "--seed" % path)
    return config


def cmd_collect(args):
    from . import fsc, trajectories
    config = _load_config(args.config)
    schedule = trajectories.SCHEDULES[args.epsilon_schedule]
    epsilon = schedule.epsilon(args.round)
    if args.policies:
        policies = fsc.load_policies(args.policies)
        behavior = trajectories.BehaviorPolicy(policies=policies,
                                               epsilon=epsilon)
    else:
        behavior = _uniform_behavior(config, epsilon)
    horizon = config.horizon if args.t is None else args.t
    episodes = trajectories.collect(config, behavior, args.k, horizon,
                                    seed=args.seed)
    trajectories.save(episodes, args.out)
    print("wrote %d episodes to %s (epsilon=%.3f)"
          % (len(episodes), args.out, epsilon))
    return 0


def cmd_learn(args):
    import dataclasses
    from . import fsc, learning, trajectories
    episodes = trajectories.load(args.episodes)
    if args.hyper:
        with open(args.hyper) as fh:
            hyper = learning.Hyperparams.from_json(json.load(fh))
    else:
        hyper = learning.Hyperparams()
    result = learning.learn(episodes, hyper, max_iters=args.max_iters,
                            tol=args.tol, prune_epsilon=args.prune_epsilon,
                            max_nodes=args.max_nodes)
    os.makedirs(args.out, exist_ok=True)
    fsc.save_policies(result.policies, os.path.join(args.out, "policies.json"))
    trace = result.trace
    header, columns = ["iteration"], [range(1, trace.iterations + 1)]
    for f in dataclasses.fields(trace):
        name, values = _TRACE_NAMES.get(f.name, f.name), getattr(trace, f.name)
        if isinstance(values[0], list):  # one column per agent
            header += ["%s_%d" % (name, n + 1) for n in range(len(values[0]))]
            columns += zip(*values)
        else:
            header.append(name)
            columns.append(values)
    with open(os.path.join(args.out, "trace.csv"), "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in [header] + [
            list(map(repr, r)) for r in zip(*columns)]))  # as csv.writer
    print("converged=%s iterations=%d final_elbo=%r"
          % (result.converged, trace.iterations, trace.elbo[-1]))
    return 0


def cmd_evaluate(args):
    rollout = [flag for flag in ("k", "t", "seed")
               if getattr(args, flag) is not None]
    if rollout and not args.config:
        print("usage: evaluate: rollout options (--%s) need --config"
              % ", --".join(rollout), file=sys.stderr)
        return 1
    import numpy as np
    from . import fsc, learning, trajectories
    policies = fsc.load_policies(args.policies)
    episodes = trajectories.load(args.episodes)
    config = _load_config(args.config) if args.config else None
    if args.gamma is None:
        args.gamma = 0.9 if config is None else config.gamma
    value = learning.empirical_value(episodes, policies, gamma=args.gamma)
    report = {"discounted_value": value}
    if config is not None:
        behavior = trajectories.BehaviorPolicy(policies=policies, epsilon=0.0)
        rollouts = trajectories.collect(
            config, behavior, 20 if args.k is None else args.k,
            config.horizon if args.t is None else args.t,
            seed=0 if args.seed is None else args.seed)
        agent_rewards = [[tr.rewards[-1] for tr in ep.agents]
                         for ep in rollouts]
        report["mean_final_local_rewards"] = \
            np.mean(agent_rewards, axis=0).tolist()
        report["mean_global_reward"] = float(np.mean(
            [ep.rewards[-1] for ep in rollouts]))
        report["fair_share_mbps"] = config.rate_mbps / config.agent_count
    out = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    print(out)
    return 0


def cmd_report(args):
    with open(os.path.join(args.trace_dir, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("trace file has no iterations")
    header, paths = rows[0], []
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise ValueError("trace file line %d has %d values for %d columns"
                             % (line, len(row), len(header)))
    if "iteration" not in header:
        raise ValueError("trace file has no iteration column")
    first = header.index("iteration")
    for name, prefixes in _REPORT_FILES:
        index = [i for i, c in enumerate(header) if c.startswith(prefixes)]
        if index:
            path = os.path.join(args.trace_dir, name)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([row[first]] + [row[i] for i in index]
                                         for row in rows)
            paths.append(path)
    print("\n".join(paths))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specshare",
        description="Unlicensed-spectrum coexistence simulation and "
                    "variational controller learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="simulate episodes under a behavior policy")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policies", help="learned policies to act epsilon-greedily on")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--t", type=int, help="epochs per episode (default: the "
                   "config's horizon)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon-schedule", choices=("a", "b"), default="a")
    p.add_argument("--round", type=int, default=0,
                   help="learning round index for the epsilon schedule")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("learn", help="fit controllers to an episode batch")
    p.add_argument("--episodes", required=True)
    p.add_argument("--hyper", help="hyperparameter JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--prune-epsilon", type=float, default=1e-3)
    p.add_argument("--max-nodes", type=int, default=10)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("evaluate", help="score learned policies")
    p.add_argument("--policies", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--config", help="simulate fresh greedy rollouts as well")
    p.add_argument("--gamma", type=float,
                   help="discount (default: the config's gamma, else 0.9)")
    # the rollout flags default to None so that, without --config, a given
    # one is rejected rather than ignored
    p.add_argument("--k", type=int, help="rollout episodes (default: 20)")
    p.add_argument("--t", type=int,
                   help="rollout epochs (default: the config's horizon)")
    p.add_argument("--seed", type=int, help="rollout seed (default: 0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="split a learning trace into metric files")
    p.add_argument("--trace-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


# one parser per process, built by the first `main`; parsing leaves it as
# it was, so every later call reuses it
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
