"""Command-line experiment runner: collect trajectories, learn controllers,
evaluate them, and emit plain CSV metric files for plotting.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import fsc, learning, trajectories
from .simulator import SimConfig


def _uniform_behavior(config, epsilon):
    """Single-node uniform controller per agent, for bootstrap collection."""
    n_actions = len(config.cw_set)
    policies = [fsc.FscPolicy(
        eta=np.array([1.0]), pi=np.full((1, n_actions), 1.0 / n_actions),
        omega=np.ones((1, n_actions, fsc.DEFAULT_OBS_BINS, 1)),
        action_set=config.cw_set) for _ in range(config.agent_count)]
    return trajectories.BehaviorPolicy(policies=policies, epsilon=epsilon)


def cmd_collect(args):
    config = SimConfig.load(args.config)
    schedule = trajectories.SCHEDULES[args.epsilon_schedule]
    epsilon = schedule.epsilon(args.round)
    if args.policies:
        policies = fsc.load_policies(args.policies)
        behavior = trajectories.BehaviorPolicy(policies=policies,
                                               epsilon=epsilon)
    else:
        behavior = _uniform_behavior(config, epsilon)
    episodes = trajectories.collect(config, behavior, args.k, args.t,
                                    seed=args.seed)
    trajectories.save(episodes, args.out)
    print("wrote %d episodes to %s (epsilon=%.3f)"
          % (len(episodes), args.out, epsilon))
    return 0


def cmd_learn(args):
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
    agents = range(1, len(result.states) + 1)
    with open(os.path.join(args.out, "trace.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "elbo", "discounted_value"]
            + ["%s_%d" % (c, n) for c in ("nodes_agent", "g", "h")
               for n in agents]
            + ["norm"] + ["%s_%d" % (c, n) for c in ("a", "b_min")
                          for n in agents])
        for i in range(trace.iterations):
            writer.writerow([i + 1] + [repr(v) for v in (
                [trace.elbo[i], trace.value[i]] + trace.node_counts[i]
                + trace.g[i] + trace.h[i] + [trace.norm[i]] + trace.a[i]
                + trace.b_min[i])])
    print("converged=%s iterations=%d final_elbo=%r"
          % (result.converged, trace.iterations, trace.elbo[-1]))
    return 0


def cmd_evaluate(args):
    policies = fsc.load_policies(args.policies)
    episodes = trajectories.load(args.episodes)
    value = learning.empirical_value(episodes, policies, gamma=args.gamma)
    report = {"discounted_value": value}
    if args.config:
        config = SimConfig.load(args.config)
        behavior = trajectories.BehaviorPolicy(policies=policies, epsilon=0.0)
        rollouts = trajectories.collect(config, behavior, args.k, args.t,
                                        seed=args.seed)
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
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}

    def prefixed(*prefixes):
        return [c for p in prefixes for c in header if c.startswith(p)]

    def write(name, columns):
        path = os.path.join(args.trace_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration"] + columns)
            for row in body:
                writer.writerow([row[col["iteration"]]]
                                + [row[col[c]] for c in columns])
        return path

    paths = [write("elbo.csv", ["elbo"]),
             write("nodes.csv", prefixed("nodes_agent_")),
             write("value.csv", ["discounted_value"]),
             write("gh.csv", prefixed("g_", "h_"))]
    if "norm" in col:  # not in traces written before it was recorded
        paths.append(write("norm_ab.csv", prefixed("norm", "a_", "b_min_")))
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
    p.add_argument("--t", type=int, default=50)
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
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--t", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="split a learning trace into metric files")
    p.add_argument("--trace-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
