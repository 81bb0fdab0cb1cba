"""Paired timing of CLI commands: this checkout against another one.

    python3 tools/pairs.py --repo PARENT --workload learn-small --commands 200
    python3 tools/pairs.py --fresh --repo PARENT --workload learn-small

One worker process per checkout imports that checkout's `specshare` once
and runs commands in process through `specshare.cli.main`, as
perfbench/run.py does, with the arguments of perfbench/workloads.py. With
--fresh, every command is a new `python -m specshare.cli` process instead,
with PYTHONPATH set to its checkout's `src`, as a user runs it: its time
then counts the interpreter's start and every import, and its peak RSS
(from `os.wait4`) is reported too. A
learn workload runs `learn` on the stored batches of this checkout: the
workload's batches by seed (`LEARNER_SETS`; with --held-out, only its
held-out batch) and `LEARN_ARGS`. collect-paper runs single `collect`
commands on perfbench/data/paper.json (`collect_args`), the i-th with the
episode seed `collect_seed(1, i)`, as a run.py run of seed 1 does.
report runs `report --trace-dir` on a run directory that each side first
writes, untimed and in a new process, with `learn` and `LEARN_ARGS` on
learn-small batch_1 (with --held-out, its held-out batch); each side
has its own directory, the worker's or the children's working directory.
Commands alternate between the two workers, the side that goes first
swapping at every pair, so both see the same host load. Each worker runs
one warm-up command first.

Prints each side's median and quartiles of command seconds, in how many
pairs this checkout (the change) was faster, and the median and quartiles
of the per-pair ratio change / parent (`pair_ratio`): both commands of a
pair run seconds apart, so a drift of the host's speed moves both, where
it can skew the ratio of the two sides' medians (`ratio`). With --fresh
the same follows for the children's peak RSS in MB (`peak_rss_mb`). The
last line is the same as one JSON object. Exits 1 if a command exits
nonzero.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(CHECKOUT, "perfbench")


def commands(workload, held_out, out):
    """The argv that each side runs once before the others, untimed (None
    if none), the warm-up argv and a function of i giving the i-th
    command's argv, writing under `out` or, on a relative path, in the
    side's own directory, and the inputs they read."""
    sys.path.insert(0, PERFBENCH)
    import workloads
    if workload == "collect-paper":
        config = os.path.join(PERFBENCH, "data", "paper.json")
        path = os.path.join(out, "collect.jsonl")
        return (None, workloads.collect_args(config, path, 1, t=2),
                lambda i: workloads.collect_args(
                    config, path, workloads.collect_seed(1, i)), [config])
    learner = "learn-small" if workload == "report" else workload
    spec = workloads.LEARNER_SETS[learner]
    seeds = [spec["held_out"]] if held_out else spec["seeds"]
    with open(os.path.join(PERFBENCH, "data", "inputs.json")) as fh:
        files = {b["seed"]: b["file"] for b in json.load(fh)[learner]}
    paths = [os.path.join(PERFBENCH, files[s]) for s in seeds]
    if workload == "report":
        report = ["report", "--trace-dir", "learn"]
        return (["learn", "--episodes", paths[0], "--out", "learn"]
                + workloads.LEARN_ARGS, report, lambda i: report, paths[:1])
    run = os.path.join(out, "learn")
    return (None, ["learn", "--episodes", paths[0], "--out", run,
                   "--max-iters", "2"],
            lambda i: ["learn", "--episodes", paths[i % len(paths)], "--out",
                       run] + workloads.LEARN_ARGS, paths)


def remove_output(argv, cwd=""):
    """Delete what the command of argv, run in `cwd`, wrote to its --out
    path, if it has one."""
    if "--out" not in argv:
        return
    out = os.path.join(cwd, argv[argv.index("--out") + 1])
    if os.path.isdir(out):
        shutil.rmtree(out)
    elif os.path.exists(out):
        os.remove(out)


def worker(repo):
    """Run the argv of each stdin line with repo's specshare; answer each
    with one line, [exit code, seconds]."""
    src = os.path.join(os.path.abspath(repo), "src")
    sys.path.insert(0, src)
    from specshare import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("specshare was imported from %s, not %s"
                         % (cli.__file__, src))
    reply = sys.stdout
    for line in sys.stdin:
        argv = json.loads(line)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        remove_output(argv)
        reply.write(json.dumps([code, elapsed]) + "\n")
        reply.flush()


def fresh(repo, argv, cwd):
    """Run argv as a new `python -m specshare.cli` process on repo's src:
    its exit code, wall seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "specshare.cli"] + argv, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.path.join(repo, "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0  # KiB on Linux


class Side:
    """One checkout, its own working directory `cwd` (made here), its
    worker process unless each command runs fresh, and the seconds (and
    fresh peak RSS) of its commands."""

    def __init__(self, repo, cwd, fresh):
        self.repo, self.cwd, self.fresh = repo, cwd, fresh
        os.makedirs(cwd)
        self.proc = None if fresh else subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", repo],
            cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.seconds, self.rss_mb = [], []

    def set_up(self, argv):
        """Run argv once in a new process, keeping what it writes."""
        if fresh(self.repo, argv, self.cwd)[0]:
            raise SystemExit("%s: %s failed" % (self.repo, argv))

    def run(self, argv):
        if self.fresh:
            code, elapsed, rss = fresh(self.repo, argv, self.cwd)
            remove_output(argv, self.cwd)
            self.rss_mb.append(rss)
        else:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise SystemExit("the worker of %s stopped" % self.repo)
            code, elapsed = json.loads(line)
        if code:
            raise SystemExit("%s: %s exited %d" % (self.repo, argv, code))
        return elapsed

    def close(self):
        if self.proc:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait()


def summary(seconds):
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return {"median": statistics.median(seconds), "q1": q1, "q3": q3,
            "min": min(seconds), "max": max(seconds)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("--repo", help="the other checkout (the parent)")
    parser.add_argument("--workload", choices=("learn-small", "learn-paper",
                                               "collect-paper", "report"))
    parser.add_argument("--commands", type=int, default=100,
                        help="commands per side")
    parser.add_argument("--held-out", action="store_true",
                        help="learn-*: run only the workload's held-out "
                             "batch; report: learn on learn-small's")
    parser.add_argument("--fresh", action="store_true",
                        help="run every command as a new process")
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.repo and args.workload and args.commands >= 2):
        parser.error("need --repo, --workload and --commands >= 2")
    out = tempfile.mkdtemp(prefix="pairs-")
    set_up, warm_up, command, paths = commands(args.workload, args.held_out,
                                               out)
    parent, change = (Side(repo, os.path.join(out, name), args.fresh)
                      for name, repo in (("parent", os.path.abspath(args.repo)),
                                         ("change", CHECKOUT)))
    try:
        for side in (parent, change):
            if set_up:
                side.set_up(set_up)
            side.run(warm_up)
            side.rss_mb.clear()
        for i in range(args.commands):
            argv = command(i)
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for side in order:
                side.seconds.append(side.run(argv))
    finally:
        for side in (parent, change):
            side.close()
        shutil.rmtree(out, ignore_errors=True)
    result = {"workload": args.workload, "held_out": args.held_out,
              "fresh": args.fresh, "commands": args.commands,
              "inputs": [os.path.relpath(p, CHECKOUT) for p in paths],
              "parent": summary(parent.seconds),
              "change": summary(change.seconds),
              "change_wins": sum(c < p for c, p in zip(change.seconds,
                                                        parent.seconds))}
    result["ratio"] = result["change"]["median"] / result["parent"]["median"]
    result["pair_ratio"] = summary([c / p for c, p in zip(
        change.seconds, parent.seconds)])
    for name in ("parent", "change"):
        s = result[name]
        print("%-6s median %.4f s, quartiles %.4f-%.4f s"
              % (name, s["median"], s["q1"], s["q3"]))
    print("change faster in %d of %d pairs, median ratio %.3f"
          % (result["change_wins"], args.commands, result["ratio"]))
    r = result["pair_ratio"]
    print("per-pair ratio change / parent: median %.3f, quartiles %.3f-%.3f"
          % (r["median"], r["q1"], r["q3"]))
    if args.fresh:
        rss = result["peak_rss_mb"] = {
            "parent": summary(parent.rss_mb), "change": summary(change.rss_mb),
            "pair_ratio": summary([c / p for c, p in zip(change.rss_mb,
                                                         parent.rss_mb)])}
        for name in ("parent", "change", "pair_ratio"):
            s = rss[name]
            print("peak RSS %-10s median %.3f, quartiles %.3f-%.3f%s"
                  % (name, s["median"], s["q1"], s["q3"],
                     "" if name == "pair_ratio" else " MB"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
