"""specshare benchmark: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload collect-paper --seed 1 --seconds 50 --trace 0

Workloads (see README.md): collect-paper, learn-paper, learn-small. Every
operation is one `specshare` command run in-process through
`specshare.cli.main`; a nonzero exit code, an uncaught exception or a failed
output check counts as a failed operation.

--trace 0 times the commands with nothing patched and reports the
end-to-end metrics. --trace 1 runs each command twice, once plain and once
with per-layer spans installed, in alternating order, and reports the
per-layer metrics and the traced-minus-plain overhead.

The last line of stdout is the result object; the line before it is a
report with the environment stamp and per-command details.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
LOG_LIMIT = 200  # commands detailed in the report

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class SetupError(Exception):
    """The benchmark's inputs or the program are absent or damaged."""


def data_path(*parts):
    return os.path.relpath(os.path.join(DATA, *parts), ROOT)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(argv):
    """(exit code, host seconds, stdout) of one in-process CLI command."""
    from specshare import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


class Collect:
    """collect-paper: simulate one paper-scale episode per command."""

    def __init__(self, seed):
        self.seed = seed
        self.config_path = data_path("paper.json")
        self.digests = {}

    def load(self):
        from specshare.simulator import SimConfig
        self.config = SimConfig.load(self.config_path)
        with open(os.path.join(DATA, "collect_reference.json")) as fh:
            self.reference = json.load(fh)["collect-paper"]["sha256_by_seed"]

    def out(self, index):
        return os.path.join(WORK, "collect_%d.jsonl" % index)

    def warm_up(self):
        return wl.collect_args(self.config_path, self.out(-1), self.seed, t=2)

    def command(self, index):
        return wl.collect_args(self.config_path, self.out(index),
                               wl.collect_seed(self.seed, index))

    def check(self, index, stdout):
        from specshare import trajectories
        path = self.out(index)
        digest = sha256(path)
        if self.digests.setdefault(index, digest) != digest:
            return ["traced and plain commands wrote different episodes"]
        errors = wl.check_collect(trajectories.load(path), self.config)
        os.remove(path)
        return errors

    def decisions(self):
        return wl.COLLECT_K * self.config.agent_count * wl.COLLECT_T

    def report(self):
        seed = str(wl.collect_seed(self.seed, 0))
        reference = self.reference.get(seed)
        digest = self.digests.get(0)
        return {"episode_seed": int(seed), "sha256": digest,
                "seed_commit_sha256": reference,
                "matches_seed_commit": None if reference is None
                else reference == digest,
                "note": "information only: a different hash means the "
                        "random-number stream changed, so outputs must be "
                        "shown equal in distribution"}


class Learn:
    """learn-paper / learn-small: fit one stored batch per command."""

    def __init__(self, name, seed, held_out):
        self.name = name
        self.seed = seed
        self.held_out = held_out

    def load(self):
        from specshare import trajectories
        with open(os.path.join(DATA, "inputs.json")) as fh:
            batches = json.load(fh)[self.name]
        pool = [b for b in batches if b["held_out"] == self.held_out]
        for batch in pool:
            path = os.path.join(HERE, batch["file"])
            if sha256(path) != batch["sha256"]:
                raise SetupError("%s does not match its recorded SHA-256"
                                 % batch["file"])
            trajectories.load(path)
        self.order = random.Random(self.seed).sample(pool, len(pool))

    def batch(self, index):
        return self.order[index % len(self.order)]

    def out(self, index):
        return os.path.join(WORK, "learn_%d" % index)

    def _argv(self, index, out, limits):
        path = os.path.relpath(os.path.join(HERE, self.batch(index)["file"]),
                               ROOT)
        return ["learn", "--episodes", path, "--out", out] + limits

    def warm_up(self):
        return self._argv(0, self.out(-1), ["--max-iters", "2"])

    def command(self, index):
        return self._argv(index, self.out(index), wl.LEARN_ARGS)

    def check(self, index, stdout):
        out = self.out(index)
        result = wl.learn_command_result(stdout, out)
        shutil.rmtree(out)
        return wl.check_learn(result, self.batch(index)["reference"])

    def decisions(self):
        return None

    def report(self):
        return {"batches_in_order": [b["file"] for b in self.order]}


def make_workload(args):
    if args.workload == "collect-paper":
        return Collect(args.seed)
    return Learn(args.workload, args.seed, args.held_out)


def fresh_import():
    """Import the CLI in a fresh interpreter, as every user run does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", "import specshare.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SetupError("cannot import specshare: %s" % proc.stderr.strip())


def set_up(workload):
    """Median over SETUP_REPEATS of import + load inputs + warm-up command."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_import()
        workload.load()
        code, _, _ = run_command(workload.warm_up())
        if code != 0:
            raise SetupError("warm-up command exited with %d" % code)
        times.append(time.perf_counter() - start)
    shutil.rmtree(WORK)
    os.makedirs(WORK)
    return statistics.median(times)


def attempt(workload, index, tracer=None):
    """Run and check one command: (seconds, list of failure messages)."""
    argv = workload.command(index)
    if tracer is not None:
        tracer.install()
    try:
        code, elapsed, stdout = run_command(argv)
    except Exception:
        return None, ["uncaught exception:\n" + traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        return elapsed, ["exit code %d" % code]
    try:
        return elapsed, workload.check(index, stdout)
    except Exception:
        return elapsed, ["output check raised:\n" + traceback.format_exc()]


class Run:
    """Commands of one benchmark run, until the time is used."""

    def __init__(self, workload, seconds, tracer):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.plain = []      # seconds of each plain command that succeeded
        self.traced = []     # per-layer metrics of each traced command
        self.pairs = []      # traced minus plain seconds, same input
        self.log = []
        self.attempted = 0
        self.failed = 0

    def one(self, index, traced):
        if traced:
            self.tracer.reset()
        elapsed, errors = attempt(self.workload, index,
                                  self.tracer if traced else None)
        self.attempted += 1
        self.failed += bool(errors)
        if len(self.log) < LOG_LIMIT:
            self.log.append({"index": index, "traced": traced,
                             "seconds": elapsed, "errors": errors})
        if errors:
            return None
        if traced:
            self.traced.append(self.tracer.snapshot())
        else:
            self.plain.append(elapsed)
        return elapsed

    def unit(self, index):
        """One command, or in a traced run one plain and one traced command
        on the same input, the order alternating."""
        if self.tracer is None:
            self.one(index, False)
            return
        first_traced = index % 2 == 1
        first = self.one(index, first_traced)
        second = self.one(index, not first_traced)
        if first is not None and second is not None:
            self.pairs.append(first - second if first_traced
                              else second - first)

    def measure(self):
        start = time.perf_counter()
        units = []
        index = 0
        while True:
            unit_start = time.perf_counter()
            self.unit(index)
            units.append(time.perf_counter() - unit_start)
            index += 1
            elapsed = time.perf_counter() - start
            # stop before a unit that would run past the measuring time
            if elapsed + statistics.median(units) > self.seconds:
                return elapsed


def layer_metrics(run, units):
    """Median per traced command of each per-layer metric, None if missing."""
    missing = run.tracer.unavailable()
    metrics = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        values = [snap[name] for snap in run.traced if name in snap]
        value = statistics.median(values) if values and name not in missing \
            else None
        metrics[name] = {"value": value, "unit": unit}
    plain = statistics.median(run.plain) if run.plain else None
    overhead = statistics.median(run.pairs) if run.pairs else None
    metrics["trace.plain_command_s"] = {"value": plain, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, sorted(missing & set(units))


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_revision": git_revision(),
            "workload": args.workload,
            "seed": args.seed,
            "held_out": args.held_out,
            "seconds": args.seconds,
            "trace": args.trace}


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["collect-paper"] + sorted(wl.LEARNER_SETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="learn-*: use only the held-out batch, to check "
                             "a claim on input no change was tuned on")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "specshare", "cli.py")):
        print("perfbench: no specshare sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    end_to_end, per_layer = load_benchmark_spec()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        workload = make_workload(args)
        try:
            setup_s = set_up(workload)
        except (SetupError, OSError, KeyError, ValueError) as exc:
            print("perfbench: set-up failed: %s" % exc, file=sys.stderr)
            return 2
        tracer = tracing.Tracer() if args.trace else None
        run = Run(workload, args.seconds, tracer)
        measured_s = run.measure()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    report = {"environment": environment(args),
              "setup_s": setup_s, "measured_s": measured_s,
              "workload": workload.report(), "commands": run.log}
    ok = run.attempted - run.failed
    if args.trace:
        metrics, missing = layer_metrics(run, per_layer)
        report["missing"] = missing
    else:
        command_s = statistics.median(run.plain) if run.plain else None
        metrics = {
            "command_s": command_s,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": ok / run.attempted,
        }
        metrics = {name: {"value": metrics[name], "unit": end_to_end[name]}
                   for name in end_to_end}
        decisions = workload.decisions()
        if decisions and command_s:
            report["decisions_per_s"] = decisions / command_s
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
