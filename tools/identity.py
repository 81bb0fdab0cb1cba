"""Output-identity check: run a fixed list of specshare commands and print
one SHA-256 per output file.

    python3 tools/identity.py --out DIR [--repo CHECKOUT] [--compare OLD]

The commands run in this interpreter through `specshare.cli.main`, on the
package under CHECKOUT/src (default: the checkout this script is in) and
the stored batches under CHECKOUT/perfbench/data:
- `learn`, `report` and `evaluate`, without and with `--config <the
  batch's config> --k 3 --t 10`, on every stored batch;
- `collect --k 10 --t 50` at seeds 0 and 7 on paper.json, small.json and
  three variants of paper.json that the tool writes into DIR under
  `collect/`: 3 LTE at pe 0.3, 3 Wi-Fi at pe 0 (both collision-heavy), and
  4 LTE + 4 Wi-Fi at pe 0.1 with a 20 ms ICCA, a sensing window longer
  than the longest transmission;
- `learn --max-iters 1` on learn-paper batch_1, whose controllers have
  several nodes per agent, and `collect --k 10 --t 50` at seeds 0 and 7 on
  paper.json acting on them (`--policies`, schedule b, round 39);
- `learn --max-nodes 1` on learn-small batch_1, one live node per agent
  from the first iteration on, and `learn --hyper` with the
  hyperparameter file `learn/theta_0.01.json`, {"theta": 0.01}, that the
  tool writes into DIR, on learn-paper batch_1 and on learn-small batch_7
  and batch_9, whose runs end with dropped nodes before a live one (live
  nodes [[5], [0]] and [[0, 3], [0]]), so that the kernel writes gaps
  back to the states.

Outputs are written under DIR with paths relative to it, so that printed
paths do not depend on DIR. Each command's stdout, stderr and exit code go
to a `<command>.txt` file beside its outputs. `--compare OLD` then lists
the files that differ from, or are missing in, an earlier run's DIR, and
the largest relative difference per column of a differing CSV file,
trace.csv or one that `report` writes from it (and both row counts if
they differ, and each row that is not one number per column), per policy
field of a differing policies.json and per track field and episode
rewards of a differing episode .jsonl (and each episode line, or
policies.json, that does not parse or lacks a list the comparison reads).

Hashes depend on the Python, numpy and BLAS builds, so compare only runs
made in one environment. Exits 2, before any command runs, if OLD is
not a directory, else 1 if a command exits nonzero, else 0.
"""

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = {"learn-small": "small.json", "learn-paper": "paper.json"}
COLLECT_SEEDS = (0, 7)
VARIANTS = {  # paper.json overrides
    "lte3": {"lte_count": 3, "wifi_count": 0, "pe": 0.3},
    "wifi3": {"lte_count": 0, "wifi_count": 3, "pe": 0.0},
    "mixed8_icca20ms": {"lte_count": 4, "wifi_count": 4, "pe": 0.1,
                        "icca_us": 20000},
}
LEARNED = os.path.join("collect", "learned")  # controllers collect acts on
HYPER = os.path.join("learn", "theta_0.01.json"), {"theta": 0.01}


def commands(data):
    """(output file stem, argv) pairs in run order; argv paths to outputs
    and to the variant configs are relative to the output directory."""
    runs = []
    for workload, config in CONFIGS.items():
        config = os.path.join(data, config)
        for path in sorted(glob.glob(os.path.join(data, workload, "*.jsonl"))):
            out = os.path.join(workload, os.path.basename(path)[:-6])
            runs += [
                (os.path.join(out, "learn"),
                 ["learn", "--episodes", path, "--out", out]),
                (os.path.join(out, "report"), ["report", "--trace-dir", out]),
                (os.path.join(out, "evaluate"),
                 ["evaluate", "--policies", os.path.join(out, "policies.json"),
                  "--episodes", path]),
                (os.path.join(out, "evaluate_config"),
                 ["evaluate", "--policies", os.path.join(out, "policies.json"),
                  "--episodes", path, "--config", config, "--k", "3",
                  "--t", "10"])]
    configs = {name: os.path.join(data, name + ".json")
               for name in ("paper", "small")}
    configs.update((name, variant_path(name)) for name in VARIANTS)
    for name, config in configs.items():
        for seed in COLLECT_SEEDS:
            stem = os.path.join("collect", "%s_seed%d" % (name, seed))
            runs.append((stem, ["collect", "--config", config,
                                "--out", stem + ".jsonl", "--k", "10",
                                "--t", "50", "--seed", str(seed)]))
    runs.append((os.path.join(LEARNED, "learn"),
                 ["learn", "--episodes",
                  os.path.join(data, "learn-paper", "batch_1.jsonl"),
                  "--out", LEARNED, "--max-iters", "1"]))
    for seed in COLLECT_SEEDS:
        stem = os.path.join("collect", "learned_seed%d" % seed)
        runs.append((stem, ["collect", "--config", configs["paper"],
                            "--policies",
                            os.path.join(LEARNED, "policies.json"),
                            "--out", stem + ".jsonl", "--k", "10", "--t",
                            "50", "--seed", str(seed), "--epsilon-schedule",
                            "b", "--round", "39"]))
    learns = {"max_nodes_1": ("learn-small", "batch_1", "--max-nodes", "1"),
              "theta_0.01": ("learn-paper", "batch_1", "--hyper", HYPER[0])}
    for batch in ("batch_7", "batch_9"):
        learns["theta_0.01_small_" + batch] = ("learn-small", batch,
                                               "--hyper", HYPER[0])
    for name, (workload, batch, *option) in learns.items():
        out = os.path.join("learn", name)
        runs.append((os.path.join(out, "learn"),
                     ["learn", "--episodes",
                      os.path.join(data, workload, batch + ".jsonl"),
                      "--out", out] + option))
    return runs


def variant_path(name):
    return os.path.join("collect", name + ".json")


def write_variants(data):
    """Write each paper.json variant and the hyperparameter file to their
    paths under the current directory."""
    with open(os.path.join(data, "paper.json")) as fh:
        paper = json.load(fh)
    files = [(variant_path(name), {**paper, **overrides})
             for name, overrides in VARIANTS.items()] + [HYPER]
    for path, content in files:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(content, fh, indent=1)
            fh.write("\n")


def import_cli(repo):
    """`specshare.cli` from repo/src, refusing any other copy."""
    src = os.path.join(repo, "src")
    sys.path.insert(0, src)
    from specshare import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("specshare was imported from %s, not %s"
                         % (cli.__file__, src))
    return cli


def run(repo, out_dir):
    """Run every command into out_dir; returns how many exited nonzero."""
    cli = import_cli(repo)
    data = os.path.join(repo, "perfbench", "data")
    runs = commands(data)  # absolute paths into data, before the chdir
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    write_variants(data)
    failed = 0
    for stem, argv in runs:
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        with open(stem + ".txt", "w") as fh:
            fh.write(captured.getvalue() + "exit %d\n" % code)
        if code:
            failed += 1
            print("%s exited %d" % (stem, code), file=sys.stderr)
    return failed


def hashes(root):
    """{path relative to root: SHA-256} of every file under root."""
    found = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return found


def relative_gap(new, old):
    if new == old:
        return 0.0
    try:
        gap = new - old
    except TypeError:  # a JSON leaf that is not a number
        return math.inf
    return abs(gap) / abs(old) if old and math.isfinite(gap) else math.inf


def gap_lines(gaps):
    """One line per nonzero entry of {name: largest relative difference}."""
    return ["%s: largest relative difference %.3g" % (name, gap)
            for name, gap in sorted(gaps.items()) if gap]


def column_gaps(new_path, old_path):
    """Both row counts of two CSV files of numbers under a header row
    (trace.csv and the report files) if they differ, each row that is not
    one number per column, then the largest relative difference per
    column, over the rows and columns both hold. A row that is not
    numbers reads as NaN in every column, a difference wherever it is."""
    tables, counts, bad = [], [], []
    for side, path in (("new", new_path), ("old", old_path)):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        counts.append(len(rows))
        numbers = []
        for line, row in enumerate(rows, 2):
            try:
                numbers.append([float(value) for value in row])
            except ValueError:
                numbers.append([])
            if len(numbers[-1]) != len(header):
                bad.append("%s line %d is not %d numbers: %s"
                           % (side, line, len(header), ",".join(row)))
                numbers[-1] = [math.nan] * len(header)
        tables.append(dict(zip(header, zip(*numbers))))
    new, old = tables
    rows = ["rows: %d new, %d old" % tuple(counts)] \
        if counts[0] != counts[1] else []
    return rows + bad + gap_lines({
        name: max(map(relative_gap, new[name], old[name]), default=0.0)
        for name in new.keys() & old.keys()})


def leaves(value, path=()):
    """(path, leaf) of every number, and every empty list or object, in a
    JSON value."""
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        items = None
    if not items:
        return [(path, value)]
    return [leaf for key, v in items for leaf in leaves(v, path + (key,))]


def record_gaps(pairs, gaps):
    """Add to {field: largest relative difference} the gap of each (field,
    new value, old value) in `pairs`; inf for a value whose shape
    differs."""
    for name, new, old in pairs:
        (new_paths, new_values), (old_paths, old_values) = (
            zip(*leaves(value)) for value in (new, old))
        gap = (max(map(relative_gap, new_values, old_values))
               if new_paths == old_paths else math.inf)
        gaps[name] = max(gaps.get(name, 0.0), gap)
    return gaps


def record_fault(record, objects, lists):
    """Why a parsed JSON value is not an object with a list of objects
    under each key of `objects` and a list under each key of `lists`, or
    None if it is."""
    if not isinstance(record, dict):
        return "not an object"
    for key in objects + lists:
        value = record.get(key)
        if not isinstance(value, list):
            return "no %r list" % key
        if key in objects and not all(isinstance(v, dict) for v in value):
            return "%r holds a non-object" % key
    return None


def paired_records(new_path, old_path, per_line, objects, lists=()):
    """The (new, old) pairs of JSON records two files hold at one position,
    one per line (`per_line`) or the whole file as one, and the lines that
    name both record counts if they differ and each record that does not
    parse or has a `record_fault`, which pairs with nothing: "<side> line
    <n> is not a record: <why>"."""
    sides, bad = [], []
    for side, path in (("new", new_path), ("old", old_path)):
        with open(path) as fh:
            chunks = list(enumerate(fh, 1)) if per_line else [(1, fh.read())]
        records = []
        for line, text in chunks:
            try:
                record = json.loads(text)
                why = record_fault(record, objects, lists)
            except ValueError as exc:  # json.JSONDecodeError
                line += exc.lineno - 1
                why = "%s (column %d)" % (exc.msg, exc.colno)
            if why:
                bad.append("%s line %d is not a record: %s"
                           % (side, line, why))
            records.append(None if why else record)
        sides.append(records)
    counts = tuple(map(len, sides))
    if counts[0] != counts[1]:
        bad.insert(0, "records: %d new, %d old" % counts)
    return [pair for pair in zip(*sides) if None not in pair], bad


def policy_gaps(new_path, old_path):
    """The lines naming a policies.json file that is not an object with a
    "policies" list of objects, then the largest relative difference per
    field of two such files, over the policies and fields both hold."""
    pairs, bad = paired_records(new_path, old_path, False, ("policies",))
    return bad + gap_lines(record_gaps(
        ((name, new[name], old[name]) for files in pairs
         for new, old in zip(*(f["policies"] for f in files))
         for name in new.keys() & old.keys()), {}))


def episode_gaps(new_path, old_path):
    """The lines naming each line of two episode .jsonl files that is not
    an object with an "agents" list of objects and a "rewards" list, then
    the largest relative difference per track field, over every agent, and
    of the episode rewards, over the episodes and agents both hold."""
    pairs, bad = paired_records(new_path, old_path, True, ("agents",),
                                ("rewards",))
    gaps = {}
    for new, old in pairs:
        record_gaps([("episode rewards", new["rewards"], old["rewards"])]
                    + [(name, a[name], b[name])
                       for a, b in zip(new["agents"], old["agents"])
                       for name in a.keys() & b.keys()], gaps)
    return bad + gap_lines(gaps)


GAPS = {".csv": column_gaps, "policies.json": policy_gaps,
        ".jsonl": episode_gaps}


def compare(new_dir, old_dir, new, old):
    """Print the files that differ between two runs, with what `GAPS` finds
    in each differing CSV, policies.json or episode file."""
    paths = new.keys() | old.keys()
    differ = sorted(p for p in paths if new.get(p) != old.get(p))
    for path in differ:
        if path not in old or path not in new:
            print("only in %s: %s"
                  % (new_dir if path in new else old_dir, path))
            continue
        print("differs: %s" % path)
        for suffix, gaps_of in GAPS.items():
            if path.endswith(suffix):
                for line in gaps_of(os.path.join(new_dir, path),
                                    os.path.join(old_dir, path)):
                    print("    " + line)
    print("%d of %d files identical" % (len(paths) - len(differ), len(paths)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="directory for the outputs (created)")
    parser.add_argument("--repo", default=CHECKOUT,
                        help="checkout whose src/ and stored batches to run")
    parser.add_argument("--compare", metavar="OLD",
                        help="output directory of an earlier run")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out)
    old_dir = args.compare and os.path.abspath(args.compare)
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        parser.error("%s is not empty" % args.out)
    if old_dir and not os.path.isdir(old_dir):
        parser.error("--compare: %s is not a directory" % args.compare)
    failed = run(os.path.abspath(args.repo), out_dir)
    new = hashes(out_dir)
    for path in sorted(new):
        print("%s  %s" % (new[path], path))
    if old_dir:
        compare(out_dir, old_dir, new, hashes(old_dir))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
