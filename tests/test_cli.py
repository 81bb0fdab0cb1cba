import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specshare import learning, trajectories
from specshare.cli import main
from specshare.simulator import SimConfig


def write_config(tmp_path, **overrides):
    cfg = SimConfig(lte_count=1, wifi_count=1, seed=0, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


def test_collect_learn_evaluate_report_pipeline(tmp_path, capsys):
    config = write_config(tmp_path)
    episodes = str(tmp_path / "episodes.jsonl")
    assert main(["collect", "--config", config, "--out", episodes,
                 "--k", "4", "--t", "10", "--seed", "1"]) == 0
    with open(episodes) as fh:
        assert sum(1 for _ in fh) == 4

    out_dir = str(tmp_path / "run")
    assert main(["learn", "--episodes", episodes, "--out", out_dir,
                 "--max-iters", "10", "--max-nodes", "4"]) == 0
    assert os.path.exists(os.path.join(out_dir, "policies.json"))
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["iteration", "elbo", "discounted_value"]
    assert len(rows) >= 2

    assert main(["evaluate", "--policies", os.path.join(out_dir, "policies.json"),
                 "--episodes", episodes,
                 "--out", str(tmp_path / "eval.json")]) == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert "discounted_value" in report

    assert main(["report", "--trace-dir", out_dir]) == 0
    for name in ("elbo.csv", "nodes.csv", "value.csv", "gh.csv"):
        with open(os.path.join(out_dir, name)) as fh:
            out_rows = list(csv.reader(fh))
        assert len(out_rows) == len(rows)


def test_collect_deterministic_file_hash(tmp_path):
    config = write_config(tmp_path)
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        out = str(tmp_path / name)
        assert main(["collect", "--config", config, "--out", out,
                     "--k", "2", "--t", "6", "--seed", "9"]) == 0
        digests.append(hashlib.sha256((tmp_path / name).read_bytes())
                       .hexdigest())
    assert digests[0] == digests[1]


def test_usage_error_exit_code():
    assert main(["collect"]) == 1          # missing required flags
    assert main(["no-such-command"]) == 1


def test_data_error_exit_code(tmp_path):
    assert main(["learn", "--episodes", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["collect", "--config", str(bad),
                 "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("mutate", [
    lambda d: {**d, "lte_counts": 1},
    lambda d: {**d, "lte_count": "1"},
    lambda d: [d["lte_count"], d["wifi_count"]],
    lambda d: {**d, "rate_mbps": 0},
    lambda d: {**d, "wifi_slot_us": 0},
    lambda d: {**d, "lte_burst_ms": {k: 0 for k in d["lte_burst_ms"]}},
    lambda d: {**d, "wifi_packet_bytes": 0},
    lambda d: {**d, "lte_burst_ms": {**d["lte_burst_ms"], "1023": 11}},
    lambda d: {**d, "wifi_packet_bytes": 37501},  # 10,000.3 us at 30 Mbps
    lambda d: {**d, "wifi_packet_bytes": 1},  # 0.27 us at 30 Mbps
    lambda d: {**d, "rate_mbps": 1e9},  # 15,000 bytes in 0.00012 us
    lambda d: {**d, "lte_burst_ms": {**d["lte_burst_ms"], " 15": 9}},
    lambda d: {**d, "lte_burst_ms": {**d["lte_burst_ms"], "015": 9}},
    lambda d: {**d, "lte_burst_ms": {**d["lte_burst_ms"], "x": 3}},
], ids=["unknown-key", "string-count", "json-array", "zero-rate",
        "zero-slot", "zero-lte-burst", "zero-packet", "11-ms-lte-burst",
        "over-10-ms-packet", "sub-us-packet", "packet-rounds-to-zero",
        "spaced-lte-burst-key", "zero-padded-lte-burst-key",
        "letter-lte-burst-key"])
def test_bad_config_exit_code(tmp_path, capsys, mutate):
    good = SimConfig(lte_count=1, wifi_count=1, seed=0).to_json()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(good)))
    assert main(["collect", "--config", str(bad), "--k", "1", "--t", "2",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("mutate", [
    lambda recs: recs[0]["agents"][0]["obs_bin"].__setitem__(2, 24),
    lambda recs: recs[1]["agents"][1]["obs_bin"].__setitem__(0, -1),
    lambda recs: recs[1]["agents"].pop(),
    lambda recs: recs[0]["agents"][0]["obs_bin"].pop(),
    lambda recs: recs[0]["agents"][0]["pi_behavior"].__setitem__(1, 0.0),
    lambda recs: recs[1]["agents"][1]["pi_behavior"].__setitem__(0, -0.5),
    lambda recs: recs[2]["agents"][0]["pi_behavior"].__setitem__(5, 1.5),
    lambda recs: recs[2]["rewards"].__setitem__(3, float("nan")),
    lambda recs: recs[0].__setitem__("rewards", None),
    lambda recs: recs[0].__setitem__("agents", 5),
    lambda recs: recs[1]["agents"].__setitem__(0, 5),
    lambda recs: recs[0]["agents"][1].__setitem__("actions", None),
    lambda recs: recs[0]["agents"][0].__setitem__("actions", "15"),
    lambda recs: recs[2]["agents"][0].__setitem__("pi_behavior", None),
    lambda recs: recs.__setitem__(1, [1, 2]),
    lambda recs: recs[0]["agents"][0]["actions"].__setitem__(2, 15.5),
    lambda recs: recs[1].__setitem__("k", True),
], ids=["obs-bin-too-large", "obs-bin-negative", "agent-missing",
        "obs-bin-short", "pi-behavior-zero", "pi-behavior-negative",
        "pi-behavior-above-one", "reward-nan", "rewards-null", "agents-int",
        "agent-int", "actions-null", "actions-string", "pi-behavior-null",
        "record-array", "action-float", "k-bool"])
def test_bad_batch_exit_code(tmp_path, capsys, mutate):
    config = write_config(tmp_path)
    good = tmp_path / "good.jsonl"
    assert main(["collect", "--config", config, "--out", str(good),
                 "--k", "3", "--t", "6", "--seed", "4"]) == 0
    records = [json.loads(line) for line in good.read_text().splitlines()]
    mutate(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["learn", "--episodes", str(bad), "--out",
                 str(tmp_path / "run"), "--max-iters", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field, k, n, t, change", [
    ("obs_bin", 0, 0, 0, lambda b: 7),      # stored 12, from obs_us 4714
    ("obs_us", 3, 1, 9, lambda us: 2 * us),  # the last step, one bin up
    ("obs_us", 1, 1, 3, lambda us: 0),
    ("obs_us", 2, 0, 0, lambda us: -us),     # frexp's bin of -us is us's
], ids=["bin-7-for-12", "last-step-wait-doubled", "wait-zero",
        "wait-negated"])
def test_stored_obs_bin_must_be_the_bin_of_obs_us(tmp_path, capsys, field,
                                                  k, n, t, change):
    records = stored_records()
    track = records[k]["agents"][n]
    track[field][t] = change(track[field][t])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["learn", "--episodes", str(bad), "--out",
                 str(tmp_path / "run"), "--max-iters", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: episode %d agent %d step %d: " % (k, n, t))
    assert err.count("\n") == 1


STORED_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "data")
STORED_BATCH = os.path.join(STORED_DATA, "learn-small", "batch_1.jsonl")
STORED_CONFIG = os.path.join(STORED_DATA, "small.json")
DELETE = object()  # a mutation that removes the field


def mutate(data, path, value):
    """Delete the field of `data` at `path`, or set it to `value`."""
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    if value is DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value


def assert_exits_cleanly(argv):
    """The command exits 0, or 2 with exactly one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def stored_records():
    with open(STORED_BATCH) as fh:
        return [json.loads(line) for line in fh]


def field_paths(records):
    """Every field of a batch, down to the first and last step of a list."""
    paths = [(k,) for k in range(len(records))]
    for k, rec in enumerate(records):
        paths += [(k, key) for key in rec] + [(k, "rewards", 0),
                                              (k, "rewards", -1)]
        for n, agent in enumerate(rec["agents"]):
            paths.append((k, "agents", n))
            paths += [(k, "agents", n, key) for key in agent]
            paths += [(k, "agents", n, key, t) for key in agent
                      for t in (0, -1)]
    return paths


@settings(max_examples=60, deadline=None)
@given(path=st.deferred(
           lambda: st.sampled_from(field_paths(stored_records()))),
       value=st.sampled_from([DELETE, None, 5, 15.5, -1, True, "x", [], [5],
                              {}]))
@example(path=(0, "rewards"), value=None)
@example(path=(0, "agents"), value=5)
@example(path=(0, "agents", 0), value=5)
@example(path=(0, "agents", 0, "actions"), value=None)
@example(path=(0, "agents", 0, "actions"), value="x")
@example(path=(0, "agents", 0, "pi_behavior"), value=None)
@example(path=(0,), value=[5])
@example(path=(0, "agents", 0, "actions", 0), value=15.5)
def test_learn_on_one_mutated_field_exits_cleanly(path, value):
    records = stored_records()
    mutate(records, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        batch = os.path.join(tmp, "batch.jsonl")
        with open(batch, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
        assert_exits_cleanly(["learn", "--episodes", batch, "--out",
                              os.path.join(tmp, "run"), "--max-iters", "2"])


@functools.lru_cache(maxsize=None)
def stored_policies_text():
    """The policies file that three learner iterations write for the
    stored batch."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["learn", "--episodes", STORED_BATCH, "--out", tmp,
                         "--max-iters", "3"]) == 0
        with open(os.path.join(tmp, "policies.json")) as fh:
            return fh.read()


def policy_paths(data):
    """Every field of a policies file, down to the first and last entry of
    a list, of a pi row and of the first and last omega rows."""
    paths = [("schema",), ("policies",)]
    for n, pol in enumerate(data["policies"]):
        at = ("policies", n)
        paths += [at] + [at + (key,) for key in pol]
        paths += [at + (key, i) for key in ("eta", "pi", "action_set")
                  for i in (0, -1)]
        paths += [at + ("pi", i, j) for i in (0, -1) for j in (0, -1)]
        for row in (min(pol["omega"]), max(pol["omega"])):
            paths += [at + ("omega", row)]
            paths += [at + ("omega", row, i) for i in (0, -1)]
    return paths


@settings(max_examples=60, deadline=None)
@given(path=st.deferred(lambda: st.sampled_from(
           policy_paths(json.loads(stored_policies_text())))),
       value=st.sampled_from([DELETE, None, True, 0, 1, -1, 5, 1.5, "x", [],
                              [5], {}, math.nan]))
@example(path=("policies",), value={})
@example(path=("policies", 0), value=5)
@example(path=("policies", 1), value=DELETE)
@example(path=("policies", 0, "action_set"), value=None)
@example(path=("policies", 0, "eta", 0), value={})
@example(path=("policies", 0, "pi", 0, 0), value=math.nan)
@example(path=("policies", 0, "omega", "0/15/23", 0), value=math.nan)
@example(path=("policies", 0, "omega"), value=[])
@example(path=("policies", 0, "node_count"), value=0)
@example(path=("policies", 0, "n_obs_bins"), value=True)
@example(path=("policies", 0, "n_obs_bins"), value=1.5)
def test_policies_with_one_mutated_field_exit_cleanly(path, value):
    data = json.loads(stored_policies_text())
    mutate(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        policies = os.path.join(tmp, "policies.json")
        with open(policies, "w") as fh:
            json.dump(data, fh)
        assert_exits_cleanly(["evaluate", "--policies", policies,
                              "--episodes", STORED_BATCH])
        assert_exits_cleanly(["collect", "--config", STORED_CONFIG,
                              "--policies", policies, "--k", "1", "--t", "3",
                              "--out", os.path.join(tmp, "eps.jsonl")])


@pytest.mark.parametrize("field", ["eta", "pi", "omega", "action_set"])
def test_a_true_in_a_policy_exits_2_naming_the_field(tmp_path, capsys, field):
    # json reads true as a bool, which numpy would take for 1.0
    data = json.loads(stored_policies_text())
    pol = data["policies"][0]
    z, name = pol["node_count"], field
    if field == "eta":
        pol["eta"] = [True] + [0] * (z - 1)
    elif field == "pi":
        pol["pi"][0] = [True] + [0] * (len(pol["action_set"]) - 1)
    elif field == "omega":
        name = "omega row %s" % min(pol["omega"])
        pol["omega"][min(pol["omega"])] = [True] + [0] * (z - 1)
    else:
        pol["action_set"][0] = True
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(data))
    out = tmp_path / "eps.jsonl"
    for argv in (["evaluate", "--episodes", STORED_BATCH],
                 ["collect", "--config", STORED_CONFIG, "--k", "1", "--t",
                  "3", "--out", str(out)]):
        assert main(argv + ["--policies", str(policies)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s policy 0: %s must be "
                              % (policies, name))
        assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("keep", [False, True],
                         ids=["renamed", "beside-the-plain-key"])
def test_an_omega_key_not_written_as_plain_decimals_exits_2(tmp_path, capsys,
                                                            keep):
    # int() reads "015" as 15, so "0/015/0" would name row 0/15/0; with the
    # plain key kept too, one other row goes to keep the row count
    data = json.loads(stored_policies_text())
    omega = data["policies"][0]["omega"]
    row = omega["0/15/0"] if keep else omega.pop("0/15/0")
    if keep:
        del omega[max(omega)]
    omega["0/015/0"] = row
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(data))
    assert main(["evaluate", "--episodes", STORED_BATCH, "--policies",
                 str(policies)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: %s policy 0: omega key '0/015/0' is not "
                   "node/action/bin of this policy\n" % policies)


@pytest.mark.parametrize("count", [1, 3])
def test_collect_needs_one_policy_per_agent(tmp_path, capsys, count):
    data = json.loads(stored_policies_text())
    data["policies"] = (data["policies"] * 2)[:count]
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(data))
    assert main(["collect", "--config", STORED_CONFIG, "--policies",
                 str(policies), "--k", "1", "--t", "3",
                 "--out", str(tmp_path / "eps.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == "error: %d policies for 2 agents\n" % count


def test_collect_rejects_actions_outside_the_cw_set(tmp_path, capsys):
    # shifted by one, the last action is 1024: rejected before simulating,
    # whether or not a run would ever draw it
    data = json.loads(stored_policies_text())
    pol = data["policies"][1]
    pol["action_set"] = [a + 1 for a in pol["action_set"]]
    pol["omega"] = {"%s/%d/%s" % (i, int(a) + 1, o): row
                    for (i, a, o), row in
                    ((key.split("/"), row) for key, row in pol["omega"].items())}
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(data))
    out = tmp_path / "eps.jsonl"
    assert main(["collect", "--config", STORED_CONFIG, "--policies",
                 str(policies), "--k", "1", "--t", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: policy 1: action_set entries [16, ")
    assert err.endswith(", 1024] are not in the config's cw_set\n")
    assert not out.exists()


def config_paths():
    """Every field of the stored config and every entry of its maps, the
    first and last of its lists."""
    with open(STORED_CONFIG) as fh:
        config = json.load(fh)
    return ([(key,) for key in config] + [("cw_set", 0), ("cw_set", -1)]
            + [("lte_burst_ms", cw) for cw in config["lte_burst_ms"]])


def config_mutations(path):
    """The values a config field is mutated to: 10**9 too, except for the
    agent counts, which would build one agent per unit."""
    values = [DELETE, None, True, "x", -1, 0, 1.5, [], {}, math.nan]
    if path not in (("lte_count",), ("wifi_count",)):
        values.append(10 ** 9)
    return st.tuples(st.just(path), st.sampled_from(values))


@settings(max_examples=60, deadline=None)
@given(mutation=st.sampled_from(config_paths()).flatmap(config_mutations))
@example(mutation=(("unknown_key",), 1))
@example(mutation=(("cw_set", 0), 0))  # a window without an LTE burst
@example(mutation=(("lte_burst_ms", "1023"), 10 ** 9))
@example(mutation=(("wifi_packet_bytes",), 10 ** 9))
def test_config_with_one_mutated_field_exits_cleanly(mutation):
    path, value = mutation
    with open(STORED_CONFIG) as fh:
        config = json.load(fh)
    mutate(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, "config.json")
        with open(mutated, "w") as fh:
            json.dump(config, fh)
        assert_exits_cleanly(["collect", "--config", mutated, "--k", "1",
                              "--t", "3", "--out",
                              os.path.join(tmp, "eps.jsonl")])


@pytest.mark.parametrize("limit", [
    ["--max-iters", "0"],
    ["--max-iters", "-3"],
    ["--max-nodes", "0"],
    ["--prune-epsilon", "0"],
    ["--prune-epsilon", "1"],
    ["--tol", "nan"],
    ["--tol", "-1"],
    ["--tol", "inf"],
], ids=["max-iters-zero", "max-iters-negative", "max-nodes-zero",
        "prune-epsilon-zero", "prune-epsilon-one", "tol-nan", "tol-negative",
        "tol-infinite"])
def test_bad_learn_limit_exit_code(tmp_path, capsys, limit):
    config = write_config(tmp_path)
    episodes = str(tmp_path / "eps.jsonl")
    assert main(["collect", "--config", config, "--out", episodes,
                 "--k", "2", "--t", "4", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["learn", "--episodes", episodes, "--out",
                 str(tmp_path / "run")] + limit) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need max_iters") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_report_g_column_constant(tmp_path):
    config = write_config(tmp_path)
    episodes = str(tmp_path / "eps.jsonl")
    main(["collect", "--config", config, "--out", episodes,
          "--k", "3", "--t", "8", "--seed", "2"])
    out_dir = str(tmp_path / "run")
    main(["learn", "--episodes", episodes, "--out", out_dir,
          "--max-iters", "8"])
    main(["report", "--trace-dir", out_dir])
    with open(os.path.join(out_dir, "gh.csv")) as fh:
        rows = list(csv.reader(fh))
    g_cols = [i for i, name in enumerate(rows[0]) if name.startswith("g_")]
    for i in g_cols:
        column = {row[i] for row in rows[1:]}
        assert len(column) == 1



def test_trace_csv_records_norm_a_and_b_min(tmp_path):
    config = write_config(tmp_path)
    episodes = str(tmp_path / "eps.jsonl")
    assert main(["collect", "--config", config, "--out", episodes,
                 "--k", "3", "--t", "8", "--seed", "5"]) == 0
    out_dir = str(tmp_path / "run")
    assert main(["learn", "--episodes", episodes, "--out", out_dir,
                 "--max-iters", "6", "--max-nodes", "4"]) == 0
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "elbo", "discounted_value",
                       "nodes_agent_1", "nodes_agent_2", "g_1", "g_2",
                       "h_1", "h_2", "norm", "a_1", "a_2", "b_min_1",
                       "b_min_2", "live_1", "live_2", "ess", "max_share"]
    trace = learning.learn(trajectories.load(episodes),
                           learning.Hyperparams(), max_iters=6,
                           max_nodes=4).trace
    assert len(rows) == trace.iterations + 1
    for i, row in enumerate(rows[1:]):
        expect = ([i + 1, trace.elbo[i], trace.value[i]]
                  + trace.node_counts[i] + trace.g[i] + trace.h[i]
                  + [trace.norm[i]] + trace.a[i] + trace.b_min[i]
                  + trace.live[i] + [trace.ess[i], trace.max_share[i]])
        assert [float(v) for v in row] == expect

    assert main(["report", "--trace-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "norm_ab.csv")) as fh:
        extra = list(csv.reader(fh))
    assert extra[0] == ["iteration", "norm", "a_1", "a_2", "b_min_1",
                        "b_min_2"]
    assert [r[1:] for r in extra[1:]] == [r[9:14] for r in rows[1:]]
    for name, first, stop in (("live.csv", 14, 16), ("weights.csv", 16, 18)):
        with open(os.path.join(out_dir, name)) as fh:
            extra = list(csv.reader(fh))
        assert extra[0] == ["iteration"] + rows[0][first:stop]
        assert [r[1:] for r in extra[1:]] == [r[first:stop]
                                              for r in rows[1:]]


def test_report_reads_a_trace_without_live_or_weights(tmp_path):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "trace.csv").write_text(
        "iteration,elbo,discounted_value,nodes_agent_1,g_1,h_1\n"
        "1,-10.0,2.0,3,3.1,100.0\n")
    assert main(["report", "--trace-dir", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == ["elbo.csv", "gh.csv", "nodes.csv",
                                           "trace.csv", "value.csv"]


def test_report_rejects_a_row_shorter_than_the_header(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "trace.csv").write_text(
        "iteration,elbo,discounted_value\n1,-10.0\n")
    assert main(["report", "--trace-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: trace file line 2 has 2 values for 3 columns\n"


def test_report_rejects_a_trace_with_a_header_only(tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "trace.csv").write_text("iteration,elbo,discounted_value\n")
    assert main(["report", "--trace-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: trace file has no iterations\n"
    assert os.listdir(out_dir) == ["trace.csv"]


def test_report_rejects_a_trace_without_an_iteration_column(tmp_path,
                                                             capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "trace.csv").write_text("elbo,discounted_value\n-10.0,2.0\n")
    assert main(["report", "--trace-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: trace file has no iteration column\n"


@pytest.mark.parametrize("hyper", [
    "[1, 2]",
    '{"c": 0.1, "bogus": 1}',
    '{"c": "0.1"}',
    '{"theta": true}',
    '{"c": Infinity}',
], ids=["json-array", "unknown-key", "string-value", "bool-value",
        "infinite-value"])
def test_bad_hyper_file_exit_code(tmp_path, capsys, hyper):
    config = write_config(tmp_path)
    episodes = str(tmp_path / "eps.jsonl")
    assert main(["collect", "--config", config, "--out", episodes,
                 "--k", "2", "--t", "4", "--seed", "3"]) == 0
    bad = tmp_path / "hyper.json"
    bad.write_text(hyper)
    assert main(["learn", "--episodes", episodes, "--hyper", str(bad),
                 "--out", str(tmp_path / "run"), "--max-iters", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_mixed_length_batch_exit_code(tmp_path, capsys):
    lines = []
    for t in (6, 10):
        part = tmp_path / ("t%d.jsonl" % t)
        assert main(["collect", "--config", STORED_CONFIG, "--out", str(part),
                     "--k", "1", "--t", str(t), "--seed", "5"]) == 0
        lines.append(part.read_text())
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(lines))
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    capsys.readouterr()
    for argv in (["learn", "--out", str(tmp_path / "run")],
                 ["evaluate", "--policies", str(policies)]):
        assert main(argv + ["--episodes", str(mixed)]) == 2
        err = capsys.readouterr().err
        assert err == "error: episode 1 has 10 steps, the first has 6\n"


def test_evaluate_names_an_action_outside_the_action_set(tmp_path, capsys):
    records = stored_records()
    records[0]["agents"][0]["actions"][0] = 17
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(r) + "\n" for r in records))
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    action_set = json.loads(policies.read_text())["policies"][0]["action_set"]
    capsys.readouterr()
    assert main(["evaluate", "--policies", str(policies), "--episodes",
                 str(batch)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: episode 0 agent 0: action 17 is not in the action "
                   "set %s\n" % action_set)


@pytest.mark.parametrize("gamma", ["1.5", "nan", "-0.5", "inf", "1"])
def test_evaluate_rejects_a_discount_outside_zero_one(tmp_path, capsys, gamma):
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    assert main(["evaluate", "--policies", str(policies), "--episodes",
                 STORED_BATCH, "--gamma", gamma]) == 2
    err = capsys.readouterr().err
    assert err == "error: gamma: discount must be in [0, 1)\n"


def test_overflowing_importance_ratios_exit_3(tmp_path, capsys):
    # 1e-300 lies in the (0, 1] a batch accepts, but as every behaviour
    # probability it makes the importance ratios overflow
    records = stored_records()
    for rec in records:
        for agent in rec["agents"]:
            agent["pi_behavior"] = [1e-300] * len(agent["pi_behavior"])
    batch = tmp_path / "tiny.jsonl"
    batch.write_text("".join(json.dumps(r) + "\n" for r in records))
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        for argv in (["learn", "--out", str(tmp_path / "run")],
                     ["evaluate", "--policies", str(policies)]):
            assert main(argv + ["--episodes", str(batch)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("numeric failure: ") \
                and err.count("\n") == 1


def test_learners_own_underflow_exits_3_naming_the_iteration(tmp_path,
                                                             capsys):
    # with theta = 0.001 the first multi-node estimate's omega and pi
    # entries of some visited history multiply to below the smallest double
    # in the scaled forward pass at iteration 1; the stored batch is good
    # data, so this is a numeric failure
    hyper = tmp_path / "hyper.json"
    hyper.write_text('{"theta": 0.001}')
    assert main(["learn", "--episodes", STORED_BATCH, "--hyper", str(hyper),
                 "--out", str(tmp_path / "run")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numeric failure: iteration 1: point estimate underflow: "
                   "history has zero likelihood under the policy\n")


def test_a_bound_lost_to_rounding_exits_3_naming_the_iteration(tmp_path,
                                                               capsys):
    # at theta = 1e100 the action rows' Dirichlet terms reach 1e104 and the
    # bound, about 4e87, is rounding; the stop rule fires at iteration 6 on
    # it, which is a numeric failure and no convergence
    hyper = tmp_path / "hyper.json"
    hyper.write_text('{"theta": 1e100}')
    assert main(["learn", "--episodes", STORED_BATCH, "--hyper", str(hyper),
                 "--out", str(tmp_path / "run")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: iteration 6: the bound ")
    assert " has no significant digit: its 3234 terms reach " in err


def test_a_small_dirichlet_prior_learns_to_the_end(tmp_path, capsys):
    # theta = 0.01 makes one-node estimate entries whose product for some
    # visited step is below the smallest double; the learner adds their logs
    hyper = tmp_path / "hyper.json"
    hyper.write_text('{"theta": 0.01}')
    assert main(["learn", "--episodes", STORED_BATCH, "--hyper", str(hyper),
                 "--out", str(tmp_path / "run")]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("converged=True iterations=166 ")


def test_collect_runs_the_config_horizon_by_default(tmp_path):
    config = write_config(tmp_path, horizon=7)
    paths = [str(tmp_path / name) for name in ("default.jsonl", "t7.jsonl")]
    for path, extra in zip(paths, ([], ["--t", "7"])):
        assert main(["collect", "--config", config, "--out", path,
                     "--k", "2"] + extra) == 0
    episodes = trajectories.load(paths[0])
    assert [len(tr.actions) for ep in episodes for tr in ep.agents] == [7] * 4
    with open(paths[0], "rb") as fh, open(paths[1], "rb") as fh_t:
        assert fh.read() == fh_t.read()


def test_evaluate_takes_gamma_and_horizon_from_the_config(tmp_path, capsys):
    config = write_config(tmp_path, gamma=0.5, horizon=6)
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    base = ["evaluate", "--policies", str(policies), "--episodes",
            STORED_BATCH]
    reports = []
    for argv in (base + ["--config", config, "--k", "2"],
                 base + ["--config", config, "--k", "2", "--gamma", "0.5",
                         "--t", "6"],
                 base + ["--config", config, "--k", "2", "--gamma", "0.9"],
                 base, base + ["--gamma", "0.9"]):
        capsys.readouterr()
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]  # the config's gamma and horizon
    assert reports[2]["discounted_value"] != reports[0]["discounted_value"]
    assert reports[3] == reports[4]  # without a config, gamma stays 0.9


@pytest.mark.parametrize("flag", [["--k", "3"], ["--t", "5"], ["--seed", "1"],
                                  ["--k", "3", "--seed", "1"]])
def test_evaluate_rollout_flags_need_a_config(tmp_path, capsys, flag):
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    capsys.readouterr()
    assert main(["evaluate", "--policies", str(policies), "--episodes",
                 STORED_BATCH] + flag) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and err.count("\n") == 1
    assert all(f in err for f in flag if f.startswith("--"))


def test_a_config_seed_other_than_zero_exits_2(tmp_path, capsys):
    # every episode is seeded from --seed, so the file's seed would change
    # nothing; seed 0, as in every stored config, still runs
    config = write_config(tmp_path)
    with open(config) as fh:
        data = json.load(fh)
    data["seed"] = 5
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(data))
    policies = tmp_path / "policies.json"
    policies.write_text(stored_policies_text())
    capsys.readouterr()
    for argv in (["collect", "--out", str(tmp_path / "eps.jsonl"), "--k", "1",
                  "--t", "3"],
                 ["evaluate", "--policies", str(policies), "--episodes",
                  STORED_BATCH, "--k", "1", "--t", "3"]):
        assert main(argv + ["--config", str(seeded)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s: seed must be 0; episodes are seeded " \
            "from --seed\n" % seeded
        assert main(argv + ["--config", config]) == 0
        capsys.readouterr()
