import csv
import hashlib
import json
import os

import pytest

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
    assert sum(1 for _ in open(episodes)) == 4

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
        digests.append(hashlib.sha256(open(out, "rb").read()).hexdigest())
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
], ids=["unknown-key", "string-count", "json-array", "zero-rate",
        "zero-slot", "zero-lte-burst", "zero-packet"])
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
], ids=["obs-bin-too-large", "obs-bin-negative", "agent-missing",
        "obs-bin-short", "pi-behavior-zero", "pi-behavior-negative",
        "pi-behavior-above-one", "reward-nan"])
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
                       "b_min_2"]
    trace = learning.learn(trajectories.load(episodes),
                           learning.Hyperparams(), max_iters=6,
                           max_nodes=4).trace
    assert len(rows) == trace.iterations + 1
    for i, row in enumerate(rows[1:]):
        expect = ([i + 1, trace.elbo[i], trace.value[i]]
                  + trace.node_counts[i] + trace.g[i] + trace.h[i]
                  + [trace.norm[i]] + trace.a[i] + trace.b_min[i])
        assert [float(v) for v in row] == expect

    assert main(["report", "--trace-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "norm_ab.csv")) as fh:
        extra = list(csv.reader(fh))
    assert extra[0] == ["iteration", "norm", "a_1", "a_2", "b_min_1",
                        "b_min_2"]
    assert [r[1:] for r in extra[1:]] == [r[9:] for r in rows[1:]]
