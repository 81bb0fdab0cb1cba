"""tools/identity.py --compare reports a CSV row that is not one number
per column, and an episode line or policies.json that is not a record it
can read, as a difference, instead of stopping with a traceback; an OLD
that is not a directory is a usage error before any command runs."""

import importlib.util
import json
import os

import pytest

IDENTITY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "identity.py")


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("tools_identity", IDENTITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = "iteration,elbo\n1,-10.5\n2,-9.25\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("line, text", [
    ("2,oops", "not a number"),
    ("2", "too short"),
    ("2,-9.25,7", "too long"),
    ("", "blank"),
])
def test_a_bad_row_is_a_reported_difference(identity, tmp_path, line, text):
    new = write(tmp_path, "new.csv", TRACE.replace("2,-9.25", line))
    old = write(tmp_path, "old.csv", TRACE)
    lines = identity.column_gaps(new, old)
    assert "new line 3 is not 2 numbers: %s" % line in lines
    assert "elbo: largest relative difference inf" in lines
    # the rows are still paired: the first one holds no difference
    assert identity.column_gaps(old, new)[0] \
        == "old line 3 is not 2 numbers: %s" % line


def test_a_numeric_change_still_gives_its_gap(identity, tmp_path):
    new = write(tmp_path, "new.csv", TRACE.replace("-9.25", "-9.5"))
    old = write(tmp_path, "old.csv", TRACE)
    gap = abs(-9.5 + 9.25) / 9.25
    assert identity.column_gaps(new, old) == [
        "elbo: largest relative difference %.3g" % gap]


def test_compare_prints_a_bad_row_under_its_file(identity, tmp_path, capsys):
    for side, text in (("new", "iteration,elbo\n1,x\n"), ("old", TRACE)):
        os.makedirs(tmp_path / side / "run")
        write(tmp_path / side / "run", "trace.csv", text)
    dirs = [str(tmp_path / side) for side in ("new", "old")]
    identity.compare(*dirs, *map(identity.hashes, dirs))
    out = capsys.readouterr().out.splitlines()
    assert out == ["differs: %s" % os.path.join("run", "trace.csv"),
                   "    rows: 1 new, 2 old",
                   "    new line 2 is not 2 numbers: 1,x",
                   "    elbo: largest relative difference inf",
                   "    iteration: largest relative difference inf",
                   "0 of 1 files identical"]


def test_an_empty_csv_is_a_reported_difference(identity, tmp_path):
    new = write(tmp_path, "new.csv", "")
    old = write(tmp_path, "old.csv", TRACE)
    assert identity.column_gaps(new, old) == ["rows: 0 new, 2 old"]


EPISODE = {"schema": "specshare-episodes-v1", "k": 0, "rewards": [1, 3],
           "agents": [{"actions": [15, 31], "rewards": [1, 3]}]}
EPISODES = "".join(json.dumps(dict(EPISODE, k=k)) + "\n" for k in range(3))


def test_a_cut_episode_file_is_a_reported_difference(identity, tmp_path):
    new = write(tmp_path, "new.jsonl", EPISODES[:len(EPISODES) // 2])
    old = write(tmp_path, "old.jsonl", EPISODES)
    lines = identity.episode_gaps(new, old)
    assert lines[0] == "records: 2 new, 3 old"
    assert lines[1].startswith("new line 2 is not a record: ")
    assert len(lines) == 2  # the first episodes are equal


@pytest.mark.parametrize("change, why", [
    ({"agents": None}, "no 'agents' list"),
    ({"agents": [[15, 31]]}, "'agents' holds a non-object"),
    ({"rewards": "1, 3"}, "no 'rewards' list"),
])
def test_an_episode_line_without_a_list_is_reported(identity, tmp_path,
                                                    change, why):
    lines = EPISODES.splitlines(keepends=True)
    lines[1] = json.dumps(dict(EPISODE, k=1, **change)) + "\n"
    new = write(tmp_path, "new.jsonl", "".join(lines))
    old = write(tmp_path, "old.jsonl", EPISODES)
    assert identity.episode_gaps(new, old) \
        == ["new line 2 is not a record: " + why]


def test_a_line_without_agents_or_not_an_object_is_reported(identity,
                                                            tmp_path):
    missing = {key: v for key, v in EPISODE.items() if key != "agents"}
    new = write(tmp_path, "new.jsonl", json.dumps(missing) + "\n[]\n")
    old = write(tmp_path, "old.jsonl", EPISODES)
    assert identity.episode_gaps(new, old) == [
        "records: 2 new, 3 old",
        "new line 1 is not a record: no 'agents' list",
        "new line 2 is not a record: not an object"]


def test_a_non_numeric_field_has_an_infinite_gap(identity, tmp_path):
    text = EPISODES.replace('"actions": [15, 31]', '"actions": [15, "x"]', 1)
    new = write(tmp_path, "new.jsonl", text)
    old = write(tmp_path, "old.jsonl", EPISODES)
    assert identity.episode_gaps(new, old) \
        == ["actions: largest relative difference inf"]


POLICIES = json.dumps({"schema": "specshare-policies-v1", "policies": [
    {"node_count": 1, "eta": [1.0], "pi": [[0.25, 0.75]]}]})


@pytest.mark.parametrize("text, line, why", [
    (POLICIES[:40], 1, "Unterminated string starting at (column 37)"),
    (POLICIES.replace(", ", ",\n")[:60], 2,
     "Unterminated string starting at (column 15)"),
    (json.dumps({"schema": "specshare-policies-v1"}), 1,
     "no 'policies' list"),
    (json.dumps({"policies": [[1.0]]}), 1, "'policies' holds a non-object"),
])
def test_a_bad_policies_file_is_a_reported_difference(identity, tmp_path,
                                                      text, line, why):
    new = write(tmp_path, "new.json", text)
    old = write(tmp_path, "old.json", POLICIES)
    lines = identity.policy_gaps(new, old)
    assert lines == ["new line %d is not a record: %s" % (line, why)]


def test_a_policy_change_still_gives_its_gap(identity, tmp_path):
    new = write(tmp_path, "new.json", POLICIES.replace("0.75", "0.5"))
    old = write(tmp_path, "old.json", POLICIES)
    assert identity.policy_gaps(new, old) \
        == ["pi: largest relative difference 0.333"]


def test_compare_prints_a_cut_episode_file_under_it(identity, tmp_path,
                                                    capsys):
    for side, text in (("new", EPISODES), ("old", EPISODES[:30])):
        os.makedirs(tmp_path / side / "collect")
        write(tmp_path / side / "collect", "seed0.jsonl", text)
    dirs = [str(tmp_path / side) for side in ("new", "old")]
    identity.compare(*dirs, *map(identity.hashes, dirs))
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["differs: %s" % os.path.join("collect", "seed0.jsonl"),
                       "    records: 3 new, 1 old",
                       "    old line 1 is not a record: Unterminated string "
                       "starting at (column 12)"]
    assert out[3:] == ["0 of 1 files identical"]


def test_a_missing_old_directory_stops_before_any_command(
        identity, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a command ran")
    monkeypatch.setattr(identity, "run", refuse)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        identity.main(["--out", str(out), "--compare",
                       str(tmp_path / "missing")])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not out.exists()
