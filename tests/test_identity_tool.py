"""tools/identity.py --compare reports a CSV row that is not one number
per column as a difference, instead of stopping with a traceback."""

import importlib.util
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
