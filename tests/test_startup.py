"""Start-up cost: only the learner's special functions need scipy.

`specshare.distributions` imports scipy.special on the first digamma or
gammaln call. Each case below runs in a fresh interpreter, because the test
process itself has long since loaded scipy.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from specshare import distributions
from specshare.cli import main
from specshare.simulator import SimConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
RUN_CLI = "from specshare.cli import main\nassert main(sys.argv[1:]) == 0"


def scipy_modules_after(statement, argv=()):
    """The scipy modules loaded after `statement` runs in a fresh
    interpreter with `argv` as its arguments."""
    script = ("import json, sys\n" + statement + "\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small config, an episode batch and a learned run directory."""
    root = tmp_path_factory.mktemp("startup")
    config = root / "config.json"
    config.write_text(json.dumps(
        SimConfig(lte_count=1, wifi_count=1, seed=0).to_json()))
    episodes = root / "episodes.jsonl"
    assert main(["collect", "--config", str(config), "--out", str(episodes),
                 "--k", "3", "--t", "6", "--seed", "1"]) == 0
    assert main(["learn", "--episodes", str(episodes), "--out",
                 str(root / "run"), "--max-iters", "3"]) == 0
    return root


@pytest.mark.parametrize("statement", ["import specshare",
                                       "import specshare.cli"])
def test_import_leaves_scipy_out(statement):
    assert scipy_modules_after(statement) == []


def test_collect_leaves_scipy_out(run_dir):
    assert scipy_modules_after(RUN_CLI, [
        "collect", "--config", str(run_dir / "config.json"),
        "--out", str(run_dir / "fresh.jsonl"), "--k", "2", "--t", "4"]) == []


def test_evaluate_leaves_scipy_out(run_dir):
    assert scipy_modules_after(RUN_CLI, [
        "evaluate", "--policies", str(run_dir / "run" / "policies.json"),
        "--episodes", str(run_dir / "episodes.jsonl"),
        "--config", str(run_dir / "config.json"),
        "--k", "2", "--t", "4"]) == []


def test_report_leaves_scipy_out(run_dir):
    assert scipy_modules_after(
        RUN_CLI, ["report", "--trace-dir", str(run_dir / "run")]) == []


def test_learn_loads_scipy(run_dir):
    loaded = scipy_modules_after(RUN_CLI, [
        "learn", "--episodes", str(run_dir / "episodes.jsonl"),
        "--out", str(run_dir / "again"), "--max-iters", "2"])
    assert "scipy.special" in loaded


class TestGammaln:
    def test_matches_scipy_on_arrays(self):
        xs = np.array([[1e-3, 0.1, 0.5, 1.0], [2.0, 2.5, 10.0, 170.5]])
        out = distributions.gammaln(xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert np.array_equal(out, scipy.special.gammaln(xs))

    @pytest.mark.parametrize("x", [0.3, 1, 4.5, np.float64(7.0),
                                   np.array(2.5)])
    def test_scalar_comes_back_as_float(self, x):
        out = distributions.gammaln(x)
        assert type(out) is float
        assert out == float(scipy.special.gammaln(x))

    @pytest.mark.parametrize("x", [0.0, -1.5, np.inf, np.nan,
                                   [1.0, 0.0]])
    def test_rejects_outside_domain(self, x):
        with pytest.raises(ValueError, match="gammaln requires"):
            distributions.gammaln(x)
