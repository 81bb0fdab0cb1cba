"""Start-up cost: each command imports only what it runs, so `report` and
a bare `import specshare.cli` load no numpy, `collect` no learner, and
`learn` and `evaluate` without `--config` no channel simulator; only the
learner's special functions need scipy, and they need only its compiled
ufuncs.

`specshare.distributions` loads scipy on the first digamma or gammaln call:
`scipy.special._ufuncs` alone, under a stand-in for the `scipy.special`
package that is gone again afterwards, unless the package is loaded
already. Each case below runs in a fresh interpreter, because the test
process itself has long since loaded the package (it imports it here),
and only there does the first call take the lean path.
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


def modules_after(statement, argv=()):
    """The names of the modules loaded after `statement` runs in a fresh
    interpreter with `argv` as its arguments."""
    script = ("import json, sys\n" + statement + "\n"
              "print(json.dumps(sorted(sys.modules)))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def under(package, modules):
    """The modules of `package` among `modules`."""
    return [m for m in modules if m.split(".")[0] == package]


def scipy_modules_after(statement, argv=()):
    """The scipy modules loaded after `statement` runs in a fresh
    interpreter with `argv` as its arguments."""
    return under("scipy", modules_after(statement, argv))


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


@pytest.mark.parametrize("statement", ["import specshare",
                                       "import specshare.cli"])
def test_import_leaves_numpy_out(statement):
    loaded = modules_after(statement)
    assert statement.split()[1] in loaded and under("numpy", loaded) == []


def test_report_leaves_numpy_out(run_dir):
    loaded = modules_after(
        RUN_CLI, ["report", "--trace-dir", str(run_dir / "run")])
    assert under("numpy", loaded) == []


@pytest.mark.parametrize("policies", [False, True])
def test_collect_leaves_the_learner_out(run_dir, policies):
    argv = ["collect", "--config", str(run_dir / "config.json"),
            "--out", str(run_dir / "fresh.jsonl"), "--k", "2", "--t", "4"]
    if policies:
        argv += ["--policies", str(run_dir / "run" / "policies.json")]
    loaded = modules_after(RUN_CLI, argv)
    assert "specshare.trajectories" in loaded
    assert {"specshare.learning", "specshare.batch"} & set(loaded) == set()
    assert under("scipy", loaded) == []


def command_argv(run_dir, command):
    """The argv of `command` on the fixture files: `learn` and `evaluate`
    read the stored batch only, `collect` and `evaluate_config` (evaluate
    with --config) simulate."""
    evaluate = ["evaluate", "--policies", str(run_dir / "run" / "policies.json"),
                "--episodes", str(run_dir / "episodes.jsonl")]
    rollouts = ["--config", str(run_dir / "config.json"), "--k", "2",
                "--t", "4"]
    return {"learn": ["learn", "--episodes", str(run_dir / "episodes.jsonl"),
                      "--out", str(run_dir / "relearn"), "--max-iters", "2"],
            "evaluate": evaluate,
            "collect": ["collect", "--out", str(run_dir / "fresh.jsonl")]
            + rollouts,
            "evaluate_config": evaluate + rollouts}[command]


@pytest.mark.parametrize("command", ["learn", "evaluate"])
def test_stored_batch_commands_leave_the_simulator_out(run_dir, command):
    loaded = modules_after(RUN_CLI, command_argv(run_dir, command))
    assert "specshare.trajectories" in loaded
    assert "specshare.simulator" not in loaded


@pytest.mark.parametrize("command", ["collect", "evaluate_config"])
def test_simulating_commands_load_the_simulator(run_dir, command):
    loaded = modules_after(RUN_CLI, command_argv(run_dir, command))
    assert "specshare.simulator" in loaded


def test_learn_loads_scipy(run_dir):
    loaded = scipy_modules_after(RUN_CLI, [
        "learn", "--episodes", str(run_dir / "episodes.jsonl"),
        "--out", str(run_dir / "again"), "--max-iters", "2"])
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded
    assert "scipy._lib.array_api_compat" not in loaded


XS = [1e-3, 0.25, 1.5, 40.0, 1e6]
VALUES = [scipy.special.digamma(XS).tolist(),
          scipy.special.gammaln(XS).tolist()]


def test_first_call_leaves_no_stand_in_package():
    loaded = scipy_modules_after(
        "from specshare import distributions\n"
        "distributions.digamma(2.0)\n"
        "assert 'special' not in sys.modules['scipy'].__dict__")
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded


def test_later_package_import_reuses_the_loaded_ufuncs():
    scipy_modules_after(
        "from specshare import distributions\n"
        "values = distributions.digamma(%r), distributions.gammaln(%r)\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import scipy.special\n"
        "assert scipy.special._ufuncs is ufuncs\n"
        "assert distributions._special['digamma'] is scipy.special.digamma\n"
        "assert distributions._special['gammaln'] is scipy.special.gammaln\n"
        "assert [v.tolist() for v in values] == %r" % (XS, XS, VALUES))


def test_failed_lean_load_falls_back_to_the_package():
    loaded = scipy_modules_after(
        "import importlib\n"
        "from specshare import distributions\n"
        "real = importlib.import_module\n"
        "def refuse(name, package=None):\n"  # the package uses it too
        "    if name == 'scipy.special._ufuncs':\n"
        "        raise ImportError(name)\n"
        "    return real(name, package)\n"
        "importlib.import_module = refuse\n"
        "values = distributions.digamma(%r), distributions.gammaln(%r)\n"
        "assert sys.modules['scipy.special'].__file__.endswith('__init__.py')\n"
        "assert [v.tolist() for v in values] == %r" % (XS, XS, VALUES))
    assert "scipy.special" in loaded
    assert "scipy._lib.array_api_compat" in loaded


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
