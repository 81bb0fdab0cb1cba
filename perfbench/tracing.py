"""Per-layer spans for the traced run.

Each shim replaces a function where its caller looks it up (a module
attribute, or a method on its class), records calls and self time (span
time minus the time of the spans it encloses), and is removed again after
the command. A target that a later refactor removed or renamed is listed as
missing instead of failing the run.
"""

import importlib
import os
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute path, span name)
TARGETS = [
    ("specshare.cli", "main", "cli.main"),
    ("specshare.simulator", "CoexistenceSimulator.step_epoch",
     "simulator.step_epoch"),
    ("specshare.cli", "trajectories.collect", "trajectories.collect"),
    ("specshare.trajectories", "behavior_action",
     "trajectories.behavior_action"),
    ("specshare.cli", "trajectories.save", "trajectories.save"),
    ("specshare.cli", "trajectories.load", "trajectories.load"),
    ("specshare.trajectories", "initial_node", "fsc.initial_node"),
    ("specshare.trajectories", "transition_node", "fsc.transition_node"),
    ("specshare.cli", "learning.learn", "learning.learn"),
    ("specshare.learning", "init_from_episodes", "fsc.init_from_episodes"),
    ("specshare.learning", "point_estimate", "fsc.point_estimate"),
    ("specshare.learning", "log_history_likelihoods",
     "fsc.log_history_likelihoods"),
    ("specshare.learning", "prune", "fsc.prune"),
    ("specshare.learning", "_update_agent", "learning._update_agent"),
    ("specshare.learning", "reweighted", "learning.reweighted"),
    ("specshare.learning", "elbo", "learning.elbo"),
    ("specshare.learning", "digamma", "distributions.digamma"),
    ("specshare.fsc", "digamma", "distributions.digamma"),
]

SPANS = sorted({name for _, _, name in TARGETS})

# span -> the metrics read from its arguments or results
DERIVED = {
    "simulator.step_epoch": ["simulator.sim_us_per_decision",
                             "simulator.zero_payload_share",
                             "simulator.mean_observation_us.lte",
                             "simulator.mean_observation_us.wifi"],
    "trajectories.save": ["trajectories.save.bytes"],
    "learning.learn": ["learning.iterations", "learning.ms_per_iter",
                       "learning.nodes_final"],
}


def _resolve(module_name, path):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Aggregated spans of the commands run while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.values = defaultdict(int)  # read from arguments and results
        self._sim, self._sim_clock = None, 0
        # spans whose target is gone, and spans whose arguments or results
        # could no longer be read
        self.missing = {name for module, path, name in TARGETS
                        if _resolve(module, path) is None}
        self.broken = set()
        self._stack = []
        self._saved = []

    def reset(self):
        """Forget what earlier commands recorded."""
        self.calls.clear()
        self.self_s.clear()
        self.values.clear()
        self._sim, self._sim_clock = None, 0

    def install(self):
        for module, path, name in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            # a method is patched on its class so instances still bind it
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else fn
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - inner
                if self._stack:
                    self._stack[-1] += elapsed
            if after is not None and name not in self.broken:
                try:
                    after(args, result, elapsed)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError):
                    self.broken.add(name)
            return result
        return span

    def _after_simulator_step_epoch(self, args, outcomes, elapsed):
        sim = args[0]
        for out in outcomes:
            kind = sim.config.agent_kind(out.agent)
            self.values["decisions"] += 1
            self.values["zero_payload"] += out.payload_bits == 0
            self.values["obs_us." + kind] += out.observation_us
            self.values["decisions." + kind] += 1
        # the clock only moves forward, so each simulator's last reading is
        # its simulated span; episodes run their simulators one at a time
        if sim is not self._sim:
            self.values["sim_us"] += self._sim_clock
            self._sim = sim
        self._sim_clock = sim.clock

    def _after_trajectories_save(self, args, result, elapsed):
        self.values["save_bytes"] += os.path.getsize(args[1])

    def _after_learning_learn(self, args, result, elapsed):
        self.values["iterations"] += result.trace.iterations
        self.values["learn_s"] += elapsed
        self.values["nodes_final"] += sum(result.trace.node_counts[-1])

    def snapshot(self):
        """Per-layer metrics of what was recorded since the last reset."""
        v = self.values
        snap = {}
        for name in SPANS:
            snap[name + ".calls"] = self.calls.get(name, 0)
            snap[name + ".self_s"] = self.self_s.get(name, 0.0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        snap["simulator.sim_us_per_decision"] = ratio(
            v["sim_us"] + self._sim_clock, v["decisions"])
        snap["simulator.zero_payload_share"] = ratio(v["zero_payload"],
                                                     v["decisions"])
        for kind in ("lte", "wifi"):
            snap["simulator.mean_observation_us." + kind] = ratio(
                v["obs_us." + kind], v["decisions." + kind])
        snap["trajectories.save.bytes"] = v["save_bytes"]
        snap["learning.iterations"] = v["iterations"]
        snap["learning.ms_per_iter"] = ratio(v["learn_s"], v["iterations"],
                                             1e3)
        snap["learning.nodes_final"] = v["nodes_final"]
        return snap

    def unavailable(self):
        """Metric names that a missing or changed target leaves unknown."""
        names = set()
        for span in self.missing:
            names.update([span + ".calls", span + ".self_s"])
        for span in self.missing | self.broken:
            names.update(DERIVED.get(span, []))
        return names
