"""Reference for the simulator's inline sensing retries.

`CoexistenceSimulator._retry_sensing` runs a failed sensing window's
retries in one loop at the occupancy it starts in. `RetryReference` runs
them one window at a time, through `_schedule_wait_idle`,
`_start_initial` and `_window_all_idle`: each retry pushes its
`idle_found` and `initial_end` events and judges its window over the
occupancy step function. Both make the same draws in the same order, so
`tests/test_simulator.py` checks that they emit the same
`DecisionOutcome` stream and count the same windows.
"""

import numpy as np

from specshare.simulator import (_NO_EVENT, _WAIT_IDLE, CoexistenceSimulator,
                                 SimConfig)

# a 20 ms ICCA is longer than the longest transmission; at pe 1e-200, pe**2
# underflows to 0.0, so a window at two transmitters never reads idle
CASES = {
    "paper": {"lte_count": 2, "wifi_count": 2},
    "lte3_pe0.3": {"lte_count": 3, "wifi_count": 0, "pe": 0.3},
    "lte4_wifi4_pe0.1_icca20ms": {"lte_count": 4, "wifi_count": 4,
                                  "pe": 0.1, "icca_us": 20000},
    "lte2_wifi2_pe0": {"lte_count": 2, "wifi_count": 2, "pe": 0.0},
    "lte2_wifi2_pe1e-200": {"lte_count": 2, "wifi_count": 2, "pe": 1e-200},
}


class RetryReference(CoexistenceSimulator):
    """The simulator with its retries run one window at a time."""

    def _retry_sensing(self, agent, time):
        st = self.agents[agent]
        horizon = min(self._events)[0]  # this agent's slot is empty
        while True:
            st.phase = _WAIT_IDLE
            self._schedule_wait_idle(agent, time)
            time = self._events[agent][0]
            if not time < horizon:
                return None
            self.clock = time  # the idle_found
            self._start_initial(agent, time)
            time += st.init_dur
            if not time < horizon:
                return None
            self._events[agent] = _NO_EVENT  # the initial_end
            self.clock = time
            if self._window_all_idle(time - st.init_dur, time):
                return time


def run(simulator, case, seed, decisions):
    """(the `DecisionOutcome`s of the first `decisions` completions, the
    windows judged, the windows failed) of a `simulator` class on config
    `case` seeded `seed`, every pending agent acting uniformly at random
    from the contention-window set."""
    sim = simulator(SimConfig(seed=seed, **CASES[case]))
    rng = np.random.default_rng(seed)
    cw_set = sim.config.cw_set
    outcomes = []
    while len(outcomes) < decisions:
        actions = {n: cw_set[rng.integers(len(cw_set))]
                   for n in sim.pending_agents()}
        outcomes += sim.step_epoch(actions, wait="any")
    return outcomes, sim.windows_judged, sim.windows_failed
