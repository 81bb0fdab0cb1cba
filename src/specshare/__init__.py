"""Decentralized unlicensed-spectrum coexistence simulation and
nonparametric Bayesian learning of finite-state-controller access policies.
"""

from .distributions import (digamma, gammaln, sample_beta,
                            stick_breaking_weights, validate_simplex)
from .simulator import (CoexistenceSimulator, DecisionOutcome, Episode,
                        SimConfig, backoff_counter, effective_throughput,
                        jain_index, local_reward)
from .fsc import (FscPolicy, PointEstimate, history_likelihood,
                  init_from_episodes, initial_node, observation_bin,
                  point_estimate, prune, transition_node)
from .learning import (ElboTrace, Hyperparams, LearnResult, VariationalState,
                       elbo, empirical_value, learn, mean_policy,
                       node_marginals, reward_bounds, reweighted)
from .trajectories import (SCHEDULES, BehaviorPolicy, EpsilonSchedule,
                           behavior_action, collect, load, save)

__version__ = "0.1.0"
