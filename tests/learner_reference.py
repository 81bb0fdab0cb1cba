"""Reference computations that only tests read: the unscaled forward and
backward messages over controller nodes, and the expected log stick
weights from the Beta break factors themselves.

The learner works with `fsc.forward`'s scaled tables and takes each
digamma once per iteration; these recompute the same quantities the plain
way, so the tests can check the production code against them.
"""

import numpy as np

from specshare.distributions import digamma
from specshare.fsc import forward


def forward_messages(policy, action_idx, obs_bins):
    """Unscaled forward table alpha[tau, i] over controller nodes."""
    alpha_hat, log_scale = forward(policy, action_idx, obs_bins)
    return alpha_hat * np.exp(np.cumsum(log_scale))[:, None]


def backward_messages(policy, action_idx, obs_bins, t):
    """Unscaled backward table beta[tau, i] for the prefix ending at t."""
    beta = np.empty((t + 1, policy.eta.size))
    beta[t] = 1.0
    for tau in range(t - 1, -1, -1):
        trans = policy.omega[:, action_idx[tau], obs_bins[tau], :]
        beta[tau] = trans @ (policy.pi[:, action_idx[tau + 1]] * beta[tau + 1])
    return beta


def _stick_logs(psi_first, psi_second, psi_sum):
    """Expected log stick weights along the last axis, given digamma of the
    break factors' first and second parameters and of their sum.

    Index i < last combines E[ln u_i] with the accumulated E[ln(1-u_m)]
    for m < i; the last index uses only the accumulated (1-u) terms.
    """
    e_ln_u = psi_first - psi_sum
    e_ln_1mu = psi_second - psi_sum
    prefix = np.zeros_like(e_ln_1mu)
    prefix[..., 1:] = np.cumsum(e_ln_1mu[..., :-1], axis=-1)
    logp = prefix + e_ln_u
    logp[..., -1] = prefix[..., -1]
    return logp


def stick_log_expectations(first, second):
    """Expected log stick weights from Beta(first, second) break factors,
    along the final axis of matching arrays."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    return _stick_logs(digamma(first), digamma(second),
                       digamma(first + second))
