"""Reference computations that only tests read: the unscaled forward and
backward messages over controller nodes, the expected log stick weights
from the Beta break factors themselves, and the evidence lower bound term
by term.

The learner works with `fsc.forward`'s scaled tables, takes each digamma
once per iteration and folds its bound into one dot product over its
kernel's buffers; these recompute the same quantities the plain way, so
the tests can check the production code against them.
"""

import math

import numpy as np
from scipy.special import digamma as sp_digamma
from scipy.special import gammaln as sp_gammaln

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


def _beta_terms(first, second, e_ln_conc, e_conc):
    """E[ln Beta(u; 1, conc)] - E[ln Beta(u; first, second)] of each stick,
    given E[ln conc] and E[conc] of its concentration."""
    e_ln_u = sp_digamma(first) - sp_digamma(first + second)
    e_ln_1mu = sp_digamma(second) - sp_digamma(first + second)
    prior = e_ln_conc + (e_conc - 1.0) * e_ln_1mu
    entropy = (sp_gammaln(first + second) - sp_gammaln(first)
               - sp_gammaln(second) + (first - 1.0) * e_ln_u
               + (second - 1.0) * e_ln_1mu)
    return prior - entropy


def _gamma_terms(shape, rate, prior_shape, prior_rate):
    """E[ln Gamma(x; prior_shape, prior_rate)] - E[ln Gamma(x; shape,
    rate)] of each concentration x."""
    e_ln_x = sp_digamma(shape) - np.log(rate)
    prior = (prior_shape * math.log(prior_rate) - sp_gammaln(prior_shape)
             + (prior_shape - 1.0) * e_ln_x - prior_rate * shape / rate)
    entropy = (shape * np.log(rate) - sp_gammaln(shape)
               + (shape - 1.0) * e_ln_x - shape)
    return prior - entropy


def _dirichlet_terms(phi, theta):
    """E[ln Dir(pi; theta)] - E[ln Dir(pi; phi)] of each row of phi."""
    n_actions = phi.shape[1]
    e_ln_pi = sp_digamma(phi) - sp_digamma(phi.sum(axis=1, keepdims=True))
    prior = (sp_gammaln(n_actions * theta) - n_actions * sp_gammaln(theta)
             + ((theta - 1.0) * e_ln_pi).sum(axis=1))
    entropy = (sp_gammaln(phi.sum(axis=1)) - sp_gammaln(phi).sum(axis=1)
               + ((phi - 1.0) * e_ln_pi).sum(axis=1))
    return prior - entropy


def reference_elbo(states, value, hyper):
    """The evidence lower bound of full `VariationalState`s, term by term
    and straight from scipy: ln(value), then per agent the Beta term of
    every eta stick (delta, mu) and of every omega stick (sigma, lam) over
    all Z x A x O x Z of them, the Gamma terms of the eta concentration
    (g, h) and of every omega-row concentration (a, b), and the Dirichlet
    term of every action row."""
    total = math.log(value)
    for st in states:
        e_ln_eta = sp_digamma(st.g) - math.log(st.h)
        e_ln_rows = (sp_digamma(st.a) - np.log(st.b))[..., None]
        total += float(
            np.sum(_beta_terms(st.delta, st.mu, e_ln_eta, st.g / st.h))
            + np.sum(_beta_terms(st.sigma, st.lam, e_ln_rows,
                                 (st.a / st.b)[..., None]))
            + np.sum(_gamma_terms(st.g, st.h, hyper.e, hyper.f))
            + np.sum(_gamma_terms(st.a, st.b, hyper.c, hyper.d))
            + np.sum(_dirichlet_terms(st.phi, hyper.theta)))
    return total


def reference_rates(states, hyper):
    """Per agent, the rates (b, h) that an update sets from the sticks it
    sets: d minus the E[ln(1 - u)] of every stick of an omega row, and f
    minus that of every eta stick, straight from scipy."""
    rates = []
    for st in states:
        rest = [sp_digamma(second) - sp_digamma(first + second)
                for first, second in ((st.sigma, st.lam), (st.delta, st.mu))]
        rates.append((hyper.d - rest[0].sum(axis=-1),
                      hyper.f - float(rest[1].sum())))
    return rates
