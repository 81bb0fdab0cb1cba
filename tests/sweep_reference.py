"""The multi-endpoint node sweep that `learning._sweep_agent` replaced.

It carries one backward column per prefix endpoint, renormalised by its
largest entry at every step, and sums the endpoints' marginals column by
column: O(T^2) per episode. It shares no code with the O(T) reward-to-go
recursion, so `tests/test_learning.py` checks the production sweep against
it.
"""

import numpy as np


def multi_endpoint_sweep(estimate, aidx, obins, nu, ahat):
    """(occ, pair) with the meaning and shapes of `learning._sweep_agent`."""
    k, t1 = aidx.shape
    z = estimate.eta.size
    # m[k, tau, i, j] = omega[i, a_tau, o_tau, j] * pi[j, a_{tau+1}]
    m = estimate.omega.transpose(1, 2, 0, 3)[aidx[:, :-1], obins] \
        * estimate.pi.T[aidx[:, 1:]][:, :, None, :]
    occ = np.empty((k, t1, z))
    d = np.empty((k, t1, z))  # d[:, tau]: weighted messages into z_tau
    bcols = np.ones((k, z, t1))  # column t: backward message for endpoint t
    occ[:, -1] = ahat[:, -1] * nu[:, -1:]
    for tau in range(t1 - 2, -1, -1):
        a_tau = ahat[:, tau, None, :]
        cols = bcols[:, :, tau + 1:]
        mb = m[:, tau] @ cols
        z2 = a_tau @ mb
        d[:, tau + 1] = (cols @ (nu[:, None, tau + 1:] / z2)
                         .transpose(0, 2, 1))[..., 0]
        bcols[:, :, tau + 1:] = mb
        live = bcols[:, :, tau:]
        live /= live.max(axis=1, keepdims=True)
        znorm = a_tau @ live
        occ[:, tau] = ahat[:, tau] * (live @ (nu[:, None, tau:] / znorm)
                                      .transpose(0, 2, 1))[..., 0]
    pair = np.zeros((k, t1, z, z))
    pair[:, 1:] = ahat[:, :-1, :, None] * m * d[:, 1:, None, :]
    return occ, pair
