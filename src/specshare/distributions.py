"""Special functions and random variates for Beta, Gamma, Dirichlet and
stick-breaking constructions.

digamma and gammaln come from scipy and the samplers from
``numpy.random.Generator``; this module adds the parameter checks. It is
the only module that uses scipy, and it imports ``scipy.special`` on the
first special-function call, so that the commands which never call one
(collect, evaluate, report) do not pay for the import. All samplers take
an explicit generator so that draws are reproducible and callers own their
generator state.
"""

import math

import numpy as np

_special = None  # scipy.special once the first special function has run


def digamma(x):
    """Digamma function, valid for positive arguments.

    Delegates to ``scipy.special.digamma`` after checking the domain.
    Accepts scalars or arrays; scalars come back as float.
    """
    return _special_function("digamma", x)


def gammaln(x):
    """Log of the gamma function, valid for positive arguments.

    Delegates to ``scipy.special.gammaln`` after checking the domain.
    Accepts scalars or arrays; scalars come back as float.
    """
    return _special_function("gammaln", x)


def _special_function(name, x):
    global _special
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("%s requires strictly positive finite arguments"
                         % name)
    if _special is None:
        import scipy.special
        _special = scipy.special
    out = getattr(_special, name)(arr)
    return float(out) if arr.ndim == 0 else out


def sample_gamma(shape, rate, rng):
    """Draw one variate from Gamma(shape, rate) with mean shape/rate."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma parameters must be strictly positive")
    return float(rng.gamma(shape, 1.0 / rate))


def sample_beta(first, second, rng):
    """Draw one variate from Beta(first, second), strictly inside (0, 1)."""
    if first <= 0.0 or second <= 0.0:
        raise ValueError("beta parameters must be strictly positive")
    eps = 1e-15
    return min(max(float(rng.beta(first, second)), eps), 1.0 - eps)


def sample_dirichlet(params, rng):
    """Draw a probability vector from Dirichlet(params)."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.size == 0 or np.any(params <= 0.0):
        raise ValueError("dirichlet parameters must be a vector of positive reals")
    return rng.dirichlet(params)


def stick_breaking_weights(portions):
    """Turn break portions in (0,1) into a proper probability vector.

    The leftover mass prod(1 - V_j) is appended as the final weight, so the
    output has len(portions) + 1 entries and sums to exactly 1.
    """
    portions = np.asarray(portions, dtype=float)
    if portions.ndim != 1:
        raise ValueError("portions must be a 1-d sequence")
    if np.any(portions <= 0.0) or np.any(portions >= 1.0):
        raise ValueError("portions must lie strictly inside (0, 1)")
    weights = np.empty(portions.size + 1)
    remaining = 1.0
    for i, v in enumerate(portions):
        piece = remaining * v
        weights[i] = piece
        remaining -= piece  # keeps the running sum exact in floating point
    weights[-1] = remaining
    return weights


def validate_simplex(weights, tol=1e-12):
    """Check the probability-vector invariants, returning the array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("simplex vector must be a non-empty 1-d array")
    return validate_simplex_rows(w, tol)


def validate_simplex_rows(weights, tol=1e-12):
    """Check the probability-vector invariants of every row along the last
    axis at once, returning the array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise ValueError("simplex vector must be a non-empty 1-d array")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("simplex weights must lie in [0, 1]")
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > tol):
        raise ValueError("simplex weights must sum to 1 within %g" % tol)
    return w


def log_density_beta(value, first, second):
    if first <= 0.0 or second <= 0.0:
        raise ValueError("beta parameters must be strictly positive")
    if not 0.0 < value < 1.0:
        raise ValueError("beta density requires value in (0, 1)")
    return (math.lgamma(first + second) - math.lgamma(first) - math.lgamma(second)
            + (first - 1.0) * math.log(value)
            + (second - 1.0) * math.log1p(-value))


def log_density_gamma(value, shape, rate):
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma parameters must be strictly positive")
    if value <= 0.0:
        raise ValueError("gamma density requires a positive value")
    return (shape * math.log(rate) - math.lgamma(shape)
            + (shape - 1.0) * math.log(value) - rate * value)


def log_density_dirichlet(values, params):
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    if params.shape != values.shape or params.ndim != 1:
        raise ValueError("values and parameters must be matching vectors")
    if np.any(params <= 0.0):
        raise ValueError("dirichlet parameters must be strictly positive")
    if np.any(values <= 0.0) or np.any(values > 1.0):
        raise ValueError("dirichlet density requires interior simplex points")
    if abs(values.sum() - 1.0) > 1e-9:
        raise ValueError("dirichlet density requires a simplex point")
    norm = math.lgamma(params.sum()) - sum(math.lgamma(p) for p in params)
    return norm + float(np.sum((params - 1.0) * np.log(values)))
