"""Special functions, the Beta sampler, stick-breaking weights, and the
simplex, discount, integer and JSON number checks.

digamma and gammaln come from scipy and the Beta sampler from
``numpy.random.Generator``; this module adds the parameter checks. It is
the only module that uses scipy, and it loads scipy on the first
special-function call, so that the commands which never call one
(collect, evaluate, report) do not pay for the import. Unless
``scipy.special`` is loaded already, that call loads only its compiled
ufuncs, ``scipy.special._ufuncs``, and not the package, whose array-API
layer pulls in much of numpy that nothing here uses. The sampler takes an
explicit generator so that draws are reproducible and callers own their
generator state.
"""

import importlib
import math
import numbers
import os
import sys
import types

import numpy as np

# scipy's digamma and gammaln by name, once the first special function has
# run: from scipy.special._ufuncs alone, or from scipy.special if loaded
_special = None
# the types `json` parses a number to, and (count True) an integer to
_JSON_TYPES = {False: frozenset({int, float}), True: frozenset({int})}


def digamma(x, out=None):
    """Digamma function, valid for positive arguments.

    Delegates to ``scipy.special.digamma``, the very ufunc, after checking
    the domain; a first call loads only scipy's compiled ufuncs (see the
    module docstring).
    Accepts scalars or arrays; scalars come back as float. Given `out`, an
    array of x's shape, the values are written into it and it is returned.
    """
    return _special_function("digamma", x, out=out)


def gammaln(x, out=None):
    """Log of the gamma function, valid for positive arguments.

    Delegates to ``scipy.special.gammaln``, the very ufunc, after checking
    the domain; a first call loads only scipy's compiled ufuncs (see the
    module docstring).
    Accepts scalars or arrays; scalars come back as float. Given `out`, an
    array of x's shape, the values are written into it and it is returned.
    """
    return _special_function("gammaln", x, out=out)


def _special_function(name, x, check=True, out=None):
    global _special
    arr = np.asarray(x, dtype=float)
    # min > 0 is False for a NaN, so one reduction per bound covers both
    if check and not (arr.size == 0
                      or (arr.min() > 0.0 and arr.max() < math.inf)):
        raise ValueError("%s requires strictly positive finite arguments"
                         % name)
    if _special is None:
        _special = _load_special()
    result = _special[name](arr, out=out)
    return float(result) if arr.ndim == 0 else result


def _load_special():
    """digamma and gammaln from scipy.special if it is loaded, else from
    scipy.special._ufuncs imported under a bare stand-in package that is
    gone again afterwards; the package itself on an ImportError."""
    special = sys.modules.get("scipy.special")
    if special is None:
        import scipy
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__),
                                      "special")]
        sys.modules["scipy.special"] = stub
        try:
            special = importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass
        finally:
            sys.modules.pop("scipy.special", None)
            # not getattr, which would run scipy's lazy submodule import
            scipy.__dict__.pop("special", None)
        if special is None:
            import scipy.special as special
    return {"digamma": special.psi, "gammaln": special.gammaln}


def sample_beta(first, second, rng):
    """Draw one variate from Beta(first, second), strictly inside (0, 1)."""
    if first <= 0.0 or second <= 0.0:
        raise ValueError("beta parameters must be strictly positive")
    eps = 1e-15
    return min(max(float(rng.beta(first, second)), eps), 1.0 - eps)


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
    # written so that every comparison with a NaN fails the check
    if not (np.all(w >= 0.0) and np.all(w <= 1.0)):
        raise ValueError("simplex weights must lie in [0, 1]")
    if not np.all(np.abs(w.sum(axis=-1) - 1.0) <= tol):
        raise ValueError("simplex weights must sum to 1 within %g" % tol)
    return w


def check_discount(gamma):
    """ValueError unless the discount gamma lies in [0, 1) (NaN does not)."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma: discount must be in [0, 1)")


def is_integer(value):
    """True for an integer, a numpy one included, and False for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value, count=False):
    """True for a number as `json` parses one, an int or, unless `count`,
    a float; never for a bool (`json`'s true and false)."""
    return type(value) in _JSON_TYPES[count]


def is_number_list(value, count=False, rows=False):
    """True for a list of `is_number` entries, or with `rows` for a list of
    such lists of one length, the rows of a matrix."""
    if rows:
        return (isinstance(value, list)
                and all(is_number_list(row, count) for row in value)
                and len(set(map(len, value))) <= 1)
    return isinstance(value, list) \
        and _JSON_TYPES[count].issuperset(map(type, value))
