import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import specshare.learning
from specshare.distributions import (digamma, gammaln, sample_beta,
                                     stick_breaking_weights, validate_simplex,
                                     validate_simplex_rows)


class TestDigamma:
    def test_at_one_is_negative_euler_gamma(self):
        assert abs(digamma(1.0) - (-0.5772156649015329)) < 1e-12

    def test_at_two(self):
        assert abs(digamma(2.0) - 0.42278433509846713) < 1e-12

    def test_recurrence_at_five(self):
        assert abs((digamma(6.0) - digamma(5.0)) - 0.2) < 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200)
    def test_recurrence_property(self, x):
        assert abs((digamma(x + 1.0) - digamma(x)) - 1.0 / x) < 1e-12

    def test_matches_reference_implementation(self):
        # absolute 1e-12, loosened to a few ulp where |psi| is so large
        # that 1e-12 is below the double-precision spacing
        xs = np.logspace(-6, 6, 200)
        ref = scipy.special.digamma(xs)
        tol = np.maximum(1e-12, 4 * np.spacing(np.abs(ref)))
        assert np.all(np.abs(digamma(xs) - ref) < tol)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 3.25])
        assert np.allclose(digamma(xs), [digamma(x) for x in xs], atol=1e-14)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)


class TestSamplers:
    def test_beta_uniform_mean(self):
        rng = np.random.default_rng(0)
        draws = [sample_beta(1.0, 1.0, rng) for _ in range(100000)]
        assert abs(np.mean(draws) - 0.5) < 0.01

    def test_beta_skewed_mean(self):
        rng = np.random.default_rng(1)
        draws = [sample_beta(1.0, 2.0, rng) for _ in range(100000)]
        # analytic mean 1/3, sd of the mean ~ sqrt(1/18)/sqrt(n)
        assert abs(np.mean(draws) - 1.0 / 3.0) < 3 * math.sqrt(1 / 18) / math.sqrt(100000)

    def test_beta_in_open_interval(self):
        rng = np.random.default_rng(2)
        draws = [sample_beta(0.1, 100.0, rng) for _ in range(1000)]
        assert all(0.0 < d < 1.0 for d in draws)

    def test_seed_determinism(self):
        a = [sample_beta(2.0, 3.0, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_beta(2.0, 3.0, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_beta_goodness_of_fit(self):
        rng = np.random.default_rng(8)
        draws = np.array([sample_beta(2.0, 3.0, rng) for _ in range(100000)])
        edges = scipy.stats.beta.ppf(np.linspace(0, 1, 21), 2.0, 3.0)
        counts, _ = np.histogram(draws, bins=edges)
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    @pytest.mark.parametrize("first, second", [(0.0, 1.0), (1.0, -0.5)])
    def test_beta_rejects_non_positive(self, first, second):
        # numpy's own beta rejects these too, with another message
        with pytest.raises(ValueError, match="strictly positive"):
            sample_beta(first, second, np.random.default_rng(0))


class TestStickBreaking:
    def test_hand_product(self):
        assert stick_breaking_weights([0.5, 0.5]) == pytest.approx(
            [0.5, 0.25, 0.25], abs=1e-15)

    def test_boundary_portion(self):
        w = stick_breaking_weights([1.0 - 1e-9])
        assert abs(w[0] - (1.0 - 1e-9)) < 1e-15
        assert abs(w[1] - 1e-9) < 1e-15

    def test_matches_product_formula(self):
        rng = np.random.default_rng(10)
        v = rng.uniform(0.01, 0.99, size=50)
        w = stick_breaking_weights(v)
        expect = [v[i] * np.prod(1.0 - v[:i]) for i in range(50)]
        assert np.max(np.abs(w[:-1] - expect)) < 1e-14

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                    min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_always_a_simplex(self, portions):
        validate_simplex(stick_breaking_weights(portions), tol=1e-12)

    def test_long_input_simplex(self):
        rng = np.random.default_rng(11)
        w = stick_breaking_weights(rng.uniform(1e-6, 1 - 1e-6, size=10000))
        validate_simplex(w, tol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stick_breaking_weights([0.5, 1.0])
        with pytest.raises(ValueError):
            stick_breaking_weights([0.0])

    def test_rejects_two_d_input(self):
        with pytest.raises(ValueError, match="1-d sequence"):
            stick_breaking_weights([[0.5, 0.5]])


class TestSimplexRows:
    @pytest.mark.parametrize("row", [[np.nan, 1.0], [0.5, np.nan],
                                     [np.nan, np.nan], [np.inf, -np.inf]],
                             ids=["first", "second", "both", "infinite"])
    def test_non_finite_row_rejected(self, row):
        # every comparison with a NaN is false, so a check written as
        # "fail when out of range" would let this row through
        with pytest.raises(ValueError, match="simplex weights"):
            validate_simplex_rows(np.array([[0.25, 0.75], row]))

    def test_one_vector_is_not_rows(self):
        # rows that would each pass as a vector
        with pytest.raises(ValueError, match="non-empty 1-d"):
            validate_simplex([[0.25, 0.75], [1.0, 0.0]])

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            validate_simplex_rows(np.empty((2, 0)))


class TestDomainCheck:
    @pytest.mark.parametrize("fn", [digamma, gammaln], ids=["digamma",
                                                            "gammaln"])
    def test_empty_array_accepted(self, fn):
        out = fn(np.array([]))
        assert isinstance(out, np.ndarray) and out.size == 0

    @pytest.mark.parametrize("fn", [digamma, gammaln], ids=["digamma",
                                                            "gammaln"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    def test_one_bad_entry_rejected(self, fn, bad):
        xs = np.array([[0.5, 3.0], [bad, 7.0]])
        with pytest.raises(ValueError, match="strictly positive finite"):
            fn(xs)
        with pytest.raises(ValueError, match="strictly positive finite"):
            fn(bad)

    def test_learner_path_skips_only_the_check(self):
        xs = np.array([1e-300, 0.5, 3.0, 1e6])
        assert np.array_equal(specshare.learning.digamma(xs), digamma(xs))
        assert np.array_equal(specshare.learning.gammaln(xs), gammaln(xs))
        assert specshare.learning.digamma(2.0) == digamma(2.0)
        assert np.isnan(specshare.learning.digamma(np.nan))
