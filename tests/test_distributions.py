import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import specshare.learning
from specshare.distributions import (digamma, gammaln, log_density_beta,
                                     log_density_dirichlet, log_density_gamma,
                                     sample_beta, sample_dirichlet,
                                     sample_gamma, stick_breaking_weights,
                                     validate_simplex)


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
        ga = [sample_gamma(0.5, 2.0, np.random.default_rng(9)) for _ in range(5)]
        gb = [sample_gamma(0.5, 2.0, np.random.default_rng(9)) for _ in range(5)]
        assert ga == gb

    def test_gamma_unit_mean(self):
        rng = np.random.default_rng(3)
        draws = [sample_gamma(1.0, 1.0, rng) for _ in range(100000)]
        assert abs(np.mean(draws) - 1.0) < 0.02

    def test_gamma_small_shape_mean(self):
        rng = np.random.default_rng(4)
        draws = [sample_gamma(0.1, 100.0, rng) for _ in range(100000)]
        assert abs(np.mean(draws) - 0.001) < 0.0001

    def test_gamma_rejects_bad_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gamma(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(1.0, -1.0, rng)

    def test_dirichlet_symmetric_mean(self):
        rng = np.random.default_rng(5)
        draws = np.array([sample_dirichlet([1.0, 1.0], rng) for _ in range(100000)])
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 0.01)

    def test_dirichlet_asymmetric_mean(self):
        rng = np.random.default_rng(6)
        draws = np.array([sample_dirichlet([2.0, 1.0, 1.0], rng)
                          for _ in range(50000)])
        assert abs(draws[:, 0].mean() - 0.5) < 0.01

    def test_dirichlet_single_component(self):
        rng = np.random.default_rng(7)
        assert sample_dirichlet([5.0], rng) == pytest.approx([1.0])

    def test_beta_goodness_of_fit(self):
        rng = np.random.default_rng(8)
        draws = np.array([sample_beta(2.0, 3.0, rng) for _ in range(100000)])
        edges = scipy.stats.beta.ppf(np.linspace(0, 1, 21), 2.0, 3.0)
        counts, _ = np.histogram(draws, bins=edges)
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_gamma_goodness_of_fit(self):
        rng = np.random.default_rng(9)
        draws = np.array([sample_gamma(0.7, 2.0, rng) for _ in range(100000)])
        edges = scipy.stats.gamma.ppf(np.linspace(0, 1, 21), 0.7, scale=0.5)
        counts, _ = np.histogram(draws, bins=edges)
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001


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


class TestLogDensities:
    def test_uniform_beta_is_zero(self):
        assert log_density_beta(0.3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_gamma(self):
        assert log_density_gamma(2.5, 1.0, 1.0) == pytest.approx(-2.5, abs=1e-12)

    def test_flat_dirichlet_normalizer(self):
        val = log_density_dirichlet([0.2, 0.5, 0.3], [1.0, 1.0, 1.0])
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_component_dirichlet_equals_beta(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            a, b = rng.uniform(0.2, 5.0, size=2)
            lhs = log_density_dirichlet([x, 1.0 - x], [a, b])
            rhs = log_density_beta(x, a, b)
            assert abs(lhs - rhs) < 1e-12

    def test_out_of_support_errors(self):
        with pytest.raises(ValueError):
            log_density_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_density_gamma(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_density_dirichlet([0.7, 0.7], [1.0, 1.0])


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
