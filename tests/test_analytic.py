import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simulate_weight3_frequency, weight3_probability
from trisum import analytic

# Frozen 50-digit reference values (mpmath), rounded to double precision.
REF_LOG_RATIO = 0.96940055718810348312
REF_A1 = 1.1546303017419945299
REF_A2 = 1.8747596907173189330
REF_DBAR = 0.023322266714859477108
REF_R_AT_19 = 0.013795535617809648039
REF_R_AT_A1 = 0.077315150870997264956
REF_G_AT_11 = 0.93778665831167678404
REF_G_AT_29 = 0.35571218073891188360
REF_GEOMEAN = 1.7860571099491751694


# Reference oracles: the density and CDF that analytic.x_from_uniform
# inverts.


def density_g(x: float) -> float:
    """Density of the vertex variable: 1 / (ln(hi/lo) * x) on [1.1, 2.9]."""
    if not analytic.X_LO <= x <= analytic.X_HI:
        raise ValueError(f"x={x} outside [{analytic.X_LO}, {analytic.X_HI}]")
    return 1.0 / (analytic.LOG_RATIO * x)


def x_cdf(x):
    """CDF of the vertex variable, clamped outside the domain; vectorized."""
    arr = np.clip(np.asarray(x, dtype=np.float64), analytic.X_LO, analytic.X_HI)
    out = np.log(arr / analytic.X_LO) / analytic.LOG_RATIO
    return float(out) if out.ndim == 0 else out


class TestConstants:
    def test_log_ratio(self):
        assert abs(analytic.LOG_RATIO - REF_LOG_RATIO) < 1e-15

    def test_breakpoints_values(self):
        a1, a2 = analytic.breakpoints()
        assert abs(a1 - REF_A1) < 1e-9
        assert abs(a2 - REF_A2) < 1e-9

    def test_breakpoint_ordering(self):
        a1, a2 = analytic.breakpoints()
        assert 0 < a1 < a2 < 1.9

    def test_dbar_closed_form(self):
        d = analytic.dbar_closed_form()
        assert 0.023 < d < 0.024
        assert abs(d - REF_DBAR) < 1e-9

    def test_dbar_quadrature_matches_closed_form(self):
        q = analytic.dbar_quadrature(10_000)
        assert abs(q - analytic.DBAR) < 1e-9
        assert q > 0

    def test_quadrature_first_branch_identity(self):
        # below the first knot r is exactly (x - 1) / 2
        lhs = analytic.composite_simpson(
            lambda x: analytic.r_value(x) * density_g(x),
            analytic.X_LO, analytic.A1, 2000,
        )
        rhs = analytic.composite_simpson(
            lambda x: (x - 1) / 2 * density_g(x),
            analytic.X_LO, analytic.A1, 2000,
        )
        assert abs(lhs - rhs) < 1e-12


class TestDensity:
    def test_endpoint_values(self):
        assert abs(density_g(1.1) - REF_G_AT_11) < 1e-12
        assert abs(density_g(2.9) - REF_G_AT_29) < 1e-12

    def test_normalization(self):
        total = analytic.composite_simpson(
            density_g, analytic.X_LO, analytic.X_HI, 4000
        )
        assert abs(total - 1.0) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            density_g(1.0)
        with pytest.raises(ValueError):
            density_g(3.0)


class TestSampler:
    def test_inverse_cdf_endpoints(self):
        assert abs(analytic.x_from_uniform(0.0) - 1.1) < 1e-12
        assert abs(analytic.x_from_uniform(1.0) - 2.9) < 1e-12

    def test_inverse_cdf_midpoint_is_geometric_mean(self):
        assert abs(analytic.x_from_uniform(0.5) - REF_GEOMEAN) < 1e-12

    def test_cdf_inverse_consistency(self):
        for t in np.linspace(0, 1, 11):
            assert abs(x_cdf(analytic.x_from_uniform(t)) - t) < 1e-12

    def test_ks_fit(self):
        from scipy import stats

        rng = np.random.default_rng(123)
        sample = analytic.x_from_uniform(rng.random(1_000_000))
        res = stats.kstest(sample, x_cdf)
        # 1% critical value for the KS statistic is about 1.63 / sqrt(n)
        assert res.statistic < 1.63 / math.sqrt(sample.size)

    def test_sample_x_scalar(self):
        rng = np.random.default_rng(0)
        for x in analytic.x_from_uniform(rng.random(100)):
            assert 1.1 <= x <= 2.9


class TestRFunction:
    def test_first_branch_at_lo(self):
        assert abs(analytic.r_value(1.1) - 0.05) < 1e-15

    def test_value_at_mid_end(self):
        assert abs(analytic.r_value(1.9) - REF_R_AT_19) < 1e-12

    def test_continuity_at_knots(self):
        eps = 1e-9
        for knot in (analytic.A1, analytic.A2):
            below = analytic.r_value(knot - eps)
            above = analytic.r_value(knot + eps)
            assert abs(below - above) < 1e-7  # continuity, first order in eps
        # exact branch agreement at the knots themselves
        a1, a2 = analytic.A1, analytic.A2
        assert abs(analytic.r_value(a1) - (a1 - 1) / 2) < 1e-12
        mid_at_a2 = analytic.r_value(a2)
        top_branch = (a2 - 1) / 2 - math.log(2.9 / 1.9) / analytic.LOG_RATIO
        assert abs(mid_at_a2 - top_branch) < 1e-12

    def test_bounds_on_grid(self):
        xs = np.linspace(1.1, 1.9, 10_001)
        vals = analytic._r_unchecked(xs)
        assert vals.min() > 0
        assert vals.max() < 0.08

    def test_peak_near_first_knot(self):
        assert abs(analytic.r_value(analytic.A1) - REF_R_AT_A1) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            analytic.r_value(1.95)


class TestWeight3Probability:
    def test_endpoints(self):
        assert abs(weight3_probability(1.1) - 0.05) < 1e-12
        assert abs(weight3_probability(2.9) - 0.95) < 1e-12

    def test_identity_on_grid(self):
        for alpha in np.linspace(1.1, 2.9, 1000):
            expect = (alpha - 1) / 2
            assert abs(weight3_probability(float(alpha)) - expect) < 1e-10

    def test_at_second_knot_both_cases(self):
        a2 = analytic.A2
        expect = (a2 - 1) / 2
        below = weight3_probability(a2)           # middle-branch case
        above = weight3_probability(a2 + 1e-13)   # upper-branch case
        assert abs(below - expect) < 1e-12
        assert abs(above - expect) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            weight3_probability(1.0)


class TestEdgeRule:
    def test_both_at_two_is_heavy(self):
        assert analytic.edge_weight3_mask([2.0], [2.0], [0.5])[0]

    def test_threshold_at_hi_end_is_first_knot(self):
        assert abs(analytic.weight3_threshold(2.9) - analytic.A1) < 1e-12
        assert not analytic.edge_weight3_mask([2.9], [1.1], [0.5])[0]

    def test_coin_one_never_heavy_below_mid(self):
        assert not analytic.edge_weight3_mask([1.5], [1.5], [1.0])[0]

    def test_symmetry_in_endpoints(self):
        rng = np.random.default_rng(3)
        a = analytic.x_from_uniform(rng.random(500))
        b = analytic.x_from_uniform(rng.random(500))
        e = rng.random(500)
        assert np.array_equal(
            analytic.edge_weight3_mask(a, b, e),
            analytic.edge_weight3_mask(b, a, e),
        )

    @pytest.mark.parametrize("alpha", [1.3, 2.2])
    def test_monte_carlo_marginal(self, alpha):
        rng = np.random.default_rng(17)
        n = 200_000
        freq = simulate_weight3_frequency(alpha, n, rng)
        p = (alpha - 1) / 2
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.1, 2.9))
def test_probability_identity_property(alpha):
    assert abs(weight3_probability(alpha) - (alpha - 1) / 2) < 1e-10


def test_constants_report_shape():
    report = analytic.constants_report(5)
    assert 0.023 < report["dbar_closed_form"] < 0.024
    assert abs(report["dbar_closed_form"] - report["dbar_quadrature"]) < 1e-9
    assert len(report["r_table"]) == 5
