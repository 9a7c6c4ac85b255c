import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics import stats


class TestPearson:
    def test_exact_linearity(self):
        assert stats.associate([1, 2, 3], [2, 4, 6]).r == pytest.approx(1.0)

    def test_exact_antilinearity(self):
        assert stats.associate([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # Sxy=3, Sxx=2, Syy=14/3 -> r = sqrt(27/28)
        r = stats.associate([0, 1, 2], [0, 1, 3]).r
        assert r == pytest.approx(math.sqrt(27 / 28), abs=1e-12)

    def test_too_few_points(self):
        assert stats.associate([1, 2], [3, 4]) is None

    def test_zero_variance(self):
        assert stats.associate([1, 1, 1], [1, 2, 3]) is None
        assert stats.associate([1, 2, 3], [5, 5, 5]) is None

    def test_tiny_moments(self):
        # Sxx * Syy underflows to 0 although neither moment is 0
        assert stats.associate([0, 0, 1e-59], [0, 0, 1e-143]).r == pytest.approx(1.0)

    def test_constant_series_undefined_before_any_moment(self):
        # the mean of three equal floats misses them by an ulp: squared
        # deviations sum to about 5.8e-34, not 0
        assert stats.associate([0.1] * 3, [1, 2, 3]) is None
        assert stats.associate([1, 2, 3], [0.7] * 3) is None
        # equal values too large to sum are constant all the same
        assert stats.associate([1e308] * 3, [1, 2, 3]) is None

    def test_moment_underflowing_to_zero_undefined(self):
        # x varies, but its squared deviations underflow: Sxx is 0 and beta undefined
        assert stats.associate([0, 0, 1e-200], [0, 1, 2]) is None

    def test_missing_values_dropped_pairwise(self):
        r = stats.associate([1, None, 2, 3, float("nan")], [2, 9, 4, 6, 1]).r
        assert r == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.associate([1, 2], [1, 2, 3])

    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30) + 0.5 * x
            expected = np.corrcoef(x, y)[0, 1]
            assert stats.associate(x.tolist(), y.tolist()).r == pytest.approx(
                expected, abs=1e-12
            )

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_symmetry(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        xy = stats.associate(xs, ys)
        yx = stats.associate(ys, xs)
        if xy is None:
            assert yx is None
        else:
            assert xy.r == pytest.approx(yx.r, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
            min_size=3,
            max_size=30,
        ),
        st.sampled_from([-4.0, -1.0, 0.5, 2.0]),
        st.integers(-16, 16),
    )
    def test_affine_invariance(self, pairs, a, b):
        # power-of-two scale and small integer offset keep the map exact
        xs = [float(p[0]) for p in pairs]
        ys = [float(p[1]) for p in pairs]
        base = stats.associate(xs, ys)
        affine = stats.associate([a * x + b for x in xs], ys)
        if base is None:
            assert affine is None
        else:
            assert affine.r == pytest.approx(math.copysign(1.0, a) * base.r, abs=1e-9)


class TestOls:
    def test_exact_fit(self):
        result = stats.associate([0, 1, 2, 3], [1, 3, 5, 7])
        assert result.beta == pytest.approx(2.0)
        assert result.r_squared == pytest.approx(1.0)

    def test_hand_computed_value(self):
        result = stats.associate([0, 1, 2], [0, 1, 3])
        assert result.beta == pytest.approx(1.5, abs=1e-12)
        assert result.r_squared == pytest.approx(27 / 28, abs=1e-12)

    def test_zero_variance_x(self):
        assert stats.associate([2, 2, 2], [1, 2, 3]) is None

    def test_r_squared_equals_pearson_squared(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            x = rng.normal(size=30)
            y = rng.normal(size=30) + rng.uniform(-2, 2) * x
            result = stats.associate(x.tolist(), y.tolist())
            assert abs(result.r_squared - result.r * result.r) < 1e-10

    def test_beta_matches_numpy_polyfit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=25)
            y = 1.3 * x + rng.normal(size=25)
            beta = stats.associate(x.tolist(), y.tolist()).beta
            expected = np.polyfit(x, y, 1)[0]
            assert beta == pytest.approx(expected, abs=1e-9)

    def test_associate_sign_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.normal(size=20)
            y = rng.normal(size=20) + rng.uniform(-1, 1) * x
            result = stats.associate(x.tolist(), y.tolist())
            if result is not None and result.r != 0:
                assert math.copysign(1, result.beta) == math.copysign(1, result.r)


class TestWeightedMean:
    def test_undefined_values_skipped_and_weights_renormalized(self):
        terms = [(1.0, 1.0), (None, 5.0), (4.0, 3.0)]
        assert stats.weighted_mean(terms, "terms") == 13.0 / 4.0

    def test_nothing_defined_is_undefined(self):
        assert stats.weighted_mean([], "terms") is None
        assert stats.weighted_mean([(None, 2.0), (None, 1.0)], "terms") is None
        assert stats.weighted_mean([(1.0, 0.0), (3.0, 0.0)], "terms") is None

    def test_integer_weights_match_float_weights(self):
        rng = random.Random(17)
        for _ in range(200):
            values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 20))]
            weights = [rng.randint(0, 50) for _ in values]
            assert stats.weighted_mean(zip(values, weights), "terms") == \
                stats.weighted_mean(zip(values, map(float, weights)), "terms")

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.floats(-1e6, 1e6)),
                st.floats(0, 1e3),
            ),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_exact_under_reordering(self, terms, rnd):
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        assert stats.weighted_mean(shuffled, "terms") == stats.weighted_mean(terms, "terms")


class TestConcentrationIndex:
    def test_worked_paper_value(self):
        value = stats.concentration_index(2974, 7481, 16011, 53420)
        assert value == pytest.approx(1.33, abs=0.005)

    def test_intramural_top_quartile(self):
        value = stats.concentration_index(4754, 20844, 16011, 53420)
        assert value == pytest.approx(0.76, abs=0.005)

    def test_independence_is_neutral(self):
        assert stats.concentration_index(5, 10, 25, 50) == pytest.approx(1.0)

    def test_zero_marginals_undefined(self):
        assert stats.concentration_index(0, 0, 10, 50) is None
        assert stats.concentration_index(0, 10, 0, 50) is None

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            stats.concentration_index(-1, 10, 10, 50)
        with pytest.raises(ValueError):
            stats.concentration_index(11, 10, 20, 50)
        with pytest.raises(ValueError):
            stats.concentration_index(0, 10, 10, 0)

    def test_row_weighted_column_mean_is_one(self):
        rng = random.Random(5)
        for _ in range(50):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            table = [[rng.randint(1, 500) for _ in range(cols)] for _ in range(rows)]
            row_totals = [sum(r) for r in table]
            col_totals = [sum(r[j] for r in table) for j in range(cols)]
            grand = sum(row_totals)
            for j in range(cols):
                mean = sum(
                    stats.concentration_index(table[i][j], row_totals[i], col_totals[j], grand)
                    * row_totals[i]
                    / grand
                    for i in range(rows)
                )
                assert mean == pytest.approx(1.0, abs=1e-9)


class TestQuartileBins:
    def test_one_value_per_bin(self):
        assert stats.quartile_bins([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_all_equal_goes_to_lowest(self):
        assert stats.quartile_bins([7, 7, 7, 7, 7]) == [1, 1, 1, 1, 1]

    def test_uniform_fill(self):
        rng = random.Random(11)
        values = [rng.random() for _ in range(1000)]
        bins = stats.quartile_bins(values)
        for b in (1, 2, 3, 4):
            assert bins.count(b) == 250

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            stats.quartile_bins([1, 2, 3])

    def test_undefined_value_rejected(self):
        with pytest.raises(ValueError, match="fully defined"):
            stats.quartile_bins([1.0, 2.0, math.nan, 4.0])

    def test_order_preserved(self):
        assert stats.quartile_bins([4, 1, 3, 2]) == [4, 1, 3, 2]

    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=50))
    @settings(max_examples=60)
    def test_monotone_transform_invariance(self, values):
        # cubing integers is strictly increasing and exact in float
        base = stats.quartile_bins([float(v) for v in values])
        transformed = stats.quartile_bins([float(v) ** 3 for v in values])
        assert base == transformed


class TestDescriptive:
    def test_singleton(self):
        d = stats.descriptive([5.0])
        assert (d.mean, d.median, d.min, d.max) == (5.0, 5.0, 5.0, 5.0)
        assert d.std == 0.0
        assert d.cv == 0.0

    def test_two_values_sample_std(self):
        d = stats.descriptive([2.0, 4.0])
        assert d.mean == pytest.approx(3.0)
        assert d.median == pytest.approx(3.0)
        assert d.std == pytest.approx(math.sqrt(2), abs=1e-12)
        assert d.cv == pytest.approx(math.sqrt(2) / 3, abs=1e-12)

    def test_cv_undefined_for_nonpositive_mean(self):
        assert stats.descriptive([-1.0, 1.0]).cv is None
        assert stats.descriptive([-3.0, -1.0]).cv is None

    def test_missing_values_dropped(self):
        d = stats.descriptive([None, 2.0, float("nan"), 4.0])
        assert d.n == 2
        assert d.mean == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.descriptive([None])

    def test_even_median_is_midpoint(self):
        d = stats.descriptive([1.0, 2.0, 10.0, 20.0])
        assert d.median == pytest.approx(6.0)

    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_std_zero_iff_all_equal(self, values):
        d = stats.descriptive(values)
        if d.std == 0.0:
            assert d.min == d.max
        else:
            assert d.min < d.max

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(1, 50, size=41)
        d = stats.descriptive(values.tolist())
        assert d.mean == pytest.approx(np.mean(values), abs=1e-10)
        assert d.median == pytest.approx(np.median(values), abs=1e-10)
        assert d.std == pytest.approx(np.std(values, ddof=1), abs=1e-10)
