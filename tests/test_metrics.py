import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmatch import (
    InvalidInputError,
    MetricConfig,
    ProductBasket,
    ScoredPair,
    ScoreReport,
    area_score,
    augmented_hamming_distance,
    evaluate,
    filter_pairs,
    hamming_distance,
    prediction_score,
    production_score,
    zero_one,
)

EPS = 1e-6
CFG = MetricConfig(epsilon=EPS)


def pair(real, predicted):
    return ScoredPair(ProductBasket(tuple(real)), ProductBasket(tuple(predicted)))


@st.composite
def basket_pairs(draw, min_value=0, max_value=10, max_width=19):
    width = draw(st.integers(min_value=1, max_value=max_width))
    quantities = st.integers(min_value=min_value, max_value=max_value)
    real = draw(st.lists(quantities, min_size=width, max_size=width))
    predicted = draw(st.lists(quantities, min_size=width, max_size=width))
    return pair(real, predicted)


class TestFilterPairs:
    def test_drops_both_zero_products(self):
        filtered = filter_pairs(pair((0, 2, 0), (0, 1, 0)))
        assert filtered.real.quantities == (2,)
        assert filtered.predicted.quantities == (1,)

    def test_all_zero_filters_to_empty(self):
        filtered = filter_pairs(pair((0, 0, 0), (0, 0, 0)))
        assert len(filtered) == 0

    def test_keeps_half_zero_products(self):
        filtered = filter_pairs(pair((1, 0), (0, 1)))
        assert filtered.real.quantities == (1, 0)
        assert filtered.predicted.quantities == (0, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ScoredPair(ProductBasket((1,)), ProductBasket((1, 2)))


class TestZeroOne:
    def test_exact_match(self):
        assert zero_one(pair((2, 0, 1), (2, 0, 1))) == 1

    def test_any_difference(self):
        assert zero_one(pair((2, 0, 1), (2, 1, 1))) == 0

    def test_empty_pair_counts_as_match(self):
        assert zero_one(filter_pairs(pair((0, 0), (0, 0)))) == 1


class TestHamming:
    def test_hand_value(self):
        assert hamming_distance(pair((2, 0, 1), (2, 1, 0))) == pytest.approx(2 / 3)

    def test_equal_baskets(self):
        assert hamming_distance(pair((3, 4), (3, 4))) == 0.0

    def test_all_wrong(self):
        assert hamming_distance(pair((1, 2), (2, 1))) == 1.0

    def test_empty_pair(self):
        assert hamming_distance(filter_pairs(pair((0,), (0,)))) == 0.0


class TestAugmentedHamming:
    def test_hand_value(self):
        # (0 + 1 + 1) / 3: exact match, then 0/1 twice
        assert augmented_hamming_distance(pair((2, 0, 1), (2, 1, 0))) == pytest.approx(2 / 3)

    def test_equal_baskets(self):
        assert augmented_hamming_distance(pair((5, 1), (5, 1))) == 0.0

    def test_partial_credit(self):
        assert augmented_hamming_distance(pair((4,), (2,))) == pytest.approx(0.5)


class TestRatioScores:
    def test_prediction_equal_baskets(self):
        assert prediction_score(pair((2, 3, 1), (2, 3, 1)), CFG) == pytest.approx(1.0)

    def test_prediction_hand_value(self):
        # (1 + 1 + 1e-6) / 3
        value = prediction_score(pair((2, 0, 1), (2, 1, 0)), CFG)
        assert value == pytest.approx((2 + EPS) / 3)
        assert round(value, 4) == 0.6667

    def test_prediction_underestimate(self):
        assert prediction_score(pair((4,), (2,)), CFG) == pytest.approx(0.5)

    def test_production_equal_baskets(self):
        assert production_score(pair((2, 3, 1), (2, 3, 1)), CFG) == pytest.approx(1.0)

    def test_production_hand_value(self):
        # (1 + 1e-6 + 1) / 3
        value = production_score(pair((2, 0, 1), (2, 1, 0)), CFG)
        assert value == pytest.approx((2 + EPS) / 3)

    def test_production_overestimate(self):
        assert production_score(pair((2,), (4,)), CFG) == pytest.approx(0.5)

    def test_area_equal_baskets(self):
        assert area_score(pair((7,), (7,)), CFG) == pytest.approx(1.0)

    def test_area_hand_value(self):
        value = area_score(pair((2, 0, 1), (2, 1, 0)), CFG)
        assert value == pytest.approx(((2 + EPS) / 3) ** 2)
        assert round(value, 4) == 0.4444

    def test_area_underestimate(self):
        assert area_score(pair((4,), (2,)), CFG) == pytest.approx(0.5)

    def test_empty_pair_scores_one(self):
        empty = filter_pairs(pair((0,), (0,)))
        assert prediction_score(empty, CFG) == 1.0
        assert production_score(empty, CFG) == 1.0
        assert area_score(empty, CFG) == 1.0


class TestInvariants:
    @settings(max_examples=300)
    @given(basket_pairs())
    def test_scores_bounded_and_ordered(self, scored):
        filtered = filter_pairs(scored)
        s_z = zero_one(filtered)
        d_h = hamming_distance(filtered)
        d_hp = augmented_hamming_distance(filtered)
        pre = prediction_score(filtered, CFG)
        pro = production_score(filtered, CFG)
        area = area_score(filtered, CFG)
        for value in (s_z, 1 - d_h, 1 - d_hp, pre, pro, area):
            assert 0.0 <= value <= 1.0 + 1e-12
        # each relaxation can only raise the score
        assert 1 - d_h >= s_z
        assert 1 - d_hp >= 1 - d_h - 1e-12

    @settings(max_examples=200)
    @given(basket_pairs())
    def test_symmetries(self, scored):
        flipped = ScoredPair(scored.predicted, scored.real)
        assert augmented_hamming_distance(scored) == pytest.approx(
            augmented_hamming_distance(flipped), abs=1e-12
        )
        assert prediction_score(scored, CFG) == pytest.approx(
            production_score(flipped, CFG), abs=1e-12
        )

    @settings(max_examples=200)
    @given(basket_pairs(), st.floats(1e-9, 1.0))
    def test_production_score_is_the_per_product_mean(self, scored, epsilon):
        total = 0.0
        for y, yhat in zip(scored.real.quantities, scored.predicted.quantities):
            total += min(1.0, max(y, epsilon) / max(yhat, epsilon))
        assert production_score(scored, MetricConfig(epsilon=epsilon)) == total / len(scored)

    @settings(max_examples=200)
    @given(basket_pairs(max_value=6))
    def test_disabling_filter_only_inflates_ratio_scores(self, scored):
        filtered = filter_pairs(scored)
        assert prediction_score(scored, CFG) >= prediction_score(filtered, CFG) - 1e-12
        assert production_score(scored, CFG) >= production_score(filtered, CFG) - 1e-12
        assert area_score(scored, CFG) >= area_score(filtered, CFG) - 1e-12

    @settings(max_examples=200)
    @given(basket_pairs(min_value=1), st.integers(min_value=2, max_value=9))
    def test_ratio_scores_scale_invariant_for_positive_quantities(self, scored, factor):
        scaled = pair(
            [q * factor for q in scored.real.quantities],
            [q * factor for q in scored.predicted.quantities],
        )
        assert augmented_hamming_distance(scaled) == pytest.approx(
            augmented_hamming_distance(scored), abs=1e-12
        )
        assert prediction_score(scaled, CFG) == pytest.approx(
            prediction_score(scored, CFG), abs=1e-12
        )
        assert production_score(scaled, CFG) == pytest.approx(
            production_score(scored, CFG), abs=1e-12
        )


class TestEvaluate:
    def test_perfect_predictions(self):
        pairs = [pair((1, 2, 0), (1, 2, 0)), pair((0, 0, 3), (0, 0, 3))]
        report = evaluate(pairs, CFG)
        assert report.values() == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert report.n_evaluated == 2

    def test_two_pair_hand_average(self):
        pairs = [pair((2, 0, 1), (2, 1, 0)), pair((4, 0, 0), (2, 0, 0))]
        report = evaluate(pairs, CFG)
        ratio = (2 + EPS) / 3
        assert report.s_z == pytest.approx(0.0)
        assert report.one_minus_dH == pytest.approx((1 / 3 + 0.0) / 2)
        assert report.one_minus_dHplus == pytest.approx((1 / 3 + 0.5) / 2)
        assert report.s_pre == pytest.approx((ratio + 0.5) / 2)
        assert report.s_pro == pytest.approx((ratio + 1.0) / 2)
        assert report.s_pro_x_pre == pytest.approx((ratio * ratio + 0.5) / 2)

    def test_filter_toggle_monotone_on_zero_heavy_pairs(self):
        import numpy as np

        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(100):
            mask = rng.uniform(size=10) < 0.4  # >= 50% both-zero on average
            real = rng.integers(0, 5, 10) * mask
            predicted = rng.integers(0, 5, 10) * mask
            pairs.append(pair(real.tolist(), predicted.tolist()))
        filtered = evaluate(pairs, MetricConfig(epsilon=EPS, filter_zero_pairs=True))
        unfiltered = evaluate(pairs, MetricConfig(epsilon=EPS, filter_zero_pairs=False))
        assert unfiltered.s_pre >= filtered.s_pre
        assert unfiltered.s_pro >= filtered.s_pro
        assert unfiltered.s_pro_x_pre >= filtered.s_pro_x_pre

    def test_rejects_empty_sequence(self):
        with pytest.raises(InvalidInputError):
            evaluate([], CFG)

    def test_rejects_mixed_widths(self):
        with pytest.raises(InvalidInputError):
            evaluate([pair((1,), (1,)), pair((1, 2), (1, 2))], CFG)


class TestConfigAndReport:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            MetricConfig(epsilon=0.0)

    def test_report_bounds_checked(self):
        with pytest.raises(InvalidInputError):
            ScoreReport(1.5, 0, 0, 0, 0, 0, n_evaluated=1)
        with pytest.raises(InvalidInputError):
            ScoreReport(0, 0, 0, 0, 0, 0, n_evaluated=0)
