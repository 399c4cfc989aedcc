"""Multi-output evaluation scores for basket predictions.

Six scores compare a predicted basket against the real one, each in [0, 1]:

- zero_one: all-or-nothing exact equality.
- 1 - hamming_distance: fraction of products predicted exactly.
- 1 - augmented_hamming_distance: like the above, but a wrong quantity
  earns partial credit min/max instead of zero.
- prediction_score: average capped ratio predicted/real per product.
- production_score: average capped ratio real/predicted per product.
- area_score: prediction_score x production_score, per pair.

Products where both the real and the predicted quantity are zero say
nothing about the predictor; by default they are removed per pair before
scoring, which is exactly why disabling the filter can only inflate the
ratio scores. A pair that filters down to nothing is a perfectly predicted
empty basket and scores 1 (distances 0) everywhere.

Each pair is scored in one pass over its products, which gives all five
per-pair values at once; evaluate sums the pairs in input order and
divides by their count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInputError, _config, _flag, _instance, _integer, _items, _real
from .predictor import ProductBasket


@dataclass(frozen=True)
class ScoredPair:
    """A real basket and the basket predicted for it, of equal length."""

    real: ProductBasket
    predicted: ProductBasket

    def __post_init__(self) -> None:
        _instance("real", self.real, ProductBasket)
        _instance("predicted", self.predicted, ProductBasket)
        if len(self.real) != len(self.predicted):
            raise InvalidInputError(
                f"basket lengths differ: real {len(self.real)} vs predicted {len(self.predicted)}"
            )

    def __len__(self) -> int:
        return len(self.real)


@dataclass(frozen=True)
class MetricConfig:
    """epsilon guards the ratio scores against zero quantities;
    filter_zero_pairs drops both-zero products before scoring."""

    epsilon: float = 1e-6
    filter_zero_pairs: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon, 0.0, strict=True))
        object.__setattr__(self, "filter_zero_pairs", _flag("filter_zero_pairs", self.filter_zero_pairs))


@dataclass(frozen=True)
class ScoreReport:
    """The six scores averaged over an evaluation run of n_evaluated pairs."""

    s_z: float
    one_minus_dH: float
    one_minus_dHplus: float
    s_pre: float
    s_pro: float
    s_pro_x_pre: float
    n_evaluated: int

    def __post_init__(self) -> None:
        for name in ("s_z", "one_minus_dH", "one_minus_dHplus", "s_pre", "s_pro", "s_pro_x_pre"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, 1.0))
        object.__setattr__(self, "n_evaluated", _integer("n_evaluated", self.n_evaluated, 1))

    def values(self) -> tuple[float, float, float, float, float, float]:
        return (self.s_z, self.one_minus_dH, self.one_minus_dHplus,
                self.s_pre, self.s_pro, self.s_pro_x_pre)


def _kept(real: tuple[int, ...], predicted: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two quantity tuples without the products where both are zero."""
    kept = [(y, yhat) for y, yhat in zip(real, predicted) if y != 0 or yhat != 0]
    return tuple(y for y, _ in kept), tuple(yhat for _, yhat in kept)


def _scores(real: tuple[int, ...], predicted: tuple[int, ...],
            epsilon: float) -> tuple[int, float, float, float, float]:
    """The zero-one hit, Hamming and augmented Hamming distances, and
    prediction and production scores of two equal-length quantity tuples,
    from one loop over their products. An empty pair is a hit with
    distances 0 and ratio scores 1."""
    n = len(real)
    if n == 0:
        return 1, 0.0, 0.0, 1.0, 1.0
    wrong = 0
    partial = pre = pro = 0.0
    for y, yhat in zip(real, predicted):
        if y != yhat:
            wrong += 1
            partial += 1.0 - min(y, yhat) / max(y, yhat)
        pre += min(1.0, max(yhat, epsilon) / max(y, epsilon))
        pro += min(1.0, max(y, epsilon) / max(yhat, epsilon))
    return int(wrong == 0), wrong / n, partial / n, pre / n, pro / n


def _pair_scores(pair: ScoredPair, cfg: MetricConfig | None = None) -> tuple[int, float, float, float, float]:
    """_scores of a checked pair under a checked config."""
    _instance("pair", pair, ScoredPair)
    return _scores(pair.real.quantities, pair.predicted.quantities, _config(cfg, MetricConfig).epsilon)


def filter_pairs(pair: ScoredPair) -> ScoredPair:
    """Drop every product where both real and predicted quantities are zero.

    Order is preserved; the result may be empty.
    """
    _instance("pair", pair, ScoredPair)
    real, predicted = _kept(pair.real.quantities, pair.predicted.quantities)
    return ScoredPair(ProductBasket(real), ProductBasket(predicted))


def zero_one(pair: ScoredPair) -> int:
    """1 if the predicted basket equals the real basket exactly, else 0.

    An empty pair counts as hit: equal empty baskets.
    """
    return _pair_scores(pair)[0]


def hamming_distance(pair: ScoredPair) -> float:
    """Fraction of products whose quantity was predicted wrong (0 if empty)."""
    return _pair_scores(pair)[1]


def augmented_hamming_distance(pair: ScoredPair) -> float:
    """Hamming distance with partial credit min/max for wrong quantities.

    Each product contributes 0 when exact, otherwise 1 - min(y, yhat)/max(y, yhat);
    the max is positive whenever the quantities differ. Empty pairs score 0.
    """
    return _pair_scores(pair)[2]


def prediction_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """Average capped ratio of predicted over real quantities.

    Per product: min(1, max(yhat, eps) / max(y, eps)). Empty pairs score 1.
    """
    return _pair_scores(pair, cfg)[3]


def production_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """Average capped ratio of real over predicted quantities.

    Per product: min(1, max(y, eps) / max(yhat, eps)), the prediction score
    of the pair with its baskets swapped. Empty pairs score 1.
    """
    return _pair_scores(pair, cfg)[4]


def area_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """prediction_score x production_score of the same pair."""
    *_, pre, pro = _pair_scores(pair, cfg)
    return pre * pro


def evaluate(pairs: Iterable[ScoredPair], cfg: MetricConfig | None = None) -> ScoreReport:
    """Score every pair and average, reporting Table-style values.

    Filtering (when enabled) happens per pair. The area column is the mean
    of the per-pair products, not the product of the means.
    """
    cfg = _config(cfg, MetricConfig)
    pairs = _items("pairs", pairs, ScoredPair)
    if not pairs:
        raise InvalidInputError("pairs must not be empty")
    widths = {len(pair) for pair in pairs}
    if len(widths) > 1:
        raise InvalidInputError(f"pairs have inconsistent basket lengths: {sorted(widths)}")

    sums = [0.0] * 6
    for pair in pairs:
        real, predicted = pair.real.quantities, pair.predicted.quantities
        if cfg.filter_zero_pairs:
            real, predicted = _kept(real, predicted)
        hit, d_h, d_hp, pre, pro = _scores(real, predicted, cfg.epsilon)
        for k, value in enumerate((hit, 1.0 - d_h, 1.0 - d_hp, pre, pro, pre * pro)):
            sums[k] += value
    n = len(pairs)
    return ScoreReport(*(total / n for total in sums), n_evaluated=n)
