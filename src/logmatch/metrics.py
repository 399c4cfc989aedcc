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


def filter_pairs(pair: ScoredPair) -> ScoredPair:
    """Drop every product where both real and predicted quantities are zero.

    Order is preserved; the result may be empty.
    """
    _instance("pair", pair, ScoredPair)
    keep = [
        (y, yhat)
        for y, yhat in zip(pair.real.quantities, pair.predicted.quantities)
        if y != 0 or yhat != 0
    ]
    return ScoredPair(
        ProductBasket(tuple(y for y, _ in keep)),
        ProductBasket(tuple(yhat for _, yhat in keep)),
    )


def zero_one(pair: ScoredPair) -> int:
    """1 if the predicted basket equals the real basket exactly, else 0.

    An empty pair counts as hit: equal empty baskets.
    """
    _instance("pair", pair, ScoredPair)
    return 1 if pair.predicted.quantities == pair.real.quantities else 0


def hamming_distance(pair: ScoredPair) -> float:
    """Fraction of products whose quantity was predicted wrong (0 if empty)."""
    _instance("pair", pair, ScoredPair)
    if len(pair) == 0:
        return 0.0
    wrong = sum(1 for y, yhat in zip(pair.real.quantities, pair.predicted.quantities) if y != yhat)
    return wrong / len(pair)


def augmented_hamming_distance(pair: ScoredPair) -> float:
    """Hamming distance with partial credit min/max for wrong quantities.

    Each product contributes 0 when exact, otherwise 1 - min(y, yhat)/max(y, yhat);
    the max is positive whenever the quantities differ. Empty pairs score 0.
    """
    _instance("pair", pair, ScoredPair)
    if len(pair) == 0:
        return 0.0
    total = 0.0
    for y, yhat in zip(pair.real.quantities, pair.predicted.quantities):
        if y != yhat:
            total += 1.0 - min(y, yhat) / max(y, yhat)
    return total / len(pair)


def prediction_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """Average capped ratio of predicted over real quantities.

    Per product: min(1, max(yhat, eps) / max(y, eps)). Empty pairs score 1.
    """
    _instance("pair", pair, ScoredPair)
    cfg = _config(cfg, MetricConfig)
    if len(pair) == 0:
        return 1.0
    eps = cfg.epsilon
    total = 0.0
    for y, yhat in zip(pair.real.quantities, pair.predicted.quantities):
        total += min(1.0, max(yhat, eps) / max(y, eps))
    return total / len(pair)


def production_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """Average capped ratio of real over predicted quantities.

    Per product: min(1, max(y, eps) / max(yhat, eps)), the prediction score
    of the pair with its baskets swapped. Empty pairs score 1.
    """
    _instance("pair", pair, ScoredPair)
    return prediction_score(ScoredPair(pair.predicted, pair.real), cfg)


def area_score(pair: ScoredPair, cfg: MetricConfig | None = None) -> float:
    """prediction_score x production_score of the same pair."""
    return prediction_score(pair, cfg) * production_score(pair, cfg)


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
        scored = filter_pairs(pair) if cfg.filter_zero_pairs else pair
        pre = prediction_score(scored, cfg)
        pro = production_score(scored, cfg)
        sums[0] += zero_one(scored)
        sums[1] += 1.0 - hamming_distance(scored)
        sums[2] += 1.0 - augmented_hamming_distance(scored)
        sums[3] += pre
        sums[4] += pro
        sums[5] += pre * pro
    n = len(pairs)
    return ScoreReport(*(total / n for total in sums), n_evaluated=n)
