"""The library's one input contract, name by name.

Every public name has a row in CONTRACT listing its scalar parameters.
Counts and indices take a Python or numpy integer, not a bool; reals take
a finite Python or numpy real, not a bool or a string; flags take a bool.
Anything else raises InvalidInputError naming the argument. A name with no
scalar parameter has an empty row, so a new public name fails
test_every_public_name_has_a_row until its parameters are listed here.
"""

import math
import re
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import logmatch
from logmatch import (
    Dataset,
    IcpConfig,
    IcpIteration,
    IcpTrace,
    InvalidInputError,
    LogFeatures,
    LogRecord,
    MetricConfig,
    PointCloud,
    PredictionOutcome,
    ProductBasket,
    RegistrationResult,
    RigidTransform,
    ScoredPair,
    ScoreReport,
    SpatialIndex,
    SplitSpec,
    TerminalReason,
    UnitQuaternion,
    apply_transform,
    area_score,
    augmented_hamming_distance,
    build_index,
    compute_registration,
    drop_empty,
    evaluate,
    extract_features,
    filter_pairs,
    hamming_distance,
    icp_align,
    icp_distance,
    icp_distance_matrix,
    icp_nn_predict_batch,
    knn_feature_predict,
    match_correspondences,
    mean_predict,
    nn_predict_from_distances,
    prediction_score,
    production_score,
    quaternion_to_rotation,
    split_indices,
    zero_one,
)

COUNT, REAL, FLAG = "count", "real", "flag"

WRONG = {
    COUNT: [True, False, 1.5, 2.0, math.nan, math.inf, "1", None],
    REAL: [True, False, math.nan, math.inf, -math.inf, "1", None],
    FLAG: [1, 0, 1.5, math.nan, math.inf, "no", None],
}
NUMPY = {
    COUNT: [np.int64, np.int32],
    REAL: [np.float64, np.float32],
    FLAG: [np.bool_],
}


class Scalar(NamedTuple):
    """One scalar parameter: call(value) passes value for it and valid
    values for every other argument; the error message names it as says."""

    param: str
    kind: str
    valid: object
    call: Callable[[object], object]
    says: str = ""


_RNG = np.random.default_rng(0)
_SCANS = [PointCloud(_RNG.normal(size=(10, 3))) for _ in range(3)]
_RECORDS = [LogRecord(f"r{i}", scan, ProductBasket((i,))) for i, scan in enumerate(_SCANS)]
_FEATURES = dict(volume=1.0, length=10.0, wide_end_diameter=2.0, narrow_end_diameter=1.0, taper=0.1)
_SCORES = dict(s_z=0.5, one_minus_dH=0.5, one_minus_dHplus=0.5, s_pre=0.5, s_pro=0.5, s_pro_x_pre=0.5)
_QUATERNION = dict(q0=1.0, q1=0.0, q2=0.0, q3=0.0)


def _fields(cls, base: dict, kind: str) -> list[Scalar]:
    return [Scalar(name, kind, valid, lambda v, name=name: cls(**{**base, name: v}))
            for name, valid in base.items()]


# Exception types carry whatever location and message they are given, and
# ids, enums, arrays, clouds and configs are not scalars of this contract.
CONTRACT: dict[str, list[Scalar]] = {
    "CorrespondenceSet": [],
    "Dataset": [],
    "IcpConfig": [
        Scalar("tau", REAL, 1e-8, lambda v: IcpConfig(tau=v)),
        Scalar("max_iterations", COUNT, 50, lambda v: IcpConfig(max_iterations=v)),
        Scalar("pre_align", FLAG, False, lambda v: IcpConfig(pre_align=v)),
        Scalar("stride", COUNT, 1, lambda v: IcpConfig(stride=v)),
    ],
    "IcpIteration": [
        Scalar("index", COUNT, 0, lambda v: IcpIteration(v, 1.0, RigidTransform.identity())),
        Scalar("mse", REAL, 1.0, lambda v: IcpIteration(0, v, RigidTransform.identity())),
    ],
    "IcpTrace": [],
    "InvalidInputError": [],
    "LogFeatures": _fields(LogFeatures, _FEATURES, REAL),
    "LogRecord": [],
    "LogmatchError": [],
    "MetricConfig": [
        Scalar("epsilon", REAL, 1e-6, lambda v: MetricConfig(epsilon=v)),
        Scalar("filter_zero_pairs", FLAG, True, lambda v: MetricConfig(filter_zero_pairs=v)),
    ],
    "NumericalError": [],
    "ParseError": [],
    "PointCloud": [],
    "PredictionOutcome": [
        Scalar("distance", REAL, 1.0, lambda v: PredictionOutcome(ProductBasket((1,)), "a", v)),
    ],
    "ProductBasket": [
        Scalar("quantities", COUNT, 1, lambda v: ProductBasket((v,))),
    ],
    "RegistrationResult": [
        Scalar("mse", REAL, 1.0, lambda v: RegistrationResult(RigidTransform.identity(), v)),
    ],
    "RigidTransform": [],
    "ScoreReport": _fields(partial(ScoreReport, n_evaluated=1), _SCORES, REAL) + [
        Scalar("n_evaluated", COUNT, 1, lambda v: ScoreReport(**_SCORES, n_evaluated=v)),
    ],
    "ScoredPair": [],
    "SpatialIndex": [],
    "SplitSpec": [
        Scalar("train_fraction", REAL, 0.6, lambda v: SplitSpec(train_fraction=v)),
        Scalar("seed", COUNT, 0, lambda v: SplitSpec(seed=v)),
        Scalar("runs", COUNT, 10, lambda v: SplitSpec(runs=v)),
    ],
    "TerminalReason": [],
    "UnitQuaternion": _fields(UnitQuaternion, _QUATERNION, REAL) + [
        Scalar("angle", REAL, 1.0, lambda v: UnitQuaternion.from_axis_angle([0.0, 0.0, 1.0], v)),
    ],
    "apply_transform": [],
    "area_score": [],
    "augmented_hamming_distance": [],
    "build_index": [],
    "compute_registration": [],
    "drop_empty": [],
    "evaluate": [],
    "extract_features": [],
    "filter_pairs": [],
    "hamming_distance": [],
    "icp_align": [],
    "icp_distance": [],
    "icp_distance_matrix": [
        Scalar("pairs[0][0]", COUNT, 1, lambda v: icp_distance_matrix(_SCANS, [(v, 0)]), says="pair id"),
        Scalar("pairs[0][1]", COUNT, 0, lambda v: icp_distance_matrix(_SCANS, [(1, v)]), says="pair id"),
        Scalar("jobs", COUNT, 1, lambda v: icp_distance_matrix(_SCANS, [(1, 0)], jobs=v)),
    ],
    "icp_nn_predict_batch": [
        Scalar("jobs", COUNT, 1, lambda v: icp_nn_predict_batch(_RECORDS[:2], [_SCANS[2]], jobs=v)),
    ],
    "knn_feature_predict": [
        Scalar("k", COUNT, 1, lambda v: knn_feature_predict(
            _RECORDS, [LogFeatures(**_FEATURES)] * 3, [LogFeatures(**_FEATURES)], k=v)),
    ],
    "match_correspondences": [],
    "max_eigenvector": [],
    "mean_predict": [],
    "nn_predict_from_distances": [],
    "prediction_score": [],
    "production_score": [],
    "quaternion_to_rotation": [],
    "split_indices": [
        Scalar("n", COUNT, 10, lambda v: split_indices(v, SplitSpec(runs=5), 0)),
        Scalar("run_index", COUNT, 0, lambda v: split_indices(10, SplitSpec(runs=5), v)),
    ],
    "zero_one": [],
}

ROWS = [(name, scalar) for name, scalars in CONTRACT.items() for scalar in scalars]


def _id(name: str, scalar: Scalar) -> str:
    return f"{name}.{scalar.param}"


def test_every_public_name_has_a_row():
    assert sorted(CONTRACT) == sorted(logmatch.__all__)


@pytest.mark.parametrize(
    "name, scalar, wrong",
    [(name, scalar, wrong) for name, scalar in ROWS for wrong in WRONG[scalar.kind]],
    ids=[f"{_id(name, scalar)}={wrong!r}" for name, scalar in ROWS for wrong in WRONG[scalar.kind]],
)
def test_wrong_scalar_is_refused_by_name(name, scalar, wrong):
    with pytest.raises(InvalidInputError, match=rf"\b{re.escape(scalar.says or scalar.param)}\b"):
        scalar.call(wrong)


@pytest.mark.parametrize(
    "name, scalar, numpy_type",
    [(name, scalar, t) for name, scalar in ROWS for t in NUMPY[scalar.kind]],
    ids=[f"{_id(name, scalar)}:{t.__name__}" for name, scalar in ROWS for t in NUMPY[scalar.kind]],
)
def test_numpy_scalar_is_accepted(name, scalar, numpy_type):
    value = numpy_type(scalar.valid)
    result = scalar.call(value)
    if value.item() == scalar.valid:  # not a float32 rounding of the valid value
        # Stored as the Python type it stands for, so the results print alike.
        assert repr(result) == repr(scalar.call(scalar.valid))


def test_spatial_index_refuses_a_bare_array():
    with pytest.raises(InvalidInputError, match="model must be a PointCloud"):
        SpatialIndex(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError, match="model must be a PointCloud"):
        build_index(np.zeros((3, 3)))


# Object arguments of the wrong type, each refused with the name it is given.
_CLOUD = _SCANS[0]
_PAIRS = match_correspondences(build_index(_CLOUD), _CLOUD)
_PAIR = ScoredPair(ProductBasket((1, 0)), ProductBasket((1, 2)))
OBJECTS = {
    "icp_align(moving=ndarray)": ("moving", lambda: icp_align(_CLOUD.xyz, _CLOUD)),
    "icp_align(model=ndarray)": ("model", lambda: icp_align(_CLOUD, _CLOUD.xyz)),
    "icp_align(cfg=dict)": ("cfg", lambda: icp_align(_CLOUD, _CLOUD, {"tau": 1})),
    "icp_distance(cfg=3)": ("cfg", lambda: icp_distance(_CLOUD, _CLOUD, 3)),
    "icp_distance(cfg=0)": ("cfg", lambda: icp_distance(_CLOUD, _CLOUD, 0)),
    "icp_distance_matrix(scans[0]=ndarray)": (
        r"scans\[0\]", lambda: icp_distance_matrix([_CLOUD.xyz, _CLOUD], [(0, 1)])),
    "icp_distance_matrix(cfg=dict)": ("cfg", lambda: icp_distance_matrix([_CLOUD, _CLOUD], [(0, 1)], {"tau": 1})),
    "icp_distance_matrix(cfg=[])": ("cfg", lambda: icp_distance_matrix([_CLOUD, _CLOUD], [(0, 1)], [])),
    "RigidTransform(rotation=dict)": ("rotation", lambda: RigidTransform(_QUATERNION)),
    "PointCloud(str)": ("point cloud", lambda: PointCloud("abc")),
    "PointCloud(object cell)": ("point cloud", lambda: PointCloud([[1.0, 2.0, object()]])),
    "LogRecord(scan=ndarray)": ("scan", lambda: LogRecord("a", _CLOUD.xyz, ProductBasket((1,)))),
    "LogRecord(basket=tuple)": ("basket", lambda: LogRecord("a", _CLOUD, (1,))),
    "ScoredPair(real=tuple)": ("real", lambda: ScoredPair((1,), (1,))),
    "ScoredPair(predicted=tuple)": ("predicted", lambda: ScoredPair(ProductBasket((1,)), (1,))),
    "PredictionOutcome(predicted=tuple)": ("predicted", lambda: PredictionOutcome((1,))),
    "Dataset(records[0]=int)": (r"records\[0\]", lambda: Dataset([1], ("p",))),
    "IcpTrace(iterations[0]=int)": (r"iterations\[0\]", lambda: IcpTrace([1], TerminalReason.CONVERGED)),
    "extract_features(scan=ndarray)": ("scan", lambda: extract_features(_CLOUD.xyz)),
    "compute_registration(moving=ndarray)": ("moving", lambda: compute_registration(_CLOUD.xyz, _CLOUD, _PAIRS)),
    "compute_registration(model=ndarray)": ("model", lambda: compute_registration(_CLOUD, _CLOUD.xyz, _PAIRS)),
    "compute_registration(pairs=3)": ("pairs", lambda: compute_registration(_CLOUD, _CLOUD, 3)),
    "apply_transform(cloud=ndarray)": ("cloud", lambda: apply_transform(RigidTransform.identity(), _CLOUD.xyz)),
    "apply_transform(t=PointCloud)": ("t", lambda: apply_transform(_CLOUD, _CLOUD)),
    "match_correspondences(moving=ndarray)": ("moving", lambda: match_correspondences(build_index(_CLOUD), _CLOUD.xyz)),
    "match_correspondences(index=PointCloud)": ("index", lambda: match_correspondences(_CLOUD, _CLOUD)),
    "quaternion_to_rotation(q=tuple)": ("q", lambda: quaternion_to_rotation((1, 0, 0, 0))),
    "split_indices(spec=3)": ("spec", lambda: split_indices(10, 3, 0)),
    "drop_empty(ds=3)": ("ds", lambda: drop_empty(3)),
    **{f"{scorer.__name__}(pair=3)": ("pair", partial(scorer, 3)) for scorer in (
        filter_pairs, zero_one, hamming_distance, augmented_hamming_distance,
        prediction_score, production_score, area_score)},
    **{f"{scorer.__name__}(cfg=0)": ("cfg", partial(scorer, _PAIR, 0)) for scorer in (
        prediction_score, production_score, area_score)},
    "evaluate(pairs[0]=3)": (r"pairs\[0\]", lambda: evaluate([3])),
    "evaluate(cfg=0)": ("cfg", lambda: evaluate([_PAIR], 0)),
    "evaluate(cfg=3)": ("cfg", lambda: evaluate([_PAIR], 3)),
    "mean_predict(train[0]=int)": (r"train\[0\]", lambda: mean_predict([1])),
    "nn_predict_from_distances(train[0]=int)": (
        r"train\[0\]", lambda: nn_predict_from_distances([1], np.zeros((1, 1)))),
    "icp_nn_predict_batch(train[0]=int)": (r"train\[0\]", lambda: icp_nn_predict_batch([1], [_CLOUD])),
    "icp_nn_predict_batch(queries[0]=ndarray)": (
        r"queries\[0\]", lambda: icp_nn_predict_batch(_RECORDS[:1], [_CLOUD.xyz])),
    "knn_feature_predict(train[0]=int)": (r"train\[0\]", lambda: knn_feature_predict(
        [1], [LogFeatures(**_FEATURES)], [LogFeatures(**_FEATURES)], k=1)),
}


@pytest.mark.parametrize("says, call", OBJECTS.values(), ids=OBJECTS.keys())
def test_wrong_object_is_refused_by_name(says, call):
    with pytest.raises(InvalidInputError, match=rf"^{says} must be"):
        call()


def test_a_query_is_named_by_its_place_in_queries():
    with pytest.raises(InvalidInputError) as excinfo:
        icp_nn_predict_batch(_RECORDS[:1], [_CLOUD.xyz])
    assert str(excinfo.value) == "queries[0] must be a PointCloud, got ndarray"


def test_none_selects_the_default_config():
    assert evaluate([_PAIR], None) == evaluate([_PAIR], MetricConfig())
    for scorer in (prediction_score, production_score, area_score):
        assert scorer(_PAIR, None) == scorer(_PAIR, MetricConfig())
    assert icp_distance(_CLOUD, _SCANS[1], None) == icp_distance(_CLOUD, _SCANS[1], IcpConfig())
