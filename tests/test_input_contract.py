"""The library's one input contract, name by name.

Every public name has a row in CONTRACT listing its scalar parameters.
Counts and indices take a Python or numpy integer, not a bool; reals take
a finite Python or numpy real, not a bool or a string; flags take a bool.
Anything else raises InvalidInputError naming the argument. A name with no
scalar parameter has an empty row, so a new public name fails
test_every_public_name_has_a_row until its parameters are listed here.
Object arguments are listed in OBJECTS, and sequence and array arguments,
with the forms each refuses and accepts, in SEQUENCES.
"""

import math
import re
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import logmatch
from logmatch import (
    CorrespondenceSet,
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
    max_eigenvector,
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
    "IcpTrace(terminal_reason=str)": ("terminal_reason", lambda: IcpTrace(
        (IcpIteration(0, 1.0, RigidTransform.identity()),), "done")),
    "IcpIteration(transform=str)": ("transform", lambda: IcpIteration(0, 1.0, "x")),
    "RegistrationResult(transform=str)": ("transform", lambda: RegistrationResult("x", 1.0)),
    "LogRecord(id=int)": ("log id", lambda: LogRecord(3, _CLOUD, ProductBasket((1,)))),
    "PredictionOutcome(neighbor_id=int)": ("neighbor_id", lambda: PredictionOutcome(ProductBasket((1,)), 7, 1.0)),
    "PredictionOutcome(neighbor_id='')": ("neighbor_id", lambda: PredictionOutcome(ProductBasket((1,)), "", 1.0)),
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


# Sequence and array arguments. A sequence is any iterable but a str or
# bytes, and every item is checked; an array is an array or nested sequence
# of integers (of reals where the values are reals) of the documented shape,
# never bools, strings, other objects or ragged rows. Each row names the
# parameter as its messages do, passes value for it and valid values for
# every other argument, and gives a single item where the sequence or array
# is expected.
ITEMS, REALS, IDS = "items", "reals", "ids"


class Argument(NamedTuple):
    says: str
    kind: str
    valid: object
    single: object
    call: Callable[[object], object]
    iterable: bool = False  # documented Iterable: generators are accepted
    optional: bool = False  # None selects a default


_FEATURE = LogFeatures(**_FEATURES)
_ITERATION = IcpIteration(0, 1.0, RigidTransform.identity())
_INDEX = build_index(_CLOUD)

SEQUENCES: dict[str, Argument] = {
    "mean_predict.train": Argument("train", ITEMS, _RECORDS, _RECORDS[0], mean_predict),
    "icp_nn_predict_batch.train": Argument(
        "train", ITEMS, _RECORDS[:2], _RECORDS[0], lambda v: icp_nn_predict_batch(v, [_SCANS[2]])),
    "icp_nn_predict_batch.queries": Argument(
        "queries", ITEMS, [_SCANS[2]], _SCANS[2], lambda v: icp_nn_predict_batch(_RECORDS[:2], v)),
    "nn_predict_from_distances.train": Argument(
        "train", ITEMS, _RECORDS, _RECORDS[0], lambda v: nn_predict_from_distances(v, [[3.0, 1.0, 2.0]])),
    "nn_predict_from_distances.distances": Argument(
        "distances", REALS, [[3.0, 1.0, 2.0], [0.0, 5.0, 5.0]], 1.0,
        lambda v: nn_predict_from_distances(_RECORDS, v)),
    "knn_feature_predict.train": Argument(
        "train", ITEMS, _RECORDS, _RECORDS[0], lambda v: knn_feature_predict(v, [_FEATURE] * 3, [_FEATURE], 1)),
    "knn_feature_predict.train_features": Argument(
        "train_features", ITEMS, [_FEATURE] * 3, _FEATURE, lambda v: knn_feature_predict(_RECORDS, v, [_FEATURE], 1)),
    "knn_feature_predict.query_features": Argument(
        "query_features", ITEMS, [_FEATURE], _FEATURE,
        lambda v: knn_feature_predict(_RECORDS, [_FEATURE] * 3, v, 1)),
    "knn_feature_predict.query_ids": Argument(
        "query_ids", ITEMS, ["q"], "q", lambda v: knn_feature_predict(_RECORDS, [_FEATURE] * 3, [_FEATURE], 1, v),
        optional=True),
    "icp_distance_matrix.scans": Argument(
        "scans", ITEMS, _SCANS, _SCANS[0], lambda v: icp_distance_matrix(v, [(1, 0)])),
    "icp_distance_matrix.pairs": Argument(
        "pairs", ITEMS, [(1, 0), (2, 1), (1, 0)], (1, 0), lambda v: icp_distance_matrix(_SCANS, v), iterable=True),
    "evaluate.pairs": Argument("pairs", ITEMS, [_PAIR, _PAIR], _PAIR, evaluate, iterable=True),
    "Dataset.records": Argument("records", ITEMS, _RECORDS, _RECORDS[0], lambda v: Dataset(v, ("p",))),
    "Dataset.product_names": Argument(
        "product_names", ITEMS, ("p",), "p", lambda v: Dataset(_RECORDS, v)),
    "IcpTrace.iterations": Argument(
        "iterations", ITEMS, [_ITERATION], _ITERATION, lambda v: IcpTrace(v, TerminalReason.CONVERGED)),
    "ProductBasket.quantities": Argument("quantities", ITEMS, [1, 0, 2], 1, ProductBasket),
    "PointCloud.xyz": Argument("point cloud", REALS, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], 1.0, PointCloud),
    "RigidTransform.translation": Argument(
        "translation", REALS, [1.0, 2.0, 3.0], 1.0, lambda v: RigidTransform(UnitQuaternion.identity(), v)),
    "UnitQuaternion.from_axis_angle.axis": Argument(
        "axis", REALS, [0.0, 1.0, 2.0], 1.0, lambda v: UnitQuaternion.from_axis_angle(v, 1.0)),
    "CorrespondenceSet.target_indices": Argument(
        "target_indices", IDS, [2, 0], 1, lambda v: CorrespondenceSet(v, [1.0, 0.0])),
    "CorrespondenceSet.squared_distances": Argument(
        "squared_distances", REALS, [1.0, 0.0], 1.0, lambda v: CorrespondenceSet([2, 0], v)),
    "SpatialIndex.query_batch.xyz": Argument(
        "xyz", REALS, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], 1.0, _INDEX.query_batch),
    "max_eigenvector.matrix": Argument(
        "matrix", REALS, np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), 1.0, max_eigenvector),
}


def _cells(value, f):
    """value, a nested list, with f applied to every cell."""
    return [_cells(v, f) for v in value] if isinstance(value, list) else f(value)


def _ragged(value):
    """value with its first cell widened into a row of two."""
    return [_ragged(value[0]), *value[1:]] if isinstance(value[0], list) else [[value[0]] * 2, *value[1:]]


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _wrong(arg: Argument) -> dict[str, object]:
    wrong = {"string": "abc", "bytes": b"abc", "single": arg.single}
    if not arg.optional:
        wrong["None"] = None
    if arg.kind != ITEMS:
        bool_cell = np.array(arg.valid, dtype=object)
        bool_cell.flat[0] = True
        wrong.update({
            "bools": _cells(arg.valid, lambda _: True),
            "bool-array": np.array(_cells(arg.valid, lambda _: True)),
            "a-bool-cell": bool_cell.tolist(),
            "strings": _cells(arg.valid, str),
            "string-array": np.array(_cells(arg.valid, str)),
            "objects": np.array(arg.valid, dtype=object),
            "ragged": _ragged(arg.valid),
            "wrong-shape": [arg.valid],
        })
    if arg.kind == IDS:
        wrong.update({"floats": _cells(arg.valid, lambda c: c + 0.9), "float-array": np.array(arg.valid) + 0.9})
    return wrong


def _accepted(arg: Argument) -> dict[str, object]:
    forms = {"tuple": _tuples(arg.valid)}
    if arg.iterable:
        forms["generator"] = (item for item in arg.valid)
    if all(isinstance(item, (int, float, list, tuple)) for item in arg.valid):
        forms["numpy"] = np.array(arg.valid)  # numbers, rows or pairs
    elif not isinstance(arg.valid[0], str):
        forms["object-array"] = np.empty(len(arg.valid), dtype=object)
        forms["object-array"][:] = arg.valid
    if arg.kind == REALS:
        forms["integer-array"] = np.array(arg.valid).astype(np.int32)
    return forms


WRONG_SEQUENCES = [(name, form, value) for name, arg in SEQUENCES.items() for form, value in _wrong(arg).items()]
ACCEPTED = [(name, form, value) for name, arg in SEQUENCES.items() for form, value in _accepted(arg).items()]


@pytest.mark.parametrize("name, form, value", WRONG_SEQUENCES, ids=[f"{n}={f}" for n, f, _ in WRONG_SEQUENCES])
def test_wrong_sequence_or_array_is_refused_by_name(name, form, value):
    arg = SEQUENCES[name]
    with pytest.raises(InvalidInputError, match=rf"\b{arg.says}\b"):
        arg.call(value)


@pytest.mark.parametrize("name, form, value", ACCEPTED, ids=[f"{n}:{f}" for n, f, _ in ACCEPTED])
def test_accepted_forms_give_the_same_result(name, form, value):
    arg = SEQUENCES[name]
    assert repr(arg.call(value)) == repr(arg.call(arg.valid))


# Calls that once escaped as a bare TypeError or ValueError, or were taken
# as something else, each refused by the name of its argument.
ONCE_ESCAPED = {
    "PointCloud(strings)": ("point cloud", lambda: PointCloud([["1", "2", "3"]])),
    "PointCloud(bools)": ("point cloud", lambda: PointCloud([[True, False, True]])),
    "CorrespondenceSet(float ids)": ("target_indices", lambda: CorrespondenceSet([0.9, 1.9, 2.9], [0.0] * 3)),
    "Dataset(product_names=str)": ("product_names", lambda: Dataset((), "ab")),
    "icp_distance_matrix(pairs=[triple])": ("pairs", lambda: icp_distance_matrix(_SCANS, [(0, 1, 2)])),
    "icp_nn_predict_batch(queries=PointCloud)": ("queries", lambda: icp_nn_predict_batch(_RECORDS, _CLOUD)),
    "mean_predict(None)": ("train", lambda: mean_predict(None)),
    "evaluate(empty generator)": ("pairs", lambda: evaluate(pair for pair in ())),
    "query_batch(strings)": ("xyz", lambda: _INDEX.query_batch([["a", "b", "c"]])),
    "from_axis_angle(2-vector)": ("axis", lambda: UnitQuaternion.from_axis_angle([1, 2], 1.0)),
    "ProductBasket(None)": ("quantities", lambda: ProductBasket(None)),
}


@pytest.mark.parametrize("says, call", ONCE_ESCAPED.values(), ids=ONCE_ESCAPED.keys())
def test_once_escaped_calls_are_refused_by_name(says, call):
    with pytest.raises(InvalidInputError, match=rf"\b{says}\b"):
        call()


@pytest.mark.parametrize("make, fields", [
    (lambda a, b: PointCloud(a), ("xyz",)),
    (lambda a, b: RigidTransform(UnitQuaternion.identity(), a[0]), ("translation",)),
    (lambda a, b: CorrespondenceSet(b, a[:, 0]), ("target_indices", "squared_distances")),
], ids=["PointCloud", "RigidTransform", "CorrespondenceSet"])
def test_value_types_copy_and_freeze_their_arrays(make, fields):
    coords, ids = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([1, 0])
    value = make(coords, ids)
    assert coords.flags.writeable and ids.flags.writeable
    for name in fields:
        stored = getattr(value, name)
        assert not stored.flags.writeable and stored.flags.c_contiguous
        assert not np.shares_memory(stored, coords) and not np.shares_memory(stored, ids)
