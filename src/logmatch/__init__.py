"""Point-cloud registration and product-basket prediction for log scans.

The library aligns 3D log scans with point-to-point ICP (closed-form
quaternion registration inside the iterative loop), uses the converged
mean-square error as a similarity distance to find the most-resembling
training log for an unseen scan, predicts its product basket, and scores
predictions with six multi-output metrics.
"""

import os
import sys

# The --jobs worker processes are the only parallelism: logmatch's BLAS calls
# (batched 4x4 eigh, 3xN products) are too small to gain from threads, and an
# idle OpenBLAS pool spins on CPU. OpenBLAS reads this when numpy (or scipy's
# own copy) loads, so it can only be set before then; an explicit value wins,
# and pool workers inherit it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .correspondence import (  # noqa: E402  (after the BLAS default)
    CorrespondenceSet,
    SpatialIndex,
    build_index,
    match_correspondences,
)
from .dataset import Dataset, SplitSpec, drop_empty, split_indices
from .errors import InvalidInputError, LogmatchError, NumericalError, ParseError
from .geometry import (
    PointCloud,
    RigidTransform,
    UnitQuaternion,
    apply_transform,
    quaternion_to_rotation,
)
from .metrics import (
    MetricConfig,
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
from .predictor import (
    LogFeatures,
    LogRecord,
    PredictionOutcome,
    ProductBasket,
    extract_features,
    icp_nn_predict_batch,
    knn_feature_predict,
    mean_predict,
    nn_predict_from_distances,
)
from .registration import (
    IcpConfig,
    IcpIteration,
    IcpTrace,
    RegistrationResult,
    TerminalReason,
    compute_registration,
    icp_align,
    icp_distance,
    icp_distance_matrix,
    max_eigenvector,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceSet",
    "Dataset",
    "IcpConfig",
    "IcpIteration",
    "IcpTrace",
    "InvalidInputError",
    "LogFeatures",
    "LogRecord",
    "LogmatchError",
    "MetricConfig",
    "NumericalError",
    "ParseError",
    "PointCloud",
    "PredictionOutcome",
    "ProductBasket",
    "RegistrationResult",
    "RigidTransform",
    "ScoreReport",
    "ScoredPair",
    "SpatialIndex",
    "SplitSpec",
    "TerminalReason",
    "UnitQuaternion",
    "apply_transform",
    "area_score",
    "augmented_hamming_distance",
    "build_index",
    "compute_registration",
    "drop_empty",
    "evaluate",
    "extract_features",
    "filter_pairs",
    "hamming_distance",
    "icp_align",
    "icp_distance",
    "icp_distance_matrix",
    "icp_nn_predict_batch",
    "knn_feature_predict",
    "match_correspondences",
    "max_eigenvector",
    "mean_predict",
    "nn_predict_from_distances",
    "prediction_score",
    "production_score",
    "quaternion_to_rotation",
    "split_indices",
    "zero_one",
]
