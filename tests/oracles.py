"""Reference implementations that the tests check the package against."""

import numpy as np


def normalize_edge_features(edge_features: np.ndarray) -> np.ndarray:
    """Scale raw edge features before they enter a learned layer, all columns
    at once: the reference for ``scenegraph.normalize_edge_column``.

    Angle is mapped to (-1, 1] and the unbounded, never negative size ratio
    is squashed with log1p; the other components are already within
    [-1, sqrt(2)]. The input is not modified.
    """
    out = edge_features.copy()
    out[:, 3] /= 180.0
    np.log1p(out[:, 5], out=out[:, 5])
    return out
