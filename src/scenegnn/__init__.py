"""Spatial scene-graph anomaly detection and label correction toolkit."""

from .correct import correct_detections, simulate_detector
from .geometry import BoundingBox, EdgeGeometry, iou, pairwise_geometry
from .metrics import (
    EvalReport,
    evaluate_graphs,
    label_metrics,
    map50,
    validity_accuracy,
)
from .model import Checkpoint, ModelConfig, load_checkpoint, predict, save_checkpoint
from .scenegraph import Detection, Frame, SceneGraph, SceneObject, build_graph
from .train import build_dataset, split_dataset, train

__all__ = [
    "BoundingBox",
    "Checkpoint",
    "Detection",
    "EdgeGeometry",
    "EvalReport",
    "Frame",
    "ModelConfig",
    "SceneGraph",
    "SceneObject",
    "build_dataset",
    "build_graph",
    "correct_detections",
    "evaluate_graphs",
    "iou",
    "label_metrics",
    "load_checkpoint",
    "map50",
    "pairwise_geometry",
    "predict",
    "save_checkpoint",
    "simulate_detector",
    "split_dataset",
    "train",
    "validity_accuracy",
]

__version__ = "0.1.0"
