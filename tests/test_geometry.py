import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenegnn.geometry import (
    SIZE_RATIO_CAP,
    BoundingBox,
    iou,
    pairwise_geometry,
)

from oracles import box_rejection, clamp_box, corners_near_bounds, edge_rows

coord = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def boxes(draw, min_side=0.0):
    x0 = draw(st.floats(0.0, 1.0 - min_side))
    y0 = draw(st.floats(0.0, 1.0 - min_side))
    x1 = draw(st.floats(min(x0 + min_side, 1.0), 1.0))
    y1 = draw(st.floats(min(y0 + min_side, 1.0), 1.0))
    return BoundingBox(x0, y0, x1, y1)


def assert_checked_as_reference(corners):
    expected = box_rejection(*corners)
    if expected is None:
        assert BoundingBox(*corners).corners == corners
    else:
        with pytest.raises(ValueError) as info:
            BoundingBox(*corners)
        assert str(info.value) == expected


class TestBoundingBox:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundingBox(0.5, 0.1, 0.4, 0.2)
        with pytest.raises(ValueError):
            BoundingBox(-0.1, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, float("nan"), 0.5)

    @given(corners_near_bounds())
    @settings(max_examples=400)
    def test_accepts_and_rejects_as_the_reference(self, corners):
        assert_checked_as_reference(corners)

    def test_every_edge_value_in_every_position(self):
        for corners in edge_rows():
            assert_checked_as_reference(corners)

    def test_derived_quantities(self):
        b = BoundingBox(0.2, 0.2, 0.4, 0.6)
        assert b.width == pytest.approx(0.2)
        assert b.height == pytest.approx(0.4)
        assert b.center == pytest.approx((0.3, 0.4))

    def test_clamp_box_reorders_and_clips(self):
        b = clamp_box(0.9, -0.3, 0.2, 0.5)
        assert (b.x_min, b.y_min, b.x_max, b.y_max) == (0.2, 0.0, 0.9, 0.5)


class TestIou:
    def test_identity(self):
        a = BoundingBox(0.1, 0.1, 0.5, 0.5)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_hand_computed_overlap(self):
        # intersection 0.1*0.1 = 0.01, union 0.04 + 0.04 - 0.01 = 0.07
        a = BoundingBox(0, 0, 0.2, 0.2)
        b = BoundingBox(0.1, 0.1, 0.3, 0.3)
        assert iou(a, b) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_union(self):
        a = BoundingBox(0.5, 0.5, 0.5, 0.5)
        assert iou(a, a) == 0.0

    @given(boxes(), boxes())
    def test_symmetry_and_range(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    def test_rasterization_oracle(self):
        # Boxes are aligned to the 512-pixel grid so pixel counting is exact.
        res = 512
        rng = np.random.default_rng(7)
        for _ in range(1000):
            px = np.sort(rng.integers(0, res + 1, size=(2, 2)), axis=1)
            (ax0, ax1), (ay0, ay1) = px
            qx = np.sort(rng.integers(0, res + 1, size=(2, 2)), axis=1)
            (bx0, bx1), (by0, by1) = qx
            a = BoundingBox(ax0 / res, ay0 / res, ax1 / res, ay1 / res)
            b = BoundingBox(bx0 / res, by0 / res, bx1 / res, by1 / res)
            ra = np.zeros((res, res), dtype=bool)
            rb = np.zeros((res, res), dtype=bool)
            ra[ay0:ay1, ax0:ax1] = True
            rb[by0:by1, bx0:bx1] = True
            union = np.logical_or(ra, rb).sum()
            raster = np.logical_and(ra, rb).sum() / union if union else 0.0
            assert abs(iou(a, b) - raster) < 5e-3


class TestPairwiseGeometry:
    def test_identical_boxes(self):
        a = BoundingBox(0.1, 0.1, 0.3, 0.3)
        g = pairwise_geometry(a, a)
        assert g.as_tuple() == (0.0, 0.0, 0.0, 0.0, 1.0, 1.0)

    def test_calculator_angle(self):
        # centers (0.1, 0.1) -> (0.4, 0.5): arctan(4/3) in degrees
        a = BoundingBox(0.05, 0.05, 0.15, 0.15)
        b = BoundingBox(0.35, 0.45, 0.45, 0.55)
        g = pairwise_geometry(a, b)
        assert g.dx == pytest.approx(0.3)
        assert g.dy == pytest.approx(0.4)
        assert g.dist == pytest.approx(0.5)
        assert g.theta_deg == pytest.approx(53.13010235415598)

    def test_size_ratio(self):
        a = BoundingBox(0.0, 0.0, 0.2, 0.2)
        b = BoundingBox(0.5, 0.5, 0.6, 0.6)
        assert pairwise_geometry(a, b).size_ratio == pytest.approx(0.25)

    def test_zero_area_reference_capped(self):
        a = BoundingBox(0.5, 0.5, 0.5, 0.5)
        b = BoundingBox(0.1, 0.1, 0.3, 0.3)
        assert pairwise_geometry(a, b).size_ratio == SIZE_RATIO_CAP

    def test_overflowing_ratio_capped(self):
        # a subnormal reference area: b.area / a.area overflows to inf
        a = BoundingBox(0.0, 0.0, 0.75, 5e-324)
        b = BoundingBox(0.0, 0.0, 0.125, 0.125)
        assert pairwise_geometry(a, b).size_ratio == SIZE_RATIO_CAP

    @given(boxes(), boxes())
    def test_antisymmetry(self, a, b):
        ab = pairwise_geometry(a, b)
        ba = pairwise_geometry(b, a)
        assert ab.dx == -ba.dx and ab.dy == -ba.dy
        assert ab.dist == ba.dist
        if ab.dx != 0.0 or ab.dy != 0.0:
            assert math.isclose(
                (ab.theta_deg - ba.theta_deg) % 360.0, 180.0, abs_tol=1e-9
            )

    @given(boxes(min_side=0.01), boxes(min_side=0.01))
    @settings(max_examples=200)
    def test_size_ratio_reciprocity(self, a, b):
        ab = pairwise_geometry(a, b)
        ba = pairwise_geometry(b, a)
        assert ab.size_ratio * ba.size_ratio == pytest.approx(1.0, abs=1e-9)

    @given(boxes())
    def test_theta_range(self, a):
        b = BoundingBox(0.0, 0.0, 1.0, 1.0)
        t = pairwise_geometry(a, b).theta_deg
        assert -180.0 < t <= 180.0
