"""Checks hypervolume_2d against brute-force computations on small fronts.

Run with ``python3 -m pytest bench/test_hypervolume.py``.
"""
import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hypervolume import hypervolume_2d  # noqa: E402


def inclusion_exclusion(points, ref):
    """Union area of the boxes [x, ref_x] x [y, ref_y] by inclusion-exclusion."""
    boxes = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    total = 0.0
    for size in range(1, len(boxes) + 1):
        for subset in itertools.combinations(boxes, size):
            width = ref[0] - max(p[0] for p in subset)
            height = ref[1] - max(p[1] for p in subset)
            total += (-1) ** (size + 1) * width * height
    return total


def grid_cells(points, ref):
    """Count unit cells of an integer grid covered by at least one box."""
    covered = 0
    for cx in range(ref[0]):
        for cy in range(ref[1]):
            if any(x <= cx and y <= cy for x, y in points):
                covered += 1
    return covered


@pytest.mark.parametrize("seed", range(40))
def test_matches_inclusion_exclusion(seed):
    rng = random.Random(seed)
    ref = (1.0, 20.0)
    points = [(rng.uniform(-0.2, 1.2), rng.uniform(-1.0, 22.0)) for _ in range(rng.randint(0, 8))]
    assert hypervolume_2d(points, ref) == pytest.approx(inclusion_exclusion(points, ref), abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_matches_integer_grid(seed):
    rng = random.Random(1000 + seed)
    ref = (12, 15)
    # duplicates and shared coordinates are likely on a coarse grid
    points = [(rng.randint(0, 14), rng.randint(0, 17)) for _ in range(rng.randint(0, 10))]
    assert hypervolume_2d(points, ref) == grid_cells(points, ref)


def test_empty_and_out_of_range_fronts_have_zero_volume():
    assert hypervolume_2d([], (1.0, 1.0)) == 0.0
    assert hypervolume_2d([(1.0, 0.0), (0.0, 1.0), (2.0, 2.0)], (1.0, 1.0)) == 0.0


def test_dominated_points_add_nothing():
    ref = (1.0, 1.0)
    assert hypervolume_2d([(0.5, 0.5), (0.6, 0.6)], ref) == hypervolume_2d([(0.5, 0.5)], ref)
