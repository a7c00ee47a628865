"""Two-objective hypervolume under minimisation."""
from __future__ import annotations

import math

# (cost, log1p complexity): cost never exceeds 1, and log1p(complexity) = 20
# admits every individual up to about 4.9e8 complexity units
REFERENCE = (1.0, 20.0)


def hypervolume_2d(points, ref=REFERENCE) -> float:
    """Area dominated by `points` and bounded above by `ref`.

    Points on or beyond the reference point on either axis add nothing.
    Sweeping by ascending first objective, each point that improves the
    best second objective so far adds the strip between the two.
    """
    area = 0.0
    best_y = ref[1]
    for x, y in sorted(p for p in points if p[0] < ref[0] and p[1] < ref[1]):
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


def front_hypervolume(rows) -> float:
    """Hypervolume of front rows given as (cost, complexity) pairs."""
    return hypervolume_2d([(cost, math.log1p(cplx)) for cost, cplx in rows])
