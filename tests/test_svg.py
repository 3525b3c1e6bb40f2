from __future__ import annotations

import re

from salience_lab.svg import curve_plot


def test_a_band_reaching_below_every_mean_stays_inside_the_margins():
    # curve a's first band reaches 4, below every mean of either curve
    curves = {"a": [(1, 10.0, 6.0), (2, 12.0, 1.0), (3, 11.0, 0.5)],
              "b": [(1, 20.0, 2.0), (2, 18.0, None), (3, 19.0, 1.0)]}
    width, height, margin = 640, 480, 48  # curve_plot's margin
    rendered = curve_plot(curves, "title", "x", width, height).render()
    polygons = re.findall(r'<polygon points="([^"]*)"', rendered)
    assert len(polygons) == 2
    for points in polygons:
        for point in points.split():
            x, y = map(float, point.split(","))
            assert margin <= x <= width - margin and margin <= y <= height - margin, point
