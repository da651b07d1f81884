"""Unit tests for figure-rendering helpers (no experiments involved)."""

import numpy as np

from repro.experiments.figures import FigureResult, _occupancy_grid


class TestFigureResult:
    def test_render_contains_panels(self):
        r = FigureResult(name="Fig. X", description="demo")
        r.panels["panel-a"] = "AAA"
        r.panels["panel-b"] = "BBB"
        text = r.render()
        assert "Fig. X" in text and "demo" in text
        assert "panel-a" in text and "AAA" in text
        assert text.index("panel-a") < text.index("panel-b")


class TestOccupancyGrid:
    def test_marks_selected_counts(self, rng):
        mu = rng.random(200)
        sigma = rng.random(200)
        mask = np.zeros(200, dtype=bool)
        mask[:10] = True
        text = _occupancy_grid(mu, sigma, mask, n_bins=5)
        digits = [c for line in text.splitlines()[1:] for c in line if c.isdigit()]
        assert sum(int(d) for d in digits) >= 10 - 9  # 9-caps may clip

    def test_no_selection_grid_is_dots(self, rng):
        mu = rng.random(50)
        sigma = rng.random(50)
        text = _occupancy_grid(mu, sigma, np.zeros(50, dtype=bool), n_bins=4)
        assert not any(c.isdigit() for c in text.replace("high", "").replace("low", ""))

