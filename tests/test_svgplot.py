"""Tests for the self-contained SVG line-plot emitter."""

import math
import re
import xml.etree.ElementTree as ET

import pytest

from limitcycles.errors import DomainError
from limitcycles.svgplot import Series, line_plot, save_plot


def test_series_validation():
    with pytest.raises(DomainError, match="x values"):
        Series("bad", [1.0, 2.0], [1.0])
    with pytest.raises(DomainError, match="empty"):
        Series("bad", [], [])


def test_well_formed_and_self_contained(tmp_path):
    svg = line_plot(
        [Series("wave", [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, -1.0])],
        title="t < 4 & rising",
        xlabel="t",
        ylabel="y",
    )
    root = ET.fromstring(svg)  # parses as XML, escaping included
    assert root.tag.endswith("svg")
    assert "href" not in svg
    path = tmp_path / "plot.svg"
    save_plot(path, [Series("wave", [0.0, 1.0], [1.0, 2.0])])
    assert path.read_text().startswith("<?xml")


def test_embedded_data_round_trips():
    xs = [0.5, 1.0, 2.25]
    ys = [-1.5, 3.0, -0.25]
    svg = line_plot([Series("data", xs, ys)])
    comment = svg.split("<!--")[1].split("-->")[0]
    x_line = next(l for l in comment.splitlines() if l.startswith("x: "))
    y_line = next(l for l in comment.splitlines() if l.startswith("y: "))
    assert [float(v) for v in x_line[3:].split()] == xs
    assert [float(v) for v in y_line[3:].split()] == ys


def test_comment_never_contains_double_hyphen():
    svg = line_plot([Series("a--b--c", [0.0, 1.0], [0.0, 1.0])])
    comment = svg.split("<!--", 1)[1].rsplit("-->", 1)[0]
    assert "--" not in comment
    ET.fromstring(svg)


def test_nan_breaks_polyline():
    series = Series(
        "broken", [0.0, 1.0, math.nan, 3.0, 4.0], [0.0, 1.0, math.nan, 1.0, 0.0]
    )
    svg = line_plot([series])
    assert svg.count("<polyline") == 2


def test_constant_series_padded():
    svg = line_plot([Series("flat", [1.0, 2.0], [5.0, 5.0])])
    ET.fromstring(svg)  # degenerate y-range must not divide by zero


def test_empty_plot_rejected():
    with pytest.raises(DomainError, match="nothing to plot"):
        line_plot([])
    with pytest.raises(DomainError, match="no finite data"):
        line_plot([Series("nan", [math.nan], [math.nan])])


def test_series_with_no_finite_value_draws_nothing():
    # the bounds come from every series' finite values together
    failed = Series("failed", [1.0, 2.0], [math.nan, math.nan])
    ok = Series("ok", [1.0, 2.0], [3.0, 4.0])
    svg = line_plot([failed, ok])
    ET.fromstring(svg)
    assert svg.count("<polyline") == 1
    points = re.compile(r'points="([^"]*)"')
    assert points.findall(svg) == points.findall(line_plot([ok]))
