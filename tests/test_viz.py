"""Chart building and SVG/ASCII rendering."""

import pathlib
import xml.etree.ElementTree as ET

import pytest

from fuzzkit import Domain, IntervalMF, Triangular, Variable, corpus
from fuzzkit.engine import infer
from fuzzkit.viz import (_escape, plot_firing, plot_output, plot_system,
                         plot_variable, render_ascii, render_svg, render_system_svg)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def tipper():
    return corpus.load_system("tipper")


# ---------------------------------------------------------------------------
# Chart construction

def test_plot_variable_series(tipper):
    ch = plot_variable(tipper.inputs["service"])
    assert ch.title == "service"
    assert [s.label for s in ch.series] == ["poor", "good", "excellent"]
    for s in ch.series:
        assert len(s.xs) == len(s.ys) == 201
        assert s.xs[0] == 0.0 and s.xs[-1] == 10.0
        assert all(0.0 <= y <= 1.0 for y in s.ys)


def test_plot_variable_samples_control(tipper):
    ch = plot_variable(tipper.inputs["service"], samples=2)
    assert ch.series[0].xs == (0.0, 10.0)
    with pytest.raises(ValueError, match="samples"):
        plot_variable(tipper.inputs["service"], samples=1)


def test_gaussian_peak_lands_near_center(tipper):
    ch = plot_variable(tipper.inputs["service"])
    good = next(s for s in ch.series if s.label == "good")
    peak_x = good.xs[max(range(len(good.ys)), key=good.ys.__getitem__)]
    assert abs(peak_x - 5.0) <= 10.0 / 200


def test_interval_terms_plot_as_band_pairs():
    v = Variable("a", Domain(0, 10),
                 {"t": IntervalMF(Triangular(2, 5, 8), Triangular(0, 5, 10))})
    ch = plot_variable(v)
    assert [s.label for s in ch.series] == ["t (upper)", "t (lower)"]
    upper = dict(zip(ch.series[0].xs, ch.series[0].ys))
    lower = dict(zip(ch.series[1].xs, ch.series[1].ys))
    assert all(lower[x] <= upper[x] for x in upper)


def test_plot_firing(tipper):
    inputs = {"service": 5.0, "food": 5.0}
    ch = plot_firing(tipper, inputs)
    assert [s.label for s in ch.series] == ["R1", "R2", "R3"]
    # bar height equals the rule activation
    acts = [max(s.ys) for s in ch.series]
    assert acts[1] == 1.0
    assert acts[0] == acts[2] == pytest.approx(0.0038659201394728076)


def test_plot_output(tipper):
    res = infer(tipper, {"service": 5.0, "food": 5.0})
    ch = plot_output(res, "tip")
    assert ch.series[0].label == "tip"
    assert max(ch.series[0].ys) <= 1.0
    with pytest.raises(ValueError, match="no aggregated curve"):
        plot_output(res, "nope")


def test_plot_system(tipper):
    fig = plot_system(tipper)
    assert fig.title == "tipper"
    assert [c.title for c in fig.charts] == ["service", "food", "tip"]
    assert len(fig.rules) == 3


# ---------------------------------------------------------------------------
# Renderers

def test_ascii_exact_dimensions(tipper):
    ch = plot_variable(tipper.inputs["service"])
    art = render_ascii(ch, 80, 20)
    lines = art.splitlines()
    assert len(lines) == 20
    assert all(len(l) == 80 for l in lines)
    assert lines[0].startswith("service")


def test_ascii_size_validation(tipper):
    ch = plot_variable(tipper.inputs["service"])
    with pytest.raises(ValueError, match="at least"):
        render_ascii(ch, 3, 20)
    with pytest.raises(ValueError, match="at least"):
        render_ascii(ch, 80, 2)


def test_ascii_is_deterministic(tipper):
    ch = plot_variable(tipper.inputs["food"])
    assert render_ascii(ch, 60, 12) == render_ascii(ch, 60, 12)


def test_svg_is_well_formed_xml(tipper):
    svg = render_svg(plot_variable(tipper.inputs["service"]))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.startswith("<?xml")
    # every term contributes a polyline
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:polyline", ns)) >= 3


def test_system_svg_well_formed(tipper):
    svg = render_system_svg(plot_system(tipper))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = ET.tostring(root, encoding="unicode")
    for label in ("service", "food", "tip"):
        assert label in text


def test_svg_escapes_hostile_labels():
    v = Variable("a<b>&\"x\"", Domain(0, 1), {"t": Triangular(0, 0.5, 1)})
    svg = render_svg(plot_variable(v))
    ET.fromstring(svg)  # still well-formed


def test_golden_system_svg(tipper):
    # Byte-exact rendering pin; regenerate deliberately if the layout changes.
    want = (DATA / "tipper.svg").read_text()
    assert render_system_svg(plot_system(tipper)) == want


@pytest.mark.parametrize("text", [
    "", "plain", "a & b", "<tag attr=\"v\">", "x > 3 && y < 4", "it's \"quoted\"",
    "&amp; already", "café ≤ 5 → 𝔽", "<&>" * 3,
])
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape  # the oracle; fuzzkit does not import it
    assert _escape(text) == escape(text)
