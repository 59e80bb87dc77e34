import hashlib
import re
from unittest.mock import patch
from xml.etree import ElementTree

import numpy as np
import pytest

from eigenrank import (DegenerateDataError, FigureSpec, bigmac_fixture, rank_comparison,
                       rank_items, ratio_analysis, render_cardinal_plot,
                       render_histogram, render_ratio_plot, render_slopegraph)
from eigenrank.report import DEFAULT_COLORS, RankComparison
from eigenrank.stats import RatioAnalysis
from helpers import score_table

GOLDEN_SLOPEGRAPH_SHA256 = "ff0b7612b4a290cecc9caa2e72b7f5e29d8e7f46aea5c10ca77d98e75c83d79f"
GOLDEN_RATIO_SHA256 = "ba1fee0e278e6863891da9e47630626260fddf59a07c249bc82831e2bef3f264"
GOLDEN_CARDINAL_SHA256 = "de844027614f45671807199369cd2b325366cdd4585046444510b115f865dae6"
GOLDEN_BLACK_SLOPEGRAPH_SHA256 = "c0908eef9afc7a001db5c8f30339ea62aea22ed9750f182aaa2d0cff4d9e7d42"
# a seeded 2,000-row comparison: the full slopegraph, its top half and the ratio plot
GOLDEN_LARGE_SHA256 = {
    "slopegraph": "1c62cff394ad6bcbd2503e665d6166b15b379d8ab8e3e4828b5851c15579df75",
    "half slopegraph": "78b716814c89e87a9e554c60e8eb1d107c508c8c17f53fdb0b95cac9f03a6082",
    "ratio plot": "c8b67759ac8972b925ddf915edf4f2cb59b9de3f95c9b3678053906c3b082b71"}


def fixture_comparison():
    labels = ["Annals of Alpha", "Beta & Gamma Journal", "Clinical Delta",
              "Epsilon Reports", "Zeta Letters", "Eta Quarterly"]
    left = [120.0, 95.0, 80.0, 40.0, 30.0, 5.0]
    right = [1.2, 2.5, 0.9, 1.1, 0.3, 0.05]
    return rank_items(labels, left, right, "total_citations", "ef")


def stroke_counts(svg: str) -> dict[str, int]:
    return {m: svg.count(f'stroke="{DEFAULT_COLORS[m]}"') for m in ("up", "down", "same")}


def random_comparison(rng):
    n = int(rng.integers(2, 40))
    labels = [f"J{k:03d}" for k in range(n)]
    return rank_items(labels, rng.normal(size=n), rng.normal(size=n))


# ---------------------------------------------------------------------------
# rank comparison
# ---------------------------------------------------------------------------

def test_identical_metrics_mean_no_movement():
    cmp = rank_items(["a", "b", "c"], [3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
    assert (cmp.delta == 0).all()
    assert cmp.movement_counts() == {"up": 0, "down": 0, "same": 3}


def test_reversal_deltas():
    cmp = rank_items(["A", "B", "C"], [3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
    assert cmp.labels == ("A", "B", "C")
    assert cmp.delta.tolist() == [-2, 0, 2]
    assert cmp.movement_counts() == {"up": 1, "down": 1, "same": 1}


def test_engineered_big_moves_are_reported_exactly():
    # permute a 50-journal ranking so one journal falls 30 places and
    # another rises 31
    labels = [f"J{k:02d}" for k in range(1, 51)]
    left_order = list(labels)
    right_order = list(labels)
    right_order.remove("J36")
    right_order.insert(4, "J36")   # right rank 5: rises 31
    right_order.remove("J05")
    right_order.insert(34, "J05")  # right rank 35: falls 30
    left_scores = {lab: float(50 - i) for i, lab in enumerate(left_order)}
    right_scores = {lab: float(50 - i) for i, lab in enumerate(right_order)}
    cmp = rank_items(labels, [left_scores[l] for l in labels],
                     [right_scores[l] for l in labels])
    delta = dict(zip(cmp.labels, cmp.delta.tolist()))
    assert delta["J36"] == 31 and delta["J05"] == -30


def test_ties_break_by_label():
    cmp = rank_items(["b", "a", "c"], [1.0, 1.0, 1.0], [2.0, 1.0, 3.0])
    assert cmp.labels == ("a", "b", "c")  # row i has left rank i + 1


def test_rank_comparison_excludes_undefined_metrics():
    scores = score_table(("A", "B", "C", "D"),
                         ef=[4.0, 3.0, 2.0, 1.0],
                         ai=[1.0, np.nan, 2.0, 0.5])
    cmp = rank_comparison(scores, "ef", "ai")
    assert cmp.excluded == ("B",)
    assert len(cmp) == 3
    assert cmp.left_name == "ef" and cmp.right_name == "ai"


def test_rank_comparison_needs_two_defined_journals():
    scores = score_table(("A", "B"), ef=[1.0, 2.0], ai=[np.nan, 1.0])
    with pytest.raises(DegenerateDataError):
        rank_comparison(scores, "ef", "ai")


def test_deltas_always_sum_to_zero():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cmp = random_comparison(rng)
        assert cmp.delta.sum() == 0


def test_rank_columns_match_a_sorted_reference():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        labels = [f"J{k:03d}" for k in rng.permutation(n)]
        left, right = (rng.integers(0, 5, n).astype(float).tolist() for _ in range(2))
        cmp = rank_items(labels, left, right)
        by_left = sorted(range(n), key=lambda i: (-left[i], labels[i]))
        by_right = sorted(range(n), key=lambda i: (-right[i], labels[i]))
        assert cmp.labels == tuple(labels[i] for i in by_left)
        assert cmp.score_left.tolist() == [left[i] for i in by_left]
        assert cmp.score_right.tolist() == [right[i] for i in by_left]
        assert cmp.rank_right.tolist() == [by_right.index(i) + 1 for i in by_left]


def test_rank_comparison_validates_consistency():
    cmp = RankComparison(("a", "b"), [2.0, 1.0], [1.0, 2.0], [2, 1])
    assert cmp.delta.tolist() == [-1, 1]
    assert cmp.movement_counts() == {"up": 1, "down": 1, "same": 0}
    with pytest.raises(ValueError, match="permutation"):
        RankComparison(("a", "b"), [2.0, 1.0], [1.0, 2.0], [2, 2])  # right rank repeats
    for labels, left in ((("a", "b"), [1.0, 2.0]),   # scores ascend
                         (("b", "a"), [1.0, 1.0])):  # tie out of label order
        with pytest.raises(ValueError, match="left-rank order"):
            RankComparison(labels, left, [1.0, 2.0], [2, 1])
    with pytest.raises(ValueError, match="equal lengths"):
        RankComparison(("a", "b"), [2.0, 1.0], [1.0], [2, 1])


def test_rank_items_rejects_non_finite_scores():
    with pytest.raises(ValueError, match="non-finite score for 'a'"):
        rank_items(["a", "b", "c"], [np.nan, 2.0, 1.0], [1.0, np.inf, 3.0])
    with pytest.raises(ValueError, match="non-finite score for 'b'"):
        rank_items(["a", "b", "c"], [3.0, 2.0, 1.0], [1.0, -np.inf, 3.0])


# ---------------------------------------------------------------------------
# slopegraph
# ---------------------------------------------------------------------------

def test_slopegraph_connector_colors_match_reversal_movements():
    cmp = rank_items(["A", "B", "C"], [3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
    svg = render_slopegraph(cmp, FigureSpec(width=400, height=300))
    assert stroke_counts(svg) == {"up": 1, "down": 1, "same": 1}


def test_slopegraph_top_fraction_limits_left_column():
    labels = [f"J{k}" for k in range(10)]
    scores = list(map(float, range(10, 0, -1)))
    cmp = rank_items(labels, scores, scores)
    svg = render_slopegraph(cmp, FigureSpec(width=400, height=300, top_fraction=0.5))
    # left column entries are end-anchored; one more end anchor is the header
    assert svg.count('text-anchor="end"') == 5 + 1


def half_shown_slopegraph() -> str:
    # J1 is 2nd on the left but last on the right; with the top half shown
    # its counterpart is out of range
    cmp = rank_items(["J0", "J1", "J2", "J3"],
                     [4.0, 3.0, 2.0, 1.0], [4.0, 0.5, 3.0, 2.0])
    return render_slopegraph(cmp, FigureSpec(width=400, height=300, top_fraction=0.5))


def test_slopegraph_counterpart_beyond_range_is_black_without_connector():
    svg = half_shown_slopegraph()
    assert svg.count("<line") == 1  # only J0 connects
    assert 'fill="#000000">2. J1</text>' in svg


def test_slopegraph_with_unconnected_label_golden_snapshot():
    svg = half_shown_slopegraph()
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_BLACK_SLOPEGRAPH_SHA256


def test_slopegraph_golden_snapshot():
    svg = render_slopegraph(fixture_comparison(),
                            FigureSpec(width=480, height=360, title="fixture"))
    again = render_slopegraph(fixture_comparison(),
                              FigureSpec(width=480, height=360, title="fixture"))
    assert svg == again
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_SLOPEGRAPH_SHA256


def large_figures() -> dict[str, str]:
    """The figures of a numpy-seeded 2,000-row comparison, with labels that
    need escaping among them."""
    rng = np.random.default_rng(2000)
    labels = [f"Journal {k:04d}" for k in range(2000)]
    for k, odd in zip(rng.choice(2000, 5, replace=False).tolist(),
                      ("A & B", "<Gamma>", 'The "Q"', "Revista Espa\u00f1ola", "Bad\x01Byte")):
        labels[k] = odd
    tc, ef = rng.lognormal(5.0, 1.5, 2000).round(), rng.lognormal(-2.0, 1.4, 2000)
    cmp = rank_items(labels, tc, ef, "total_citations", "ef")
    spec = FigureSpec(width=720, height=9000, title="TC against EF")
    return {"slopegraph": render_slopegraph(cmp, spec),
            "half slopegraph": render_slopegraph(cmp, FigureSpec(
                width=720, height=4600, top_fraction=0.5, title="top half")),
            "ratio plot": render_ratio_plot(ratio_analysis(ef, tc, labels), spec)}


def test_large_figures_golden_snapshot():
    digests = {name: hashlib.sha256(svg.encode()).hexdigest()
               for name, svg in large_figures().items()}
    assert digests == GOLDEN_LARGE_SHA256


def test_slopegraph_tallies_match_movements_on_random_comparisons():
    rng = np.random.default_rng(77)
    spec = FigureSpec(width=500, height=800)
    for _ in range(100):
        cmp = random_comparison(rng)
        svg = render_slopegraph(cmp, spec)
        counts = cmp.movement_counts()
        assert stroke_counts(svg) == counts
        assert render_slopegraph(cmp, spec) == svg


# ---------------------------------------------------------------------------
# cardinal plot
# ---------------------------------------------------------------------------

def _connector_y(svg: str, attr: str) -> list[float]:
    return [float(m) for m in re.findall(rf'{attr}="([0-9.]+)"', svg)]


def test_cardinal_gap_is_proportional_to_score_difference():
    cmp = rank_items(["First", "Second"], [10.0, 5.0], [10.0, 5.0])
    spec = FigureSpec(width=400, height=372)  # plot height 300
    svg = render_cardinal_plot(cmp, spec, top_k=2)
    y1 = _connector_y(svg, "y1")
    assert abs(y1[1] - y1[0]) == pytest.approx(150.0)  # half the scale height


def test_cardinal_identical_scores_draw_horizontal_connectors():
    cmp = rank_items(["First", "Second"], [10.0, 5.0], [10.0, 5.0])
    svg = render_cardinal_plot(cmp, FigureSpec(width=400, height=372), top_k=2)
    assert _connector_y(svg, "y1") == _connector_y(svg, "y2")


def test_cardinal_right_column_can_close_the_gap():
    # second item has barely half the left score but comes much closer on
    # the right: the right-column gap must shrink strictly
    cmp = rank_items(["Leader", "Runner-up"], [10.0, 5.2], [10.0, 8.0])
    svg = render_cardinal_plot(cmp, FigureSpec(width=400, height=372), top_k=2)
    y1 = _connector_y(svg, "y1")
    y2 = _connector_y(svg, "y2")
    assert abs(y2[1] - y2[0]) < abs(y1[1] - y1[0])


def test_cardinal_golden_snapshot():
    svg = render_cardinal_plot(fixture_comparison(), FigureSpec(width=480, height=360),
                               top_k=4)
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_CARDINAL_SHA256


def test_cardinal_degenerate_scale_errors():
    cmp = rank_items(["a", "b"], [3.0, 3.0], [1.0, 2.0])
    with pytest.raises(DegenerateDataError, match="left"):
        render_cardinal_plot(cmp, FigureSpec(), top_k=2)
    with pytest.raises(ValueError, match="top_k"):
        render_cardinal_plot(rank_items(["a", "b"], [2.0, 1.0], [1.0, 2.0]),
                             FigureSpec(), top_k=3)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_single_value_is_one_full_bar():
    svg = render_histogram([0.7], 1, FigureSpec(width=300, height=200))
    assert svg.count("<rect") == 1
    assert "n=1 mean=0.700 sd=0.000" in svg


def test_histogram_two_values_two_bins():
    svg = render_histogram([0.0, 1.0], 2, FigureSpec(width=300, height=200))
    assert svg.count("<rect") == 2


def test_histogram_annotation_reports_summary_stats():
    rng = np.random.default_rng(19)
    draws = rng.normal(size=231)
    # standardize, then rescale so the sample stats are exact
    draws = (draws - draws.mean()) / draws.std(ddof=1)
    values = 0.853 + 0.099 * draws
    svg = render_histogram(values, 20, FigureSpec(width=500, height=300))
    assert "n=231 mean=0.853 sd=0.099" in svg


def test_histogram_validation():
    with pytest.raises(ValueError):
        render_histogram([], 3, FigureSpec())
    with pytest.raises(ValueError):
        render_histogram([1.0], 0, FigureSpec())
    with pytest.raises(ValueError, match="non-finite"):
        render_histogram([1.0, np.nan], 3, FigureSpec())


# ---------------------------------------------------------------------------
# ratio plot
# ---------------------------------------------------------------------------

def test_ratio_plot_constant_input_is_flat_at_one():
    den = np.array([2.0, 3.0, 5.0, 7.0])
    ra = ratio_analysis(4.0 * den, den, list("abcd"))
    svg = render_ratio_plot(ra, FigureSpec(width=300, height=200))
    heights = {m for m in re.findall(r'cy="([0-9.]+)"', svg)}
    assert len(heights) == 1  # every point sits on the same level


def test_ratio_plot_bigmac_has_22_points_denmark_first():
    fixture = bigmac_fixture()
    ra = ratio_analysis(fixture.y, fixture.x, fixture.labels)
    svg = render_ratio_plot(ra, FigureSpec(width=480, height=300, title="real wages"))
    assert svg.count("<circle") == 22
    assert svg.split("<title>")[1].split("</title>")[0] == "Denmark"
    assert 'stroke-dasharray="4 3"' in svg


def test_ratio_plot_golden_snapshot():
    fixture = bigmac_fixture()
    ra = ratio_analysis(fixture.y, fixture.x, fixture.labels)
    spec = FigureSpec(width=480, height=300, title="real wages")
    svg = render_ratio_plot(ra, spec)
    assert svg == render_ratio_plot(ra, spec)
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_RATIO_SHA256


def _render(kind: str, spec: FigureSpec, bins: int = 3) -> str:
    cmp = rank_items(["A", "B", "C"], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0])
    if kind == "slopegraph":
        return render_slopegraph(cmp, spec)
    if kind == "cardinal":
        return render_cardinal_plot(cmp, spec, 3)
    if kind == "histogram":
        return render_histogram([0.1, 0.5, 0.9], bins, spec)
    return render_ratio_plot(ratio_analysis([2.0, 1.0, 3.0], [1.0, 1.0, 1.0], list("ABC")), spec)


# the least width and height that leave a plot area: the rank renderers' connectors
# run from 0.34 * width + 8 to 0.66 * width - 8, below 56 px and above 16 px;
# the histogram and ratio plot keep 46 + 16 px at the sides and 56 + 34 px above and below
@pytest.mark.parametrize("kind, least_width, least_height", [
    ("slopegraph", 51, 73), ("cardinal", 51, 73), ("histogram", 63, 91), ("ratio", 63, 91)])
def test_renderers_refuse_a_figure_without_plot_area(kind, least_width, least_height):
    for width, height in ((10, 10), (least_width - 1, 960), (720, least_height - 1)):
        with pytest.raises(ValueError, match=f"^a {width}x{height} figure leaves no plot area "
                                             "inside its margins$"):
            _render(kind, FigureSpec(width, height))
    svg = _render(kind, FigureSpec(least_width, least_height))
    assert not re.search('="-', svg)  # no negative coordinate or size


def test_histogram_refuses_bars_narrower_than_a_hundredth_of_a_pixel():
    spec = FigureSpec(width=162, height=200)  # plot width 100
    assert 'width="0.01"' in _render("histogram", spec, bins=10_000)
    # refused before np.histogram allocates the counts (10**12 bins would take 7.28 TiB)
    with patch.object(np, "histogram", side_effect=AssertionError("np.histogram called")):
        for bins in (10_001, 10**12):
            with pytest.raises(ValueError, match="^bins must be at most 10000, 100 a pixel of "
                                                 f"the plot width, got {bins}$"):
                _render("histogram", spec, bins=bins)


def test_figure_spec_validation():
    with pytest.raises(ValueError):
        FigureSpec(width=0)
    with pytest.raises(ValueError):
        FigureSpec(top_fraction=0.0)
    with pytest.raises(ValueError):
        FigureSpec(top_fraction=1.5)


@pytest.mark.parametrize("odd, shown", [
    ("A\x01", "A\ufffd"), ("A\x0c", "A\ufffd"), ("A\ufffe", "A\ufffd"), ("A\uffff", "A\ufffd"),
    ("A\ud800", "A\ufffd"), ("\x00A\x1f", "\ufffdA\ufffd"),
    ('Beta & <Gamma> "Journal"', 'Beta & <Gamma> "Journal"'),
    ("Revista Espa\u00f1ola\tI", "Revista Espa\u00f1ola\tI")])
def test_every_renderer_writes_well_formed_xml(odd, shown):
    spec = FigureSpec(title=odd)
    cmp = rank_items([odd, "B", "C"], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0], odd, "ef")
    for svg in (render_slopegraph(cmp, spec), render_cardinal_plot(cmp, spec, 3),
                render_histogram([0.1, 0.5, 0.9], 3, spec),
                render_ratio_plot(ratio_analysis([2.0, 1.0, 3.0], [1.0, 1.0, 1.0],
                                                 [odd, "B", "C"]), spec)):
        root = ElementTree.fromstring(svg)
        # the title, and the label or column header where the figure shows one
        assert shown in {element.text for element in root.iter()}


@pytest.mark.parametrize("call, error, message", [
    (lambda: rank_items(["A", "B"], [1.0], [1.0, 2.0]),
     ValueError, "labels and score arrays must have equal lengths"),
    (lambda: rank_items(["A"], [1.0], [1.0]),
     DegenerateDataError, "rank comparison needs at least two items"),
    (lambda: render_slopegraph(RankComparison((), [], [], []), FigureSpec()),
     ValueError, "cannot render an empty comparison"),
    (lambda: render_ratio_plot(RatioAnalysis((), [], [], 0.0, 0.0, 0.0), FigureSpec()),
     ValueError, "cannot render an empty ratio series")])
def test_rank_items_and_renderers_reject_unusable_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
