"""Rank comparisons between two metrics and deterministic SVG figures.

Every renderer is a pure function from data to SVG text: fixed layout,
coordinates rounded to two decimals, generic sans-serif, no timestamps or
generated ids.  Identical inputs produce byte-identical documents, which is
what makes golden-file testing of the figures possible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._util import readonly
from .errors import DegenerateDataError
from .metrics import resolve_metric
from .stats import RatioAnalysis

UP, DOWN, SAME = "up", "down", "same"
DEFAULT_COLORS: Mapping[str, str] = {UP: "#2ca02c", DOWN: "#d62728", SAME: "#000000"}

_BAR_FILL = "#4878a8"
_AXIS_COLOR = "#333333"
_REF_COLOR = "#555555"


@dataclass(frozen=True, eq=False)
class RankComparison:
    """Paired ordinal positions of the same items under two metrics.

    Rows run in left-rank order: row ``i`` is the item ranked ``i + 1`` by
    descending ``score_left``, tied rows in ascending label order.
    ``rank_right`` holds each row's 1-based rank under the right metric.
    """

    labels: tuple[str, ...]
    score_left: np.ndarray
    score_right: np.ndarray
    rank_right: np.ndarray
    left_name: str = "left"
    right_name: str = "right"
    excluded: tuple[str, ...] = ()  # items dropped for undefined metrics

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, dtype in (("score_left", float), ("score_right", float),
                            ("rank_right", np.int64)):
            object.__setattr__(self, name, readonly(getattr(self, name), dtype=dtype))
        n = len(self.labels)
        if not len(self.score_left) == len(self.score_right) == len(self.rank_right) == n:
            raise ValueError("rank comparison columns must have equal lengths")
        if not np.array_equal(np.sort(self.rank_right), np.arange(1, n + 1)):
            raise ValueError("right ranks must form a permutation of 1..n")
        left = self.score_left
        labels = np.asarray(self.labels, dtype=object)
        tied = left[1:] == left[:-1]
        if not (left[1:] <= left[:-1]).all() or (labels[1:][tied] < labels[:-1][tied]).any():
            raise ValueError("rows must run in left-rank order: "
                             "scores descending, ties by label ascending")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def delta(self) -> np.ndarray:  # positive means the row moved up
        return np.arange(1, len(self) + 1) - self.rank_right

    def movement_counts(self) -> dict[str, int]:
        down, same, up = np.bincount(np.sign(self.delta) + 1, minlength=3).tolist()
        return {UP: up, DOWN: down, SAME: same}


@dataclass(frozen=True)
class FigureSpec:
    width: int = 720
    height: int = 960
    top_fraction: float = 1.0  # show only the top share of the left ranking
    title: str = ""

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("figure dimensions must be positive")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must lie in (0, 1]")


# ---------------------------------------------------------------------------
# rank comparison
# ---------------------------------------------------------------------------

def rank_items(labels: Sequence[str], left_scores, right_scores,
               left_name: str = "left", right_name: str = "right",
               excluded: tuple[str, ...] = ()) -> RankComparison:
    """Build a RankComparison from raw label/score arrays."""
    labels = np.asarray(labels, dtype=object)
    left = np.asarray(left_scores, dtype=float)
    right = np.asarray(right_scores, dtype=float)
    if not (len(labels) == len(left) == len(right)):
        raise ValueError("labels and score arrays must have equal lengths")
    if len(labels) < 2:
        raise DegenerateDataError("rank comparison needs at least two items")
    finite = np.isfinite(left) & np.isfinite(right)
    if not finite.all():
        raise ValueError(f"non-finite score for {labels[np.argmin(finite)]!r}")
    # ranks run by descending score, ties broken by label ascending
    order = np.lexsort((labels, -left))
    labels, left, right = labels[order], left[order], right[order]
    rank_right = np.empty(len(order), dtype=np.int64)
    rank_right[np.lexsort((labels, -right))] = np.arange(1, len(order) + 1)
    return RankComparison(tuple(labels), left, right, rank_right,
                          left_name, right_name, excluded)


def rank_comparison(scores, left_metric: str, right_metric: str) -> RankComparison:
    """Rank the journals of a score table under two metrics.

    Journals with an undefined value on either side are excluded and listed
    on the result; at least two fully defined journals are required.
    """
    left_name = resolve_metric(left_metric)
    right_name = resolve_metric(right_metric)
    left = np.asarray(scores.metric(left_name), dtype=float)
    right = np.asarray(scores.metric(right_name), dtype=float)
    defined = np.isfinite(left) & np.isfinite(right)
    if defined.sum() < 2:
        raise DegenerateDataError(
            f"fewer than two journals have both {left_name} and {right_name} defined")
    ids = np.asarray(scores.journal_ids, dtype=object)
    return rank_items(ids[defined], left[defined], right[defined],
                      left_name, right_name, tuple(ids[~defined]))


# ---------------------------------------------------------------------------
# SVG plumbing
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    if not text.isprintable():  # no character XML 1.0 forbids is printable; each becomes U+FFFD
        text = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _open_svg(spec: FigureSpec) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}" '
        'font-family="sans-serif">',
    ]
    if spec.title:
        parts.append(f'<text x="{_fmt(spec.width / 2)}" y="22" text-anchor="middle" '
                     f'font-size="15">{_esc(spec.title)}</text>')
    return parts


def _text(x: float, y: float, content: str, anchor: str, size: int = 11,
          color: str = "#000000") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-size="{size}" fill="{color}">{_esc(content)}</text>')


def _line(x1: float, y1: float, x2: float, y2: float, color: str,
          width: float = 1.2, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>')


def _column_headers(cmp: RankComparison, x_left: float, x_right: float) -> list[str]:
    return [_text(x_left, 44, cmp.left_name, "end", size=12),
            _text(x_right, 44, cmp.right_name, "start", size=12)]


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def _movement_colors(delta: np.ndarray) -> list[str]:
    return [DEFAULT_COLORS[(DOWN, SAME, UP)[s]] for s in (np.sign(delta) + 1).tolist()]


def render_slopegraph(cmp: RankComparison, spec: FigureSpec) -> str:
    """Two ranked name columns with movement-colored connectors.

    Shows the items in the top ``spec.top_fraction`` of the left ranking;
    the right column re-orders that same subset by its right-side ranks.
    An item whose full right rank falls beyond the shown range keeps a
    black label and gets no connector (it has no visible counterpart).
    """
    if not len(cmp):
        raise ValueError("cannot render an empty comparison")
    k = math.ceil(len(cmp) * spec.top_fraction)
    labels, shown_right = cmp.labels[:k], cmp.rank_right[:k]
    right_order = np.argsort(shown_right)  # the right column, top to bottom
    right_slot = np.searchsorted(shown_right[right_order], shown_right).tolist()
    rank_right = shown_right.tolist()
    moves = _movement_colors(cmp.delta[:k])
    colors = ["#000000" if r > k else c for r, c in zip(rank_right, moves)]
    top, bottom = 56.0, 16.0
    row_h = (spec.height - top - bottom) / k
    x_left, x_right = 0.34 * spec.width, 0.66 * spec.width
    y = [top + (slot + 0.5) * row_h for slot in range(k)]

    parts = _open_svg(spec)
    parts += _column_headers(cmp, x_left, x_right)
    for i in range(k):
        parts.append(_text(x_left, y[i] + 4, f"{i + 1}. {labels[i]}", "end",
                           color=colors[i]))
    for slot, i in enumerate(right_order.tolist()):
        parts.append(_text(x_right, y[slot] + 4, f"{rank_right[i]}. {labels[i]}", "start",
                           color=colors[i]))
    for i in range(k):
        if rank_right[i] <= k:
            parts.append(_line(x_left + 8, y[i], x_right - 8, y[right_slot[i]], moves[i]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_cardinal_plot(cmp: RankComparison, spec: FigureSpec, top_k: int) -> str:
    """Columns positioned by score value instead of by ordinal rank.

    The ``top_k`` items by left score are placed on linear vertical scales
    (score zero at the column base, the largest shown score at the top), so
    equal-rank items can still sit far apart when their scores differ.
    """
    if not 1 <= top_k <= len(cmp):
        raise ValueError("top_k must lie between 1 and the number of items")
    score_left = cmp.score_left[:top_k].tolist()
    score_right = cmp.score_right[:top_k].tolist()
    colors = _movement_colors(cmp.delta[:top_k])

    def scale_max(values: list[float], side: str) -> float:
        vmax = max(values)
        if vmax <= 0 or (len(values) > 1 and vmax == min(values)):
            raise DegenerateDataError(f"degenerate {side} scale: scores do not spread")
        return vmax

    lmax = scale_max(score_left, "left")
    rmax = scale_max(score_right, "right")
    top, bottom = 56.0, 16.0
    plot_h = spec.height - top - bottom
    x_left, x_right = 0.34 * spec.width, 0.66 * spec.width
    y_left = [top + (1.0 - v / lmax) * plot_h for v in score_left]
    y_right = [top + (1.0 - v / rmax) * plot_h for v in score_right]

    parts = _open_svg(spec)
    parts += _column_headers(cmp, x_left, x_right)
    for label, yl, yr, color in zip(cmp.labels, y_left, y_right, colors):
        parts.append(_text(x_left, yl + 4, label, "end", color=color))
        parts.append(_text(x_right, yr + 4, label, "start", color=color))
    for yl, yr, color in zip(y_left, y_right, colors):
        parts.append(_line(x_left + 8, yl, x_right - 8, yr, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_histogram(values, bins: int, spec: FigureSpec) -> str:
    """Equal-width count histogram over [min, max], annotated with n/mean/sd."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("cannot render an empty histogram")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:  # single-point data still gets one full bin
        lo, hi = lo - 0.5, hi + 0.5
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    cmax = counts.max()
    left, right, top, bottom = 46.0, 16.0, 56.0, 34.0
    plot_w = spec.width - left - right
    plot_h = spec.height - top - bottom
    base = top + plot_h
    bar_w = plot_w / bins

    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    parts = _open_svg(spec)
    parts.append(_text(left, top - 8, f"n={len(values)} mean={mean:.3f} sd={sd:.3f}",
                       "start"))
    for i, count in enumerate(counts):
        if count == 0:
            continue
        h = plot_h * count / cmax
        parts.append(f'<rect x="{_fmt(left + i * bar_w)}" y="{_fmt(base - h)}" '
                     f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="{_BAR_FILL}"/>')
    parts.append(_line(left, base, left + plot_w, base, _AXIS_COLOR, width=1.0))
    parts.append(_text(left, base + 16, _fmt(lo), "start"))
    parts.append(_text(left + plot_w, base + 16, _fmt(hi), "end"))
    parts.append(_text(left - 6, top + 4, str(int(cmax)), "end"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ratio_plot(ra: RatioAnalysis, spec: FigureSpec) -> str:
    """Median-normalized ratios, highest first, with a dashed line at 1.0."""
    if len(ra) == 0:
        raise ValueError("cannot render an empty ratio series")
    left, right, top, bottom = 46.0, 16.0, 56.0, 34.0
    plot_w = spec.width - left - right
    plot_h = spec.height - top - bottom
    base = top + plot_h
    ymax = max(float(ra.normalized.max()), 1.0) * 1.05

    def y(value: float) -> float:
        return top + (1.0 - value / ymax) * plot_h

    parts = _open_svg(spec)
    parts.append(_text(left, top - 8, f"n={len(ra)} cv={ra.cv:.3f}", "start"))
    parts.append(_line(left, y(1.0), left + plot_w, y(1.0), _REF_COLOR,
                       width=1.0, dashed=True))
    step = plot_w / len(ra)
    for i, (label, value) in enumerate(zip(ra.labels, ra.normalized)):
        cx = left + (i + 0.5) * step
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(y(float(value)))}" r="2.50" '
                     f'fill="{_BAR_FILL}"><title>{_esc(label)}</title></circle>')
    parts.append(_line(left, base, left + plot_w, base, _AXIS_COLOR, width=1.0))
    parts.append(_text(left - 6, base + 4, "0", "end"))
    parts.append(_text(left - 6, top + 4, _fmt(ymax), "end"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
