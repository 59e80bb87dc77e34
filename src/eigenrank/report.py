"""Rank comparisons between two metrics and deterministic SVG figures.

Every renderer is a pure function from data to SVG text: fixed layout,
coordinates rounded to two decimals, generic sans-serif, no timestamps or
generated ids.  Identical inputs produce byte-identical documents, which is
what makes golden-file testing of the figures possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateDataError
from .metrics import resolve_metric
from .stats import RatioAnalysis

UP, DOWN, SAME = "up", "down", "same"
DEFAULT_COLORS: Mapping[str, str] = {UP: "#2ca02c", DOWN: "#d62728", SAME: "#000000"}

_BAR_FILL = "#4878a8"
_AXIS_COLOR = "#333333"
_REF_COLOR = "#555555"


@dataclass(frozen=True)
class RankedItem:
    label: str
    score_left: float
    score_right: float
    rank_left: int   # 1-based
    rank_right: int  # 1-based

    @property
    def delta(self) -> int:  # positive means it moved up
        return self.rank_left - self.rank_right

    @property
    def movement(self) -> str:  # "up" | "down" | "same"
        return UP if self.delta > 0 else DOWN if self.delta < 0 else SAME


@dataclass(frozen=True)
class RankComparison:
    """Paired ordinal positions of the same items under two metrics."""

    items: tuple[RankedItem, ...]
    left_name: str = "left"
    right_name: str = "right"
    excluded: tuple[str, ...] = ()  # items dropped for undefined metrics

    def __post_init__(self):
        n = len(self.items)
        expect = set(range(1, n + 1))
        if {it.rank_left for it in self.items} != expect or \
                {it.rank_right for it in self.items} != expect:
            raise ValueError("ranks must form permutations of 1..n on both sides")

    def __len__(self) -> int:
        return len(self.items)

    def movement_counts(self) -> dict[str, int]:
        counts = {UP: 0, DOWN: 0, SAME: 0}
        for it in self.items:
            counts[it.movement] += 1
        return counts


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

def _ranks(labels: Sequence[str], scores: np.ndarray) -> np.ndarray:
    """1-based ranks by descending score; ties broken by label ascending."""
    order = np.lexsort((np.asarray(labels, dtype=object), -scores))
    ranks = np.empty(len(scores), dtype=int)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def rank_items(labels: Sequence[str], left_scores, right_scores,
               left_name: str = "left", right_name: str = "right",
               excluded: tuple[str, ...] = ()) -> RankComparison:
    """Build a RankComparison from raw label/score arrays."""
    labels = list(labels)
    left = np.asarray(left_scores, dtype=float)
    right = np.asarray(right_scores, dtype=float)
    if not (len(labels) == len(left) == len(right)):
        raise ValueError("labels and score arrays must have equal lengths")
    if len(labels) < 2:
        raise DegenerateDataError("rank comparison needs at least two items")
    rank_left = _ranks(labels, left)
    rank_right = _ranks(labels, right)
    items = tuple(RankedItem(
        label=labels[pos], score_left=float(left[pos]), score_right=float(right[pos]),
        rank_left=int(rank_left[pos]), rank_right=int(rank_right[pos]))
        for pos in np.argsort(rank_left))
    return RankComparison(items, left_name, right_name, excluded)


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
    excluded = tuple(jid for jid, ok in zip(scores.journal_ids, defined) if not ok)
    if defined.sum() < 2:
        raise DegenerateDataError(
            f"fewer than two journals have both {left_name} and {right_name} defined")
    labels = [jid for jid, ok in zip(scores.journal_ids, defined) if ok]
    return rank_items(labels, left[defined], right[defined],
                      left_name, right_name, excluded)


# ---------------------------------------------------------------------------
# SVG plumbing
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
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

def render_slopegraph(cmp: RankComparison, spec: FigureSpec) -> str:
    """Two ranked name columns with movement-colored connectors.

    Shows the items in the top ``spec.top_fraction`` of the left ranking;
    the right column re-orders that same subset by its right-side ranks.
    An item whose full right rank falls beyond the shown range keeps a
    black label and gets no connector (it has no visible counterpart).
    """
    if not cmp.items:
        raise ValueError("cannot render an empty comparison")
    n = len(cmp.items)
    k = math.ceil(n * spec.top_fraction)
    shown = [it for it in cmp.items if it.rank_left <= k]
    right_order = sorted(shown, key=lambda it: it.rank_right)
    top, bottom = 56.0, 16.0
    row_h = (spec.height - top - bottom) / k
    x_left, x_right = 0.34 * spec.width, 0.66 * spec.width
    y_left = {it.label: top + (i + 0.5) * row_h for i, it in enumerate(shown)}
    y_right = {it.label: top + (i + 0.5) * row_h for i, it in enumerate(right_order)}

    parts = _open_svg(spec)
    parts += _column_headers(cmp, x_left, x_right)
    for it in shown:
        color = "#000000" if it.rank_right > k else DEFAULT_COLORS[it.movement]
        parts.append(_text(x_left, y_left[it.label] + 4,
                           f"{it.rank_left}. {it.label}", "end", color=color))
    for it in right_order:
        color = "#000000" if it.rank_right > k else DEFAULT_COLORS[it.movement]
        parts.append(_text(x_right, y_right[it.label] + 4,
                           f"{it.rank_right}. {it.label}", "start", color=color))
    for it in shown:
        if it.rank_right <= k:
            parts.append(_line(x_left + 8, y_left[it.label], x_right - 8,
                               y_right[it.label], DEFAULT_COLORS[it.movement]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_cardinal_plot(cmp: RankComparison, spec: FigureSpec, top_k: int) -> str:
    """Columns positioned by score value instead of by ordinal rank.

    The ``top_k`` items by left score are placed on linear vertical scales
    (score zero at the column base, the largest shown score at the top), so
    equal-rank items can still sit far apart when their scores differ.
    """
    if not 1 <= top_k <= len(cmp.items):
        raise ValueError("top_k must lie between 1 and the number of items")
    shown = sorted(cmp.items, key=lambda it: (-it.score_left, it.label))[:top_k]

    def scale_max(values: list[float], side: str) -> float:
        vmax = max(values)
        if vmax <= 0 or (len(values) > 1 and vmax == min(values)):
            raise DegenerateDataError(f"degenerate {side} scale: scores do not spread")
        return vmax

    lmax = scale_max([it.score_left for it in shown], "left")
    rmax = scale_max([it.score_right for it in shown], "right")
    top, bottom = 56.0, 16.0
    plot_h = spec.height - top - bottom
    x_left, x_right = 0.34 * spec.width, 0.66 * spec.width

    def y(value: float, vmax: float) -> float:
        return top + (1.0 - value / vmax) * plot_h

    parts = _open_svg(spec)
    parts += _column_headers(cmp, x_left, x_right)
    for it in shown:
        parts.append(_text(x_left, y(it.score_left, lmax) + 4, it.label, "end",
                           color=DEFAULT_COLORS[it.movement]))
        parts.append(_text(x_right, y(it.score_right, rmax) + 4, it.label, "start",
                           color=DEFAULT_COLORS[it.movement]))
    for it in shown:
        parts.append(_line(x_left + 8, y(it.score_left, lmax), x_right - 8,
                           y(it.score_right, rmax), DEFAULT_COLORS[it.movement]))
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
