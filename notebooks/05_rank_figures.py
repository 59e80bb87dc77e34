"""Seeing past the summary statistic: rank-comparison figures.
===========================================================

Two metrics can correlate above 0.9 while reshuffling the ranking they
produce.  This script renders the package's four figure types for a
synthetic corpus into ./out/*.svg: a slopegraph of ordinal moves, a
cardinal plot where vertical position is the score itself, a histogram
of per-field correlations, and the median-normalized ratio curve.
"""

from pathlib import Path

import numpy as np

from eigenrank import (FigureSpec, pearson_r, rank_items, ratio_analysis,
                       render_cardinal_plot, render_histogram, render_ratio_plot,
                       render_slopegraph)

out = Path("out")
out.mkdir(exist_ok=True)
rng = np.random.default_rng(11)

# two highly correlated synthetic metrics over 30 journals
n = 30
left = np.sort(rng.lognormal(2.0, 1.0, n))[::-1]
right = left * rng.lognormal(0.0, 0.35, n)
labels = [f"Journal {chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(n)]
print(f"correlation of the two metrics: {pearson_r(left, right):.3f}")

cmp = rank_items(labels, left, right, "metric one", "metric two")
moves = cmp.movement_counts()
print(f"yet the ranking moves: {moves['up']} up, {moves['down']} down, "
      f"{moves['same']} unchanged")
biggest = int(np.argmax(np.abs(cmp.delta)))
print(f"largest jump: {cmp.labels[biggest]} moves {cmp.delta[biggest]:+d} places")

svg = render_slopegraph(cmp, FigureSpec(width=720, height=960, top_fraction=0.5,
                                        title="top half, ranked by each metric"))
(out / "slopegraph.svg").write_text(svg)

svg = render_cardinal_plot(cmp, FigureSpec(width=720, height=720,
                                           title="cardinal positions, top ten"),
                           top_k=10)
(out / "cardinal.svg").write_text(svg)

# per-field correlation histogram: fields vary around a high mean
field_rhos = np.clip(rng.normal(0.85, 0.1, 231), -1.0, 1.0)
svg = render_histogram(field_rhos, 25, FigureSpec(width=640, height=420,
                                                  title="per-field correlations"))
(out / "histogram.svg").write_text(svg)

# ratio of the two metrics, median-normalized and sorted
ra = ratio_analysis(right, left, labels)
svg = render_ratio_plot(ra, FigureSpec(width=640, height=420,
                                       title="metric ratio, normalized by median"))
(out / "ratio.svg").write_text(svg)
print(f"ratio spread: cv = {ra.cv:.2f} despite the high correlation")

print(f"\nwrote {len(list(out.glob('*.svg')))} figures to {out}/")
