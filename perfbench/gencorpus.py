"""Seeded synthetic citation corpus at JCR scale.

Writes ``journals.csv`` and ``citations.csv`` in the formats that
``eigenrank compute`` reads.  The same seed and sizes give byte-identical
files.  Row shares are fixed counts, not random draws, so every seed has
exactly the same amount of filter work:

* ``NOISE_SHARE`` of the rows are noise that the census-year window must
  drop, split into other citing years, cited years before the window and
  future-dated rows (cited year after citing year);
* ``SELF_SHARE`` of the rows are in-window self-citations;
* the rest are in-window citations between two different journals.

Every journal publishes at least one article in every year, so no cited
journal lacks articles in the window.

Run ``python3 perfbench/gencorpus.py --seed 0 --out DIR`` to write a corpus.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

CENSUS_YEAR = 2006
WINDOW = 5
YEARS = tuple(range(CENSUS_YEAR - WINDOW - 1, CENSUS_YEAR + 1))  # 7 years: 2000..2006
PAPER_JOURNALS = 7611
PAPER_ROWS = 1_000_000
N_FIELDS = 200

# shares of all citation rows; the three noise kinds split NOISE_SHARE
OTHER_CITING_YEAR_SHARE = 0.10
BEFORE_WINDOW_SHARE = 0.10
FUTURE_DATED_SHARE = 0.05
NOISE_SHARE = OTHER_CITING_YEAR_SHARE + BEFORE_WINDOW_SHARE + FUTURE_DATED_SHARE
SELF_SHARE = 0.05


def _journal_rows(rng: np.random.Generator, n_journals: int):
    # heavy-tailed sizes: lognormal articles per year, at least one each year
    size = rng.lognormal(mean=3.5, sigma=1.2, size=n_journals)
    yearly = np.maximum(1, np.rint(size[:, None] * rng.lognormal(0.0, 0.15, (n_journals, len(YEARS)))))
    yearly = yearly.astype(np.int64)
    # every field gets members: the primary field cycles, then is shuffled
    primary = rng.permutation(np.arange(n_journals) % N_FIELDS)
    extra = rng.random(n_journals)
    second = rng.integers(0, N_FIELDS, n_journals)
    third = rng.integers(0, N_FIELDS, n_journals)
    lines = []
    for j in range(n_journals):
        labels = {int(primary[j])}
        if extra[j] < 0.25:  # cross-listed in a second field
            labels.add(int(second[j]))
        if extra[j] < 0.05:  # and some in a third
            labels.add(int(third[j]))
        fields = ";".join(f"field-{k:03d}" for k in sorted(labels))
        jid = f"J{j + 1:05d}"
        name = f"Journal of Synthetic Studies {j + 1}"
        for y, year in enumerate(YEARS):
            lines.append(f"{jid},{name},{fields},{year},{yearly[j, y]}")
    return size, lines


def _counts(n_journals: int, n_rows: int) -> dict[str, int]:
    counts = {
        "other_citing_year": round(n_rows * OTHER_CITING_YEAR_SHARE),
        "before_window": round(n_rows * BEFORE_WINDOW_SHARE),
        "future_dated": round(n_rows * FUTURE_DATED_SHARE),
        "self_in_window": round(n_rows * SELF_SHARE),
    }
    counts["in_window"] = n_rows - sum(counts.values())
    if min(counts.values()) < 0 or n_journals < 2:
        raise ValueError("corpus needs at least two journals and enough rows")
    return counts


def generate(seed: int, n_journals: int = PAPER_JOURNALS,
             n_rows: int = PAPER_ROWS) -> tuple[str, str, dict]:
    """Return ``(journals_csv, citations_csv, stats)`` for one seed."""
    rng = np.random.default_rng(seed)
    size, journal_lines = _journal_rows(rng, n_journals)
    counts = _counts(n_journals, n_rows)

    # categories are laid out in blocks, then rows are shuffled as a whole
    kinds = np.repeat(np.arange(5), [counts["in_window"], counts["self_in_window"],
                                     counts["other_citing_year"], counts["before_window"],
                                     counts["future_dated"]])
    p_cited = size ** 1.2 / (size ** 1.2).sum()  # big journals attract more citations
    p_citing = size / size.sum()
    citing = rng.choice(n_journals, n_rows, p=p_citing)
    cited = rng.choice(n_journals, n_rows, p=p_cited)
    is_self = kinds == 1
    cited[is_self] = citing[is_self]
    clash = ~is_self & (cited == citing)  # only the self block may cite itself
    cited[clash] = (cited[clash] + 1 + rng.integers(0, n_journals - 1, clash.sum())) % n_journals

    citing_year = np.full(n_rows, CENSUS_YEAR)
    cited_year = CENSUS_YEAR - rng.integers(1, WINDOW + 1, n_rows)  # in window by default
    other = kinds == 2
    citing_year[other] = CENSUS_YEAR - rng.integers(1, 4, other.sum())
    cited_year[other] = citing_year[other] - rng.integers(0, WINDOW + 1, other.sum())
    before = kinds == 3
    cited_year[before] = CENSUS_YEAR - WINDOW - rng.integers(1, 11, before.sum())
    future = kinds == 4
    cited_year[future] = CENSUS_YEAR + rng.integers(1, 3, future.sum())
    count = rng.geometric(0.35, n_rows) + (rng.random(n_rows) < 0.02) * rng.integers(5, 60, n_rows)

    order = rng.permutation(n_rows)
    ids = [f"J{j + 1:05d}" for j in range(n_journals)]
    rows = zip(citing[order].tolist(), cited[order].tolist(), citing_year[order].tolist(),
               cited_year[order].tolist(), count[order].tolist())
    citation_lines = [f"{ids[a]},{ids[b]},{cy},{dy},{c}" for a, b, cy, dy, c in rows]

    journals_csv = "journal_id,name,fields,year,articles\n" + "\n".join(journal_lines) + "\n"
    citations_csv = ("citing_id,cited_id,citing_year,cited_year,count\n"
                     + "\n".join(citation_lines) + "\n")
    stats = {
        "seed": seed, "journals": n_journals, "rows": n_rows, "fields": N_FIELDS,
        "census_year": CENSUS_YEAR, "window": WINDOW,
        "noise_share": NOISE_SHARE, "self_share": SELF_SHARE,
        "future_dated_share": FUTURE_DATED_SHARE, "row_counts": counts,
        "rows_windowed": counts["in_window"] + counts["self_in_window"],
    }
    return journals_csv, citations_csv, stats


def write_corpus(out_dir: Path, seed: int, n_journals: int = PAPER_JOURNALS,
                 n_rows: int = PAPER_ROWS) -> dict:
    """Write both CSV files into ``out_dir``; return stats with file sizes."""
    journals_csv, citations_csv, stats = generate(seed, n_journals, n_rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("journals.csv", journals_csv), ("citations.csv", citations_csv)):
        data = text.encode()
        (out_dir / name).write_bytes(data)
        stats[f"{name}_bytes"] = len(data)
    return stats


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(write_corpus(args.out, args.seed)))


if __name__ == "__main__":
    main()
