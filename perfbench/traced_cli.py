"""Run one ``eigenrank`` CLI call with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS.json [--ledger-memory] -- ARGS...

behaves like ``python -m eigenrank.cli ARGS...`` (same outputs, same exit
code) and writes the spans and counts of the call to ``SPANS.json``.  With
``--ledger-memory`` it also records the peak traced allocation of parsing
the citations, in MB; tracemalloc slows parsing, so such a call is kept out
of the timed passes.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

from tracing import Tracer


def main(argv: list[str]) -> int:
    split = argv.index("--")
    spans_path, options, cli_args = argv[0], argv[1:split], argv[split + 1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from eigenrank import cli, corpus
    tracer.install()
    if "--ledger-memory" in options:
        parse = corpus.parse_citation_edges

        def measured_parse(*args, **kwargs):
            tracemalloc.start()
            try:
                return parse(*args, **kwargs)
            finally:
                tracer.counts["corpus.ledger_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        corpus.parse_citation_edges = measured_parse
    try:
        with tracer.span("cli.main"):
            status = cli.main(cli_args)
    finally:
        tracer.count_windows()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
