"""Byte-for-byte regression of obstruction reports over a fixed corpus.

tests/data/reports_golden.jsonl holds one line per corpus entry: the report
JSON, or the error type and message when aggregation refuses the record.
Regenerate it with `PYTHONPATH=src python tests/test_golden.py` only when a
report change is intended.
"""

import json
import os

from conftest import golden_corpus
from slicegate.obstruct import aggregate

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "reports_golden.jsonl")


def golden_lines():
    lines = []
    for record in golden_corpus():
        try:
            lines.append(json.dumps(aggregate(record).to_json()))
        except ValueError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


def test_reports_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    assert golden_lines() == expected


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(golden_lines()) + "\n")
