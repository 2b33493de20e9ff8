"""Stock jobs: word count, grep, distributed sort-by-count.

These are the canonical Hadoop examples; word count also doubles as the
workload for the MapReduce scaling bench (E07), and the inverted-index job
for the search engine lives in :mod:`repro.search.indexer` built on the
same primitives.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from .job import MapReduceJob

_WORD = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens (shared with the search analyzer's core)."""
    return _WORD.findall(text.lower())


def word_count_job(
    input_paths: list[str],
    *,
    num_reduces: int = 2,
    output_path: str | None = None,
    use_combiner: bool = True,
) -> MapReduceJob:
    """The classic: counts every word in the input files."""

    def mapper(_offset: Any, line: str) -> Iterable[tuple[str, int]]:
        for w in tokenize(line):
            yield w, 1

    def summer(key: str, values: list[int]) -> Iterable[tuple[str, int]]:
        yield key, sum(values)

    return MapReduceJob(
        name="wordcount",
        input_paths=input_paths,
        mapper=mapper,
        reducer=summer,
        combiner=summer if use_combiner else None,
        num_reduces=num_reduces,
        output_path=output_path,
    )


def grep_job(
    input_paths: list[str],
    pattern: str,
    *,
    num_reduces: int = 1,
    output_path: str | None = None,
) -> MapReduceJob:
    """Counts lines matching a regex, keyed by the matched text."""
    rx = re.compile(pattern)

    def mapper(_offset: Any, line: str) -> Iterable[tuple[str, int]]:
        for m in rx.finditer(line):
            yield m.group(0), 1

    def summer(key: str, values: list[int]) -> Iterable[tuple[str, int]]:
        yield key, sum(values)

    return MapReduceJob(
        name=f"grep[{pattern}]",
        input_paths=input_paths,
        mapper=mapper,
        reducer=summer,
        combiner=summer,
        num_reduces=num_reduces,
        output_path=output_path,
    )
