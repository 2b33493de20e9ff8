"""Index construction: sequential baseline vs MapReduce (claim C2).

Documents are stored in HDFS as *crawl segments*: one JSON document per
line.  The MapReduce builder runs a real job whose mapper analyzes each
document and emits (term, posting) pairs and whose reducer assembles the
postings lists -- "input distributed application of Map/Reduce to search
index ... by using HDFS as searching index storage database" (Section IV).
The sequential baseline does the same analysis on one host with no
parallelism; the bench compares their build times on identical corpora.
"""

from __future__ import annotations

import json
from typing import Any, Generator, Iterable

from ..common.errors import SearchError
from ..hdfs import Hdfs
from ..mapreduce import JobTracker, MapReduceJob
from .analyzer import analyze
from .index import Document, InvertedIndex, Posting


def doc_to_line(doc: Document) -> str:
    return json.dumps(
        {"id": doc.doc_id, "fields": doc.fields, "stored": doc.stored},
        sort_keys=True,
    )


def line_to_doc(line: str) -> Document:
    try:
        d = json.loads(line)
        return Document(d["id"], d["fields"], d.get("stored", {}))
    except (ValueError, KeyError) as exc:
        raise SearchError(f"corrupt crawl segment line: {exc}") from exc


def write_crawl_segment(
    fs: Hdfs, docs: list[Document], path: str, host: str | None = None
) -> Generator:
    """Process: serialize *docs* as a JSONL crawl segment into HDFS."""
    data = ("\n".join(doc_to_line(d) for d in docs) + "\n").encode("utf-8")
    return fs.client(host).write_file(path, data)


def _index_mapper(_offset: Any, line: str) -> Iterable[tuple[str, list]]:
    doc = line_to_doc(line)
    for fname, text in doc.fields.items():
        by_term: dict[str, list[int]] = {}
        for term, pos in analyze(text):
            by_term.setdefault(term, []).append(pos)
        for term, positions in by_term.items():
            yield term, [doc.doc_id, fname, len(positions), positions]


def _index_reducer(term: str, values: list[list]) -> Iterable[tuple[str, list]]:
    # sort for determinism: postings ordered by (doc, field)
    yield term, sorted(values, key=lambda v: (v[0], v[1]))


def index_job(segment_paths: list[str], *, num_reduces: int = 2) -> MapReduceJob:
    """The index-construction job (no combiner: postings do not pre-aggregate)."""
    return MapReduceJob(
        name="nutch-index",
        input_paths=segment_paths,
        mapper=_index_mapper,
        reducer=_index_reducer,
        num_reduces=num_reduces,
    )


def assemble_index(
    job_output: dict[str, list], docs: Iterable[Document]
) -> InvertedIndex:
    """Build an InvertedIndex from job output + the document set."""
    idx = InvertedIndex()
    for doc in docs:
        lengths = {fname: len(analyze(text)) for fname, text in doc.fields.items()}
        idx.register_doc(doc, lengths)
    for term, postings in job_output.items():
        for doc_id, fname, tf, positions in postings:
            idx.add_posting(term, Posting(doc_id, fname, tf, tuple(positions)))
    idx.finalize()
    return idx


def build_index_mapreduce(
    fs: Hdfs,
    segment_paths: list[str],
    *,
    tracker_hosts: list[str] | None = None,
    num_reduces: int = 2,
) -> Generator:
    """Process: distributed index build.  Returns (index, JobResult)."""
    jt = JobTracker(fs, tracker_hosts)
    engine = fs.engine

    def _flow():
        job = index_job(segment_paths, num_reduces=num_reduces)
        job.map_cpu_per_byte = fs.cluster.cal.hadoop.index_cpu_per_byte
        result = yield engine.process(jt.submit(job))
        # Reload the documents (metadata came through the job's real output;
        # the doc store itself is read from the segments).
        reader = fs.client(fs.namenode_host)
        docs: list[Document] = []
        for path in segment_paths:
            data = yield engine.process(reader.read_file(path))
            for line in data.decode("utf-8").splitlines():
                if line.strip():
                    docs.append(line_to_doc(line))
        index = assemble_index(result.output, docs)
        return index, result

    return _flow()


def build_index_sequential(
    fs: Hdfs, segment_paths: list[str], host: str | None = None
) -> Generator:
    """Process: single-node baseline build.  Returns (index, duration)."""
    engine = fs.engine
    host_name = host or fs.namenode_host
    node = fs.cluster.host(host_name)
    had = fs.cluster.cal.hadoop

    def _flow():
        started = engine.now
        reader = fs.client(host_name)
        index = InvertedIndex()
        total_bytes = 0
        for path in segment_paths:
            data = yield engine.process(reader.read_file(path))
            total_bytes += len(data)
            for line in data.decode("utf-8").splitlines():
                if line.strip():
                    index.add(line_to_doc(line))
        # same per-byte analysis + sort costs as the cluster pays, serially
        cpu = total_bytes * (
            had.index_cpu_per_byte + had.sort_cpu_per_byte + had.reduce_cpu_per_byte
        )
        yield from node.compute_seconds(cpu)
        index.finalize()
        return index, engine.now - started

    return _flow()


def save_index(fs: Hdfs, index: InvertedIndex, path: str, host: str | None = None) -> Generator:
    """Process: persist an index segment into HDFS (real bytes)."""
    return fs.client(host).write_file(path, index.to_bytes())


def load_index(fs: Hdfs, path: str, host: str | None = None) -> Generator:
    """Process: load an index segment from HDFS."""
    engine = fs.engine

    def _flow():
        data = yield engine.process(fs.client(host).read_file(path))
        return InvertedIndex.from_bytes(data)

    return _flow()
