from collections import Counter

import pytest

from repro.common.errors import MapReduceError
from repro.common.units import KiB, MiB
from repro.hardware import Cluster
from repro.hdfs import Hdfs
from repro.mapreduce import (
    JobTracker,
    MapReduceJob,
    compute_splits,
    grep_job,
    partition_for,
    tokenize,
    word_count_job,
)

TEXT = b"""the cloud is a cloud of clouds
video services run in the cloud
the nobody song plays in the video
map and reduce shorten the search
"""


def make_env(n_hosts=5, block_size=1 * KiB, replication=2):
    cluster = Cluster(n_hosts)
    fs = Hdfs(cluster, block_size=block_size, replication=replication)
    return cluster, fs


def write(cluster, fs, path, data, host="node1"):
    cluster.run(cluster.engine.process(fs.client(host).write_file(path, data)))


def run_job(cluster, fs, job, hosts=None):
    jt = JobTracker(fs, hosts)
    return cluster.run(cluster.engine.process(jt.submit(job)))


class TestSplits:
    def test_one_split_per_block(self):
        cluster, fs = make_env(block_size=64)
        write(cluster, fs, "/in", TEXT)
        splits = compute_splits(fs, ["/in"])
        assert len(splits) == -(-len(TEXT) // 64)

    def test_records_cover_all_lines_exactly_once(self):
        cluster, fs = make_env(block_size=50)
        write(cluster, fs, "/in", TEXT)
        splits = compute_splits(fs, ["/in"])
        lines = [line for s in splits for _, line in s.records]
        expected = [l.decode() for l in TEXT.split(b"\n") if l]
        assert lines == expected

    def test_line_belongs_to_block_of_first_byte(self):
        cluster, fs = make_env(block_size=10)
        write(cluster, fs, "/in", b"0123456789abcdefghij\nxy\n")
        splits = compute_splits(fs, ["/in"])
        # first line starts at offset 0 -> split 0 owns it entirely
        assert splits[0].records[0][1] == "0123456789abcdefghij"
        assert all(not s.records or s.split_id != 1 for s in splits[1:2])

    def test_locality_hints_present(self):
        cluster, fs = make_env()
        write(cluster, fs, "/in", TEXT)
        splits = compute_splits(fs, ["/in"])
        assert all(len(s.hosts) == 2 for s in splits)

    def test_synthetic_splits(self):
        cluster, fs = make_env(block_size=1 * MiB)
        cluster.run(cluster.engine.process(
            fs.client("node1").write_synthetic("/big", 3 * MiB)))
        splits = compute_splits(fs, ["/big"])
        assert all(s.synthetic for s in splits)
        assert sum(s.length for s in splits) == 3 * MiB


class TestWordCount:
    def test_counts_are_exact(self):
        cluster, fs = make_env(block_size=60)
        write(cluster, fs, "/in", TEXT)
        result = run_job(cluster, fs, word_count_job(["/in"]))
        expected = Counter(tokenize(TEXT.decode()))
        assert result.output == dict(expected)

    def test_counts_independent_of_block_size(self):
        outs = []
        for bs in (32, 60, 1 * KiB):
            cluster, fs = make_env(block_size=bs)
            write(cluster, fs, "/in", TEXT)
            outs.append(run_job(cluster, fs, word_count_job(["/in"])).output)
        assert outs[0] == outs[1] == outs[2]

    def test_counts_independent_of_num_reduces(self):
        for r in (1, 3):
            cluster, fs = make_env()
            write(cluster, fs, "/in", TEXT)
            result = run_job(cluster, fs, word_count_job(["/in"], num_reduces=r))
            assert result.output == dict(Counter(tokenize(TEXT.decode())))
            assert result.counters.reduce_tasks == r

    def test_combiner_reduces_shuffle(self):
        def shuffle_bytes(use_combiner):
            cluster, fs = make_env(block_size=64)
            write(cluster, fs, "/in", TEXT * 20)
            result = run_job(
                cluster, fs,
                word_count_job(["/in"], use_combiner=use_combiner))
            return result.counters.shuffle_bytes

        assert shuffle_bytes(True) < shuffle_bytes(False)

    def test_output_written_to_hdfs(self):
        cluster, fs = make_env()
        write(cluster, fs, "/in", TEXT)
        job = word_count_job(["/in"], num_reduces=2, output_path="/out/wc")
        result = run_job(cluster, fs, job)
        assert result.part_paths == ["/out/wc/part-r-00000", "/out/wc/part-r-00001"]
        reader = fs.client("node1")
        text = b""
        for p in result.part_paths:
            text += cluster.run(cluster.engine.process(reader.read_file(p)))
        assert b"cloud\t" in text

    def test_counters_populated(self):
        cluster, fs = make_env(block_size=60)
        write(cluster, fs, "/in", TEXT)
        result = run_job(cluster, fs, word_count_job(["/in"]))
        c = result.counters
        assert c.map_tasks == len(compute_splits(fs, ["/in"]))
        assert c.map_input_records == 4
        assert c.map_output_records > 0
        assert c.reduce_input_groups == len(result.output)
        assert 0 <= c.locality_rate <= 1

    def test_duration_positive_and_deterministic(self):
        def run_once():
            cluster, fs = make_env(block_size=60)
            write(cluster, fs, "/in", TEXT * 50)
            return run_job(cluster, fs, word_count_job(["/in"])).duration

        d1, d2 = run_once(), run_once()
        assert d1 > 0
        assert d1 == d2


class TestGrepAndSynthetic:
    def test_grep_counts_matches(self):
        cluster, fs = make_env()
        write(cluster, fs, "/in", TEXT)
        result = run_job(cluster, fs, grep_job(["/in"], r"cloud[s]?"))
        assert result.output["cloud"] == 3
        assert result.output["clouds"] == 1


class TestSchedulingAndScaling:
    def test_locality_rate_high_when_trackers_are_datanodes(self):
        cluster, fs = make_env(6, block_size=256)
        write(cluster, fs, "/in", TEXT * 40)
        result = run_job(cluster, fs, word_count_job(["/in"]))
        assert result.counters.locality_rate >= 0.5

    def test_more_nodes_faster_on_large_input(self):
        def duration(n_trackers):
            cluster = Cluster(10)
            fs = Hdfs(cluster, block_size=4 * MiB, replication=2)
            big_text = TEXT * 2000  # ~250 KiB real ... pad synthetic? keep real
            write(cluster, fs, "/in", big_text * 40)
            hosts = sorted(fs.datanodes)[:n_trackers]
            jt = JobTracker(fs, hosts)
            return cluster.run(
                cluster.engine.process(jt.submit(word_count_job(["/in"])))
            ).duration

        assert duration(4) < duration(1)

    def test_bad_tracker_host(self):
        cluster, fs = make_env()
        with pytest.raises(MapReduceError):
            JobTracker(fs, ["ghost"])

    def test_job_validation(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="x", input_paths=[], mapper=None, reducer=None)
        with pytest.raises(MapReduceError):
            word_count_job(["/in"], num_reduces=0)

    def test_partitioner_stable_and_in_range(self):
        for key in ["a", "b", ("x", 1), 42]:
            p = partition_for(key, 4)
            assert 0 <= p < 4
            assert p == partition_for(key, 4)

    def test_missing_input_raises(self):
        cluster, fs = make_env()
        jt = JobTracker(fs)
        with pytest.raises(Exception):
            cluster.run(cluster.engine.process(jt.submit(word_count_job(["/absent"]))))
