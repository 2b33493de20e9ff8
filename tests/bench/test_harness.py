"""The BenchResult / emit / KernelRate publishing harness."""

import json

import pytest

import repro.bench.harness as harness
from repro.bench import BenchResult, KernelRate, emit
from repro.common.errors import ConfigError
from repro.sim import Engine


@pytest.fixture(autouse=True)
def _fresh_header_state():
    """Each test sees a process that has not yet emitted its header."""
    prior = harness._analyzer_header_emitted
    harness._analyzer_header_emitted = False
    yield
    harness._analyzer_header_emitted = prior


def blocks_of(lines):
    """Parse the ``### BENCH_JSON tag {...}`` lines out of emitted text."""
    out = {}
    for line in lines:
        if line.startswith("### BENCH_JSON "):
            _, _, rest = line.partition("### BENCH_JSON ")
            tag, _, body = rest.partition(" ")
            out[tag] = json.loads(body)
    return out


class TestBenchResult:
    def test_name_must_be_snake_case_tag(self):
        with pytest.raises(ConfigError):
            BenchResult("bad tag")
        with pytest.raises(ConfigError):
            BenchResult("")
        assert BenchResult("e07_tracker").name == "e07_tracker"

    def test_payload_has_params_and_metrics(self):
        r = BenchResult("demo", params={"n": 3}, metrics={"ok": True})
        assert r.payload() == {"params": {"n": 3}, "metrics": {"ok": True}}

    def test_payload_carries_seed_and_rounded_rate(self):
        r = BenchResult("demo", seed=9, events_per_sec=1234.5678)
        body = r.payload()
        assert body["seed"] == 9
        assert body["events_per_sec"] == 1234.6

    def test_table_is_chainable_and_renders(self):
        r = (BenchResult("demo")
             .table("first", ["a"], [[1]])
             .table("second", ["b"], [[2]]))
        text = r.render()
        assert "first" in text and "second" in text
        assert text.index("first") < text.index("second")


class TestEmit:
    def test_emits_analyzer_header_once_per_process(self):
        lines = []
        emit(BenchResult("one"), write=lines.append)
        emit(BenchResult("two"), write=lines.append)
        blocks = blocks_of(lines)
        assert set(blocks) == {"analyzer", "one", "two"}
        assert blocks["analyzer"]["rule_count"] > 0
        assert "analyzer_version" in blocks["analyzer"]

    def test_tables_precede_the_json_block(self):
        lines = []
        emit(BenchResult("demo").table("t", ["h"], [[1]]),
             write=lines.append)
        rendered = "\n".join(lines)
        assert rendered.index("t") < rendered.index("### BENCH_JSON demo")

    def test_block_body_round_trips(self):
        lines = []
        emit(BenchResult("demo", params={"z": 1, "a": 2}), write=lines.append)
        body = blocks_of(lines)["demo"]
        assert body["params"] == {"z": 1, "a": 2}


class TestKernelRate:
    def test_unmeasured_rate_raises(self):
        with pytest.raises(ConfigError):
            KernelRate().events_per_sec

    def test_measures_dispatch_delta(self):
        eng = Engine()
        for i in range(10):
            eng.call_later(float(i), lambda: None)
        rate = KernelRate()
        with rate.measure(eng):
            eng.run()
        assert rate.events == 10
        assert rate.events_per_sec > 0

    def test_accumulates_across_engines(self):
        rate = KernelRate()
        for _ in range(2):
            eng = Engine()
            for i in range(5):
                eng.call_later(float(i), lambda: None)
            with rate.measure(eng):
                eng.run()
        assert rate.events == 10

    def test_only_counts_inside_the_window(self):
        eng = Engine()
        eng.call_later(1.0, lambda: None)
        eng.run()  # outside any measurement
        eng.call_later(1.0, lambda: None)
        rate = KernelRate()
        with rate.measure(eng):
            eng.run()
        assert rate.events == 1
