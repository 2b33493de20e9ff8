import pytest

from repro.common.errors import StreamingError, TranscodeError
from repro.common.units import Mbps
from repro.hardware import Cluster
from repro.video import (
    R_720P,
    DistributedTranscoder,
    PlaybackSession,
    StreamingServer,
    VideoFile,
)


def clip(duration=600.0, name="upload.avi", bitrate=4 * Mbps):
    return VideoFile(
        name=name, container="avi", vcodec="mpeg4", acodec="mp3",
        duration=duration, resolution=R_720P, fps=25.0, bitrate=bitrate,
    )


def make_transcoder(n_hosts=5):
    cluster = Cluster(n_hosts)
    workers = cluster.host_names[1:]
    return cluster, DistributedTranscoder(cluster, workers, ingest_host="node0")


class TestDistributedConversion:
    def test_output_equivalent_to_single_node(self):
        cluster, tx = make_transcoder()
        src = clip()
        single = cluster.run(cluster.engine.process(
            tx.convert_single_node(src, vcodec="h264", container="flv")))
        cluster2, tx2 = make_transcoder()
        dist = cluster2.run(cluster2.engine.process(
            tx2.convert_distributed(src, vcodec="h264", container="flv")))
        assert dist.output.vcodec == single.output.vcodec == "h264"
        assert dist.output.duration == pytest.approx(single.output.duration)
        assert dist.output.gop_count == single.output.gop_count
        assert dist.output.content_id == src.content_id

    def test_c1_distributed_faster_for_long_videos(self):
        """Claim C1: parallel conversion beats a single node."""
        src = clip(duration=1800)  # 30 min upload
        cluster, tx = make_transcoder(5)
        single = cluster.run(cluster.engine.process(
            tx.convert_single_node(src, vcodec="h264", container="flv")))
        cluster2, tx2 = make_transcoder(5)
        dist = cluster2.run(cluster2.engine.process(
            tx2.convert_distributed(src, vcodec="h264", container="flv")))
        assert dist.total_time < single.total_time
        # with 4 workers, expect a healthy speedup (not necessarily 4x)
        assert single.total_time / dist.total_time > 2.0

    def test_speedup_grows_with_workers(self):
        src = clip(duration=1800)

        def t(n_workers):
            cluster = Cluster(n_workers + 1)
            tx = DistributedTranscoder(
                cluster, cluster.host_names[1:], ingest_host="node0")
            report = cluster.run(cluster.engine.process(
                tx.convert_distributed(src, vcodec="h264", container="flv")))
            return report.total_time

        assert t(4) < t(2) < t(1)

    def test_short_clips_get_weaker_speedup(self):
        """Fixed split/scatter/merge overheads erode the gain on tiny clips."""

        def speedup(duration, n_segments):
            src = clip(duration=duration)
            cluster, tx = make_transcoder(5)
            single = cluster.run(cluster.engine.process(
                tx.convert_single_node(src, vcodec="h264", container="flv")))
            cluster2, tx2 = make_transcoder(5)
            dist = cluster2.run(cluster2.engine.process(
                tx2.convert_distributed(src, vcodec="h264", container="flv",
                                        n_segments=n_segments)))
            return single.total_time / dist.total_time

        assert speedup(6.0, 3) < speedup(1800.0, 4)

    def test_stage_times_recorded(self):
        cluster, tx = make_transcoder()
        report = cluster.run(cluster.engine.process(
            tx.convert_distributed(clip(), vcodec="h264", container="flv")))
        assert set(report.stage_times) == {"split", "convert", "merge"}
        assert report.stage_times["convert"] > report.stage_times["split"]
        assert report.segments == 4

    def test_explicit_segment_count(self):
        cluster, tx = make_transcoder()
        report = cluster.run(cluster.engine.process(
            tx.convert_distributed(clip(), vcodec="h264", container="flv",
                                   n_segments=8)))
        assert report.segments == 8

    def test_short_clip_uses_one_segment_per_gop(self):
        """A 10 s clip has 5 GOPs: six workers cut it into 5 segments."""
        src = clip(duration=10.0)
        assert src.gop_count == 5
        cluster, tx = make_transcoder(7)
        report = cluster.run(cluster.engine.process(
            tx.convert_distributed(src, vcodec="h264", container="flv")))
        assert report.segments == 5
        assert report.output.gop_count == src.gop_count

    def test_explicit_segment_count_above_gops_still_fails(self):
        cluster, tx = make_transcoder(7)
        with pytest.raises(TranscodeError, match="cannot cut 5 GOPs"):
            cluster.run(cluster.engine.process(
                tx.convert_distributed(clip(duration=10.0), vcodec="h264",
                                       container="flv", n_segments=6)))

    def test_bad_workers(self):
        cluster = Cluster(2)
        with pytest.raises(TranscodeError):
            DistributedTranscoder(cluster, [])
        with pytest.raises(TranscodeError):
            DistributedTranscoder(cluster, ["ghost"])


class TestStreaming:
    def setup_session(self, bitrate=1 * Mbps, duration=60.0, plan=None):
        cluster = Cluster(2)
        video = VideoFile(
            name="movie.flv", container="flv", vcodec="h264", acodec="aac",
            duration=duration, resolution=R_720P, fps=25.0, bitrate=bitrate,
        )
        server = StreamingServer(cluster, "node0")
        session = PlaybackSession(server, "node1", video, watch_plan=plan)
        return cluster, session

    def test_smooth_playback_when_bandwidth_ample(self):
        cluster, session = self.setup_session(bitrate=1 * Mbps)
        report = cluster.run(cluster.engine.process(session.run()))
        assert report.smooth
        assert report.rebuffer_time == 0
        assert report.watched_seconds == pytest.approx(60.0, abs=0.1)
        assert report.startup_delay > 0

    def test_rebuffering_when_bitrate_exceeds_bandwidth(self):
        cluster, session = self.setup_session(bitrate=200 * Mbps)  # > 1 Gb/s link? no: 200Mbps < 1Gbps
        # throttle the client NIC instead
        cluster2 = Cluster(1)
        cluster2.add_host("slowclient", nic_rate=0.5 * Mbps * 8 / 8)
        video = VideoFile(
            name="movie.flv", container="flv", vcodec="h264", acodec="aac",
            duration=30.0, resolution=R_720P, fps=25.0, bitrate=2 * Mbps,
        )
        server = StreamingServer(cluster2, "node0")
        session2 = PlaybackSession(server, "slowclient", video)
        report = cluster2.run(cluster2.engine.process(session2.run()))
        assert report.rebuffer_count > 0
        assert report.rebuffer_time > 0

    def test_seek_issues_new_range_request(self):
        """Figure 23: the time bar can be dragged to any point."""
        cluster, session = self.setup_session(
            duration=120.0, plan=[(0.0, 10.0), (90.0, 10.0)])
        report = cluster.run(cluster.engine.process(session.run()))
        assert len(report.seek_latencies) == 1
        assert report.seek_latencies[0] > 0
        kinds = [e.kind for e in report.events]
        assert "seek" in kinds
        assert report.watched_seconds == pytest.approx(20.0, abs=0.5)

    def test_startup_delay_scales_with_buffer_fill(self):
        slow_bitrate = 1 * Mbps
        fast_bitrate = 8 * Mbps
        d1 = self.run_startup(slow_bitrate)
        d2 = self.run_startup(fast_bitrate)
        assert d2 > d1  # more bytes to prefill at higher bitrate

    def run_startup(self, bitrate):
        cluster, session = self.setup_session(bitrate=bitrate, duration=30.0)
        return cluster.run(cluster.engine.process(session.run())).startup_delay

    def test_bad_watch_plan(self):
        cluster, _ = self.setup_session()
        video = VideoFile(
            name="m.flv", container="flv", vcodec="h264", acodec="aac",
            duration=10.0, resolution=R_720P, fps=25.0, bitrate=1 * Mbps,
        )
        server = StreamingServer(cluster, "node0")
        with pytest.raises(StreamingError):
            PlaybackSession(server, "node1", video, watch_plan=[(99.0, 5.0)])

    def test_unknown_hosts(self):
        cluster = Cluster(1)
        with pytest.raises(StreamingError):
            StreamingServer(cluster, "ghost")
