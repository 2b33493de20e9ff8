"""Distributed parallel conversion: the Figure 16 pipeline (claim C1).

"we use FFmpeg to distribute videos to different hosts for uploading,
transfer files at the same time and later integrate with the previous.
It takes even less execution time than transferring files by FFmpeg on a
single node" (Section III).

Stages, exactly as the figure draws them:

1. **split** the uploaded file into keyframe-aligned segments on the
   ingest host;
2. **scatter** the segments to worker hosts over the network;
3. **convert** every segment in parallel (each worker runs FFmpeg);
4. **gather** converted segments back to the ingest host;
5. **merge** (concat) into the final file.

``convert_single_node`` is the baseline: one FFmpeg invocation on the
ingest host.  Both return a :class:`ConversionReport` with per-stage
timings so the bench can show the speedup curve and its overhead-driven
crossover for short clips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..common.errors import FaultInjectionError, PartitionError, TranscodeError
from ..common.retry import RetryPolicy, retry_process
from ..hardware import Cluster
from .ffmpeg import FFmpeg
from .media import Resolution, VideoFile


@dataclass
class ConversionReport:
    """What each conversion run reports."""

    output: VideoFile
    total_time: float
    mode: str                       # "single" | "distributed"
    workers: int = 1
    stage_times: dict[str, float] = field(default_factory=dict)
    segments: int = 1


class DistributedTranscoder:
    """Runs conversions over a set of worker hosts."""

    def __init__(
        self,
        cluster: Cluster,
        worker_hosts: list[str],
        *,
        ingest_host: str | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if not worker_hosts:
            raise TranscodeError("need at least one worker host")
        for h in worker_hosts:
            if h not in cluster.host_names:
                raise TranscodeError(f"worker host {h} not in cluster")
        self.cluster = cluster
        self.workers = list(worker_hosts)
        self.ingest = ingest_host or worker_hosts[0]
        if self.ingest not in cluster.host_names:
            raise TranscodeError(f"ingest host {self.ingest} not in cluster")
        self.ffmpeg = FFmpeg(cluster.cal)
        # Segment failover: a dead worker's segments are retried on the next
        # live worker with capped exponential backoff.
        self.retry = retry or RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=8.0)
        self.tracer = cluster.tracer
        metrics = cluster.metrics
        self._m_seconds = metrics.histogram(
            "transcode_seconds", "whole-conversion wall time", labels=("mode",))
        self._m_stage = metrics.histogram(
            "transcode_stage_seconds", "per-stage wall time", labels=("stage",))
        self._m_segments = metrics.counter(
            "transcode_segments_total", "segments converted")
        self._m_failovers = metrics.counter(
            "transcode_failovers_total", "segments retried on another worker")

    # -- baseline ---------------------------------------------------------------

    def convert_single_node(
        self, src: VideoFile, *, vcodec: str, container: str,
        resolution: Resolution | None = None, bitrate: float | None = None,
    ) -> Generator:
        """Process: one-node conversion on the ingest host."""
        engine = self.cluster.engine
        host = self.cluster.host(self.ingest)

        def _run():
            t0 = engine.now
            out = yield engine.process(
                self.ffmpeg.transcode(
                    host, src, vcodec=vcodec, container=container,
                    resolution=resolution, bitrate=bitrate,
                    name=f"{src.content_id}.out",
                )
            )
            total = engine.now - t0
            self._m_seconds.labels(mode="single").observe(total)
            return ConversionReport(
                output=out, total_time=total, mode="single",
                stage_times={"convert": total},
            )

        return self.tracer.trace(
            "transcode.convert", _run(), source="transcode",
            mode="single", video=src.name)

    # -- the Figure 16 pipeline ------------------------------------------------------

    def convert_distributed(
        self, src: VideoFile, *, vcodec: str, container: str,
        resolution: Resolution | None = None, bitrate: float | None = None,
        n_segments: int | None = None,
    ) -> Generator:
        """Process: split / scatter / parallel convert / gather / merge.

        *n_segments* defaults to one segment per worker, but never more
        segments than *src* has GOPs (a short clip uses fewer workers).
        """
        engine = self.cluster.engine
        network = self.cluster.network
        ingest = self.cluster.host(self.ingest)
        n = (n_segments if n_segments is not None
             else min(len(self.workers), src.gop_count))
        if n < 1:
            raise TranscodeError("n_segments must be >= 1")

        def _run():
            t0 = engine.now
            stages: dict[str, float] = {}

            # 1. split at keyframes on the ingest host
            segments = yield engine.process(self.ffmpeg.run_split(ingest, src, n))
            stages["split"] = engine.now - t0
            self._m_stage.labels(stage="split").observe(stages["split"])

            # 2-4. per-segment: scatter -> convert -> gather, all overlapped.
            # A worker that dies mid-segment (chaos layer) fails the attempt
            # with FaultInjectionError; the segment fails over to the next
            # live worker under the transcoder's RetryPolicy.
            def attempt(segment: VideoFile, worker_name: str):
                worker = self.cluster.host(worker_name)
                if not worker.alive:
                    raise FaultInjectionError(f"worker {worker_name} is down")
                if worker_name != ingest.name:
                    yield network.transfer(ingest.name, worker_name, segment.size)
                    yield from worker.disk.write(segment.size)
                conv = engine.process(
                    self.ffmpeg.transcode(
                        worker, segment, vcodec=vcodec, container=container,
                        resolution=resolution, bitrate=bitrate,
                        name=f"{segment.name}.conv",
                    )
                )
                death = worker.failure_event()
                yield engine.any_of([conv, death])
                if not conv.triggered:
                    conv.defuse()  # abandoned; must not crash the engine later
                    raise FaultInjectionError(
                        f"worker {worker_name} died converting {segment.name}")
                out_seg = conv.value
                if worker_name != ingest.name:
                    yield network.transfer(worker_name, ingest.name, out_seg.size)
                    yield from ingest.disk.write(out_seg.size)
                return out_seg

            def handle(segment: VideoFile, home: int):
                def pick(k: int) -> str:
                    rotation = [self.workers[(home + j) % len(self.workers)]
                                for j in range(len(self.workers))]
                    alive = [w for w in rotation if self.cluster.host(w).alive]
                    if not alive:
                        raise TranscodeError("no live transcode workers")
                    return alive[k % len(alive)]

                def on_retry(k: int, exc: BaseException) -> None:
                    self.cluster.log.emit(
                        "video.pipeline", "segment_failover",
                        f"{segment.name}: attempt {k} after {exc}",
                        segment=segment.name, attempt=k, error=str(exc),
                    )
                    self._m_failovers.inc()

                def _h():
                    try:
                        out_seg = yield engine.process(retry_process(
                            engine,
                            lambda k: attempt(segment, pick(k)),
                            policy=self.retry,
                            retry_on=(FaultInjectionError, PartitionError),
                            on_retry=on_retry,
                        ))
                    except (FaultInjectionError, PartitionError) as exc:
                        raise TranscodeError(
                            f"{segment.name}: failover retries exhausted") from exc
                    self._m_segments.inc()
                    return out_seg

                return self.tracer.trace(
                    "transcode.segment", _h(), source="transcode",
                    segment=segment.name)

            t1 = engine.now
            procs = [
                engine.process(handle(seg, i))
                for i, seg in enumerate(segments)
            ]
            done = yield engine.all_of(procs)
            converted = [done[p] for p in procs]
            stages["convert"] = engine.now - t1
            self._m_stage.labels(stage="convert").observe(stages["convert"])

            # 5. merge on the ingest host
            t2 = engine.now
            out = yield engine.process(
                self.ffmpeg.run_concat(ingest, converted, name=f"{src.content_id}.out")
            )
            stages["merge"] = engine.now - t2
            self._m_stage.labels(stage="merge").observe(stages["merge"])

            total = engine.now - t0
            self._m_seconds.labels(mode="distributed").observe(total)
            self.cluster.log.emit(
                "video.pipeline", "conversion_done",
                f"{src.name}: {n} segments over {len(self.workers)} workers "
                f"in {total:.1f} s",
                video=src.name, segments=n, workers=len(self.workers), total=total,
            )
            return ConversionReport(
                output=out, total_time=total, mode="distributed",
                workers=len(self.workers), stage_times=stages, segments=n,
            )

        return self.tracer.trace(
            "transcode.convert", _run(), source="transcode",
            mode="distributed", video=src.name, segments=n)
