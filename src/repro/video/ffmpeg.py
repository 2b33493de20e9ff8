"""The FFmpeg-like tool: probe, transcode, split, concat.

Costs follow the calibration's cycles-per-pixel model: a transcode pays
process startup + decode of every input pixel + encode of every output
pixel on one core of the executing host, plus disk I/O for input and
output.  ``split`` cuts at GOP (keyframe) boundaries only -- cutting
elsewhere would need re-encoding, exactly why the paper's Figure 16
pipeline splits on keyframes -- and ``concat`` verifies the segments form
a gapless, duplicate-free, single-content sequence before remuxing.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Generator

from ..common.calibration import Calibration
from ..common.errors import MediaError, TranscodeError
from ..hardware import PhysicalHost
from .media import CONTAINER_CODECS, Resolution, VideoFile


class FFmpeg:
    """A stateless toolbox bound to a calibration."""

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal

    # -- probe ------------------------------------------------------------------

    def probe(self, video: VideoFile) -> dict:
        """ffprobe-style metadata dict."""
        return {
            "name": video.name,
            "container": video.container,
            "vcodec": video.vcodec,
            "acodec": video.acodec,
            "duration": video.duration,
            "resolution": str(video.resolution),
            "fps": video.fps,
            "bitrate": video.bitrate,
            "size": video.size,
            "gops": video.gop_count,
        }

    # -- cost model ----------------------------------------------------------------

    def transcode_cycles(
        self, src: VideoFile, vcodec: str, resolution: Resolution
    ) -> float:
        """CPU cycles to convert *src* to (vcodec, resolution)."""
        v = self.cal.video
        try:
            dec = v.decode_cycles_per_pixel[src.vcodec]
            enc = v.encode_cycles_per_pixel[vcodec]
        except KeyError as exc:
            raise TranscodeError(f"no cost model for codec {exc}") from None
        pixels_in = src.pixels_total
        pixels_out = resolution.pixels * src.fps * src.duration
        return dec * pixels_in + enc * pixels_out

    # -- transcode -------------------------------------------------------------------

    def transcode(
        self,
        host: PhysicalHost,
        src: VideoFile,
        *,
        container: str | None = None,
        vcodec: str | None = None,
        resolution: Resolution | None = None,
        bitrate: float | None = None,
        name: str | None = None,
    ) -> Generator:
        """Process: convert *src* on *host*; returns the output VideoFile."""
        container = container or src.container
        vcodec = vcodec or src.vcodec
        resolution = resolution or src.resolution
        bitrate = bitrate if bitrate is not None else src.bitrate
        if vcodec not in CONTAINER_CODECS.get(container, ()):
            raise TranscodeError(f"{container} cannot carry {vcodec}")
        engine = host.engine
        v = self.cal.video
        out = replace(
            src,
            name=name or f"{src.name}.{vcodec}.{resolution.height}p.{container}",
            container=container,
            vcodec=vcodec,
            resolution=resolution,
            bitrate=bitrate,
        )

        def _run():
            yield engine.timeout(v.ffmpeg_startup)
            yield from host.disk.read(src.size)
            cycles = self.transcode_cycles(src, vcodec, resolution)
            yield from host.compute(cycles)
            yield from host.disk.write(out.size)
            return out

        return _run()

    # -- split / concat -----------------------------------------------------------------

    def split(self, src: VideoFile, n_segments: int) -> list[VideoFile]:
        """Cut *src* into *n_segments* keyframe-aligned segments (no re-encode)."""
        if n_segments < 1:
            raise TranscodeError(f"n_segments must be >= 1, got {n_segments}")
        gops = src.gop_count
        if n_segments > gops:
            raise TranscodeError(
                f"{src.name}: cannot cut {gops} GOPs into {n_segments} segments"
            )
        segments: list[VideoFile] = []
        per = gops / n_segments
        for i in range(n_segments):
            g0 = src.gop_start + math.floor(i * per)
            g1 = src.gop_start + math.floor((i + 1) * per) if i < n_segments - 1 else src.gop_end
            n_gops = g1 - g0
            # last GOP of the file may be short
            if g1 == src.gop_end:
                dur = src.duration - (g0 - src.gop_start) * src.gop_seconds
            else:
                dur = n_gops * src.gop_seconds
            segments.append(
                replace(
                    src,
                    name=f"{src.name}.part{i:03d}",
                    duration=dur,
                    gop_start=g0,
                    gop_end=g1,
                )
            )
        return segments

    def split_cost(self, src: VideoFile) -> float:
        """Seconds of CPU-ish work to split (container parse, no re-encode)."""
        return self.cal.video.ffmpeg_startup + src.size * self.cal.video.remux_cpu_per_byte

    def concat(self, segments: list[VideoFile], name: str | None = None) -> VideoFile:
        """Merge segments back into one file, verifying gapless continuity."""
        if not segments:
            raise TranscodeError("concat of zero segments")
        ordered = sorted(segments, key=lambda s: s.gop_start)
        first = ordered[0]
        for s in ordered[1:]:
            if s.content_id != first.content_id:
                raise TranscodeError(
                    f"concat mixes contents {first.content_id!r} and {s.content_id!r}"
                )
            if (s.vcodec, s.container, s.resolution) != (
                first.vcodec, first.container, first.resolution
            ):
                raise TranscodeError("concat segments disagree on codec/container/resolution")
        expected = first.gop_start
        for s in ordered:
            if s.gop_start != expected:
                verb = "gap" if s.gop_start > expected else "overlap"
                raise TranscodeError(
                    f"concat {verb} at GOP {expected} (segment {s.name} starts at {s.gop_start})"
                )
            expected = s.gop_end
        return replace(
            first,
            name=name or first.name.rsplit(".part", 1)[0],
            duration=sum(s.duration for s in ordered),
            gop_start=ordered[0].gop_start,
            gop_end=ordered[-1].gop_end,
        )

    def concat_cost(self, segments: list[VideoFile]) -> float:
        total = sum(s.size for s in segments)
        return self.cal.video.ffmpeg_startup + total * self.cal.video.merge_cpu_per_byte

    def run_split(self, host: PhysicalHost, src: VideoFile, n_segments: int) -> Generator:
        """Process: split on *host* (I/O + parse cost); returns segments."""
        engine = host.engine
        segments = self.split(src, n_segments)

        def _run():
            yield from host.disk.read(src.size)
            yield engine.timeout(self.split_cost(src))
            yield from host.disk.write(src.size)
            return segments

        return _run()

    def run_concat(self, host: PhysicalHost, segments: list[VideoFile],
                   name: str | None = None) -> Generator:
        """Process: concat on *host*; returns the merged file."""
        engine = host.engine
        out = self.concat(segments, name)

        def _run():
            total = sum(s.size for s in segments)
            yield from host.disk.read(total)
            yield engine.timeout(self.concat_cost(segments))
            yield from host.disk.write(out.size)
            return out

        return _run()
