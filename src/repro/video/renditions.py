"""Rendition ladders and thumbnails.

A production video site transcodes every upload into a ladder of
qualities (the paper's portal serves 720p; real deployments add lower
rungs for slow clients) and extracts poster thumbnails for the listing
pages.  Both are plain FFmpeg invocations on the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..common.errors import TranscodeError
from ..common.units import Mbps
from ..hardware import PhysicalHost
from .ffmpeg import FFmpeg
from .media import R_360P, R_480P, R_720P, Resolution, VideoFile
from .pipeline import ConversionReport, DistributedTranscoder


@dataclass(frozen=True)
class Rendition:
    """One rung of the quality ladder."""

    name: str
    resolution: Resolution
    bitrate: float          # video bytes/second
    vcodec: str = "h264"
    container: str = "flv"


#: the default ladder: the paper's 720p plus two lower rungs
DEFAULT_LADDER: tuple[Rendition, ...] = (
    Rendition("720p", R_720P, 4 * Mbps),
    Rendition("480p", R_480P, 2 * Mbps),
    Rendition("360p", R_360P, 1 * Mbps),
)

LADDER_BY_NAME = {r.name: r for r in DEFAULT_LADDER}


def make_renditions(
    transcoder: DistributedTranscoder,
    src: VideoFile,
    ladder: tuple[Rendition, ...] = DEFAULT_LADDER,
) -> Generator:
    """Process: convert *src* into every rung, concurrently.

    Each rung runs the full Figure 16 split/convert/merge pipeline; rungs
    share the worker pool, so total time is governed by the aggregate CPU.
    Returns ``dict[name, ConversionReport]``.
    """
    if not ladder:
        raise TranscodeError("empty rendition ladder")
    engine = transcoder.cluster.engine

    def _run():
        procs = {}
        for rung in ladder:
            procs[rung.name] = engine.process(
                transcoder.convert_distributed(
                    src, vcodec=rung.vcodec, container=rung.container,
                    resolution=rung.resolution, bitrate=rung.bitrate,
                )
            )
        done = yield engine.all_of(list(procs.values()))
        reports: dict[str, ConversionReport] = {}
        for name, proc in procs.items():
            report = done[proc]
            reports[name] = report
        return reports

    return _run()


@dataclass(frozen=True)
class Thumbnail:
    """A poster frame extracted from a video."""

    video: str
    at_time: float
    width: int
    height: int
    size: int              # JPEG bytes

    @property
    def name(self) -> str:
        return f"{self.video}.t{self.at_time:.0f}.jpg"


#: JPEG compression: ~0.15 byte/pixel at web quality
_JPEG_BYTES_PER_PIXEL = 0.15
#: thumbnail box
THUMB_RESOLUTION = Resolution(320, 180)


def extract_thumbnail(ffmpeg: FFmpeg, host: PhysicalHost, src: VideoFile,
                      at_time: float) -> Generator:
    """Process: seek to *at_time*, decode one GOP, scale, JPEG-encode.

    Returns a :class:`Thumbnail`.
    """
    if not 0 <= at_time <= src.duration:
        raise TranscodeError(
            f"thumbnail time {at_time} outside [0, {src.duration}]")
    engine = host.engine
    v = ffmpeg.cal.video

    def _run():
        yield engine.timeout(v.ffmpeg_startup)
        # read roughly one GOP's worth of container bytes near the seek point
        gop_bytes = src.size / src.gop_count
        yield from host.disk.read(int(gop_bytes))
        # decode one GOP of frames + encode one JPEG
        gop_pixels = src.resolution.pixels * src.fps * src.gop_seconds
        dec = v.decode_cycles_per_pixel.get(src.vcodec, 40.0)
        cycles = dec * gop_pixels + 30.0 * THUMB_RESOLUTION.pixels
        yield from host.compute(cycles)
        size = int(THUMB_RESOLUTION.pixels * _JPEG_BYTES_PER_PIXEL)
        yield from host.disk.write(size)
        return Thumbnail(
            video=src.content_id, at_time=at_time,
            width=THUMB_RESOLUTION.width, height=THUMB_RESOLUTION.height,
            size=size,
        )

    return _run()
