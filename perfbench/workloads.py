"""The three seeded workloads, driven through the package's public API.

Every workload is open loop: one generator process starts each operation
at its due time whether or not earlier ones have finished, and latencies
are measured from that due time.  All inputs (catalog, arrivals, link
speeds, watch plans) are generated from the workload seed; the stack
itself is always built with the same seed, so it sees only those inputs.

* ``portal_mix``  -- Poisson browse/search/watch/comment traffic with Zipf
  popularity against the full Figure-14 stack (VMs deployed).
* ``flash_crowd`` -- viewers of the most popular video arrive in a burst,
  one every 0.4 s, on the portal's single 1 Gb/s streaming origin, behind
  4/8/16/64 Mb/s last-mile links.
* ``ingest``      -- log-normal-duration uploads through ``POST /upload``
  (FUSE -> HDFS -> distributed transcode -> publish) while the search
  engine re-crawls and rebuilds its index by MapReduce every 10 minutes.

Each operation is guarded on its own: a failed or refused response, or an
exception raised out of the stack, is counted against ``failed_frac`` and
the run goes on.  Inputs are never filtered.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Generator, Iterable

from summary import percentile

from repro import VideoCloud, build_video_cloud
from repro.bench import PortalDriver, TrafficEvent, TrafficModel, VideoCatalog
from repro.common.rng import RngStream
from repro.common.units import Mbps
from repro.obs.metrics import Histogram
from repro.video import PlaybackReport
from repro.web import Response

#: front end + 7 compute hosts: the web tier on node1, 6 transcode workers
N_HOSTS = 8
#: the stack is the same in every run; only the generated inputs vary
STACK_SEED = 0
#: HTTP statuses that mean "refused" rather than "failed"
REFUSED = frozenset({429, 503})


class Workload:
    """Build a stack, drive operations at it, account for every one."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.vc: VideoCloud = build_video_cloud(
            N_HOSTS, seed=STACK_SEED, deploy_vms=True)
        self.engine = self.vc.engine
        self.portal = self.vc.portal
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.refused: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.playbacks: list[tuple[PlaybackReport, float]] = []
        self.setup_events = 0

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Seed content and generate inputs (timed as ``setup_s``)."""

    def drive(self) -> None:
        """The measured phase (timed as ``wall_s``); drains the engine."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Output checks; returns one line per failed check."""
        return self._check_playbacks()

    # -- helpers -------------------------------------------------------------

    def run(self, gen: Generator) -> Any:
        return self.vc.run(self.engine.process(gen))

    def login(self, username: str) -> str:
        """Register, verify and log in one user; returns the session."""
        portal = self.portal

        def _flow() -> Generator:
            yield self.engine.process(portal.request("POST", "/register", params={
                "username": username, "password": "secret99",
                "email": f"{username}@example.org"}))
            _, token = portal.auth.outbox[-1]
            yield self.engine.process(portal.request(
                "POST", "/verify", params={"token": token}))
            resp = yield self.engine.process(portal.request(
                "POST", "/login",
                params={"username": username, "password": "secret99"}))
            return resp.set_session

        return self.run(_flow())

    def open_loop(self, arrivals: Iterable[tuple[float, Any]],
                  start: Callable[[float, Any], Generator]) -> Generator:
        """Process: start ``start(due, item)`` at each arrival offset."""
        engine = self.engine

        def _gen() -> Generator:
            origin = engine.now
            procs = []
            for at, item in arrivals:
                due = origin + at
                if due > engine.now:
                    yield engine.timeout(due - engine.now)
                procs.append(engine.process(start(due, item)))
            if procs:
                yield engine.all_of(procs)

        return _gen()

    def guarded(self, kind: str, body: Generator) -> Generator:
        """Process: one operation; an exception fails it, not the run."""
        self.attempted[kind] += 1
        try:
            yield self.engine.process(body)
        except Exception as exc:  # noqa: BLE001 - counted in failed_frac, reported
            self.raised[kind] += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def request(self, kind: str, sample: str, due: float, method: str,
                path: str, **kwargs: Any) -> Generator:
        """Process: one portal request; a success is sampled from *due*."""
        resp: Response = yield self.engine.process(
            self.portal.request(method, path, **kwargs))
        if resp.ok:
            self.samples.setdefault(sample, []).append(self.engine.now - due)
        elif resp.status in REFUSED:
            self.refused[kind] += 1
        else:
            self.failed[kind] += 1
        return resp

    def watch(self, video_id: int, client: str, seconds: float) -> Generator:
        """Process: play *seconds* from the start; keeps the report."""
        session = self.portal.play(video_id, client,
                                   watch_plan=[(0.0, seconds)])
        report = yield self.engine.process(session.run())
        planned = min(seconds, self.portal.rendition(video_id).duration)
        self.samples.setdefault("startup", []).append(report.startup_delay)
        self.playbacks.append((report, planned))

    def _check_playbacks(self) -> list[str]:
        bad = [f"{r.video}: watched {r.watched_seconds!r} s of {planned!r} s"
               for r, planned in self.playbacks
               if not math.isclose(r.watched_seconds, planned, rel_tol=1e-9)]
        return [f"playback does not cover its watch plan: {line}"
                for line in bad[:5]]

    def check_index(self, published: Iterable[tuple[int, str]]) -> list[str]:
        """Every published title finds its own video in the final index."""
        missing = []
        for video_id, title in published:
            hits = self.portal.search.search_now(title, limit=50)
            if f"video-{video_id}" not in {h.doc_id for h in hits}:
                missing.append(f"index does not answer {title!r} "
                               f"with video {video_id}")
        return missing[:5]

    # -- results -------------------------------------------------------------

    def sim_record(self, measured_events: int) -> dict[str, Any]:
        """Every simulated outcome of the run; the basis of ``sim_digest``."""
        kinds = sorted(self.attempted)
        registry: dict[str, Any] = {}
        for family in self.vc.cluster.metrics.families():
            if isinstance(family, Histogram):
                registry[family.name] = [
                    sum(c.count for c in family.children()),
                    math.fsum(c.sum for c in family.children())]
            else:
                registry[family.name] = math.fsum(
                    c.value for c in family.children())
        return {
            "ops": {k: {"attempted": self.attempted[k],
                        "failed": self.failed[k],
                        "refused": self.refused[k],
                        "raised": self.raised[k]} for k in kinds},
            "errors": self.errors,
            "samples": self.samples,
            "playback": {
                "sessions": len(self.playbacks),
                "stall_s": math.fsum(r.rebuffer_time for r, _ in self.playbacks),
                "watched_s": math.fsum(r.watched_seconds
                                       for r, _ in self.playbacks),
            },
            "engine": {"setup_events": self.setup_events,
                       "events": measured_events, "now": self.engine.now},
            "bytes_delivered": self.vc.cluster.network.bytes_delivered,
            "tracer_spans": len(self.vc.cluster.tracer),
            "registry": registry,
        }


class PortalMix(Workload):
    """Open-loop page and watch traffic against a seeded catalog."""

    name = "portal_mix"
    VIDEOS = 40
    REQUESTS = 2000
    RATE = 8.0          # arrivals per simulated second
    CLIENTS = 4

    def setup(self) -> None:
        self.clients = [self.vc.cluster.add_host(f"client{i}").name
                        for i in range(self.CLIENTS)]
        self.driver = PortalDriver(self.portal)
        self.catalog = VideoCatalog(self.VIDEOS, seed=self.seed)
        self.run(self.driver.seed(self.catalog))
        self.session = self.login("viewer")
        self.events = TrafficModel(rate_per_s=self.RATE, seed=self.seed) \
            .events(self.REQUESTS, len(self.driver.video_ids))

    def drive(self) -> None:
        arrivals = [(ev.at, (i, ev)) for i, ev in enumerate(self.events)]
        self.run(self.open_loop(arrivals, self._start))
        self.vc.run()

    def _start(self, due: float, item: tuple[int, TrafficEvent]) -> Generator:
        i, ev = item
        client = self.clients[i % len(self.clients)]
        ids = self.driver.video_ids
        vid = ids[ev.video_rank % len(ids)]
        if ev.action == "browse":
            body = self.request("browse", "req", due, "GET", "/",
                                client_host=client)
        elif ev.action == "search":
            body = self.request("search", "req", due, "GET", "/search",
                                params={"q": ev.query}, client_host=client)
        elif ev.action == "comment":
            body = self.request("comment", "req", due, "POST",
                                f"/video/{vid}/comment", session=self.session,
                                params={"text": "nice!"}, client_host=client)
        else:
            body = self._watch(due, vid, client, ev.watch_seconds)
        return self.guarded(ev.action, body)

    def _watch(self, due: float, vid: int, client: str,
               seconds: float) -> Generator:
        resp = yield self.engine.process(self.request(
            "watch", "req", due, "GET", f"/video/{vid}", client_host=client))
        if resp.ok:
            yield self.engine.process(self.watch(vid, client, seconds))

    def check(self) -> list[str]:
        titles = {e.media.name: e.title for e in self.catalog.entries}
        by_rank = self.catalog.by_popularity()
        published = [(vid, titles[entry.media.name])
                     for vid, entry in zip(self.driver.video_ids, by_rank)]
        return super().check() + self.check_index(published)


class FlashCrowd(Workload):
    """A burst of viewers on one video, one origin, mixed last miles."""

    name = "flash_crowd"
    VIEWERS = 120
    RATE = 2.5          # arrivals per simulated second
    WATCH_S = 12.0      # about 30 viewers stream at once
    LINKS_MBPS = (4, 8, 16, 64)

    def setup(self) -> None:
        driver = PortalDriver(self.portal)
        self.run(driver.seed(VideoCatalog(3, seed=self.seed), reindex=False))
        self.video_id = driver.video_ids[0]
        links = RngStream(self.seed, "flash-links").shuffle(
            list(self.LINKS_MBPS) * (self.VIEWERS // len(self.LINKS_MBPS)))
        self.viewers = [
            self.vc.cluster.add_host(f"viewer{i}", nic_rate=mbps * Mbps).name
            for i, mbps in enumerate(links)]
        # evenly spaced, not Poisson: the solver's cost grows faster than
        # the number of viewers streaming at once, so Poisson arrivals made
        # it differ by up to 40% from seed to seed (seeds 21-30); the seed
        # still decides which viewer sits behind which link
        self.arrivals = [((i + 1) / self.RATE, host)
                         for i, host in enumerate(self.viewers)]

    def drive(self) -> None:
        def start(due: float, host: str) -> Generator:
            return self.guarded(
                "view", self.watch(self.video_id, host, self.WATCH_S))

        self.run(self.open_loop(self.arrivals, start))
        self.vc.run()


class Ingest(Workload):
    """Open-loop uploads beside periodic crawl + MapReduce index builds."""

    name = "ingest"
    UPLOADS = 600
    RATE = 0.03         # uploads per simulated second
    MEAN_DURATION = 60.0
    REFRESH_S = 600.0

    def setup(self) -> None:
        self.session = self.login("uploader")
        self.catalog = VideoCatalog(self.UPLOADS, seed=self.seed,
                                    mean_duration=self.MEAN_DURATION)
        rng = RngStream(self.seed, "ingest-arrivals")
        at = 0.0
        self.arrivals = []
        for entry in self.catalog.entries:
            at += rng.exponential(1.0 / self.RATE)
            self.arrivals.append((at, entry))
        self.published: list[tuple[int, str]] = []
        self.by_arrival: list[tuple[float, float]] = []

    def drive(self) -> None:
        search = self.portal.search
        search.start_periodic_refresh(self.portal, self.REFRESH_S)
        self.run(self.open_loop(self.arrivals, self._start))
        search.stop_periodic_refresh()
        self.vc.run()
        # the index catches up with the last uploads
        self.run(self.portal.refresh_search_index())

    def _start(self, due: float, entry: Any) -> Generator:
        return self.guarded("upload", self._upload(due, entry))

    def _upload(self, due: float, entry: Any) -> Generator:
        resp = yield self.engine.process(self.request(
            "upload", "upload", due, "POST", "/upload", session=self.session,
            params={"title": entry.title, "description": entry.description,
                    "tags": entry.tags, "media": entry.media}))
        if resp.ok:
            self.published.append((resp.body["video_id"], entry.title))
            self.by_arrival.append((due, self.engine.now - due))

    def sim_record(self, measured_events: int) -> dict[str, Any]:
        """Adds the upload p50 of each third of the arrivals, which would
        grow from third to third if uploads outran the transcoders."""
        record = super().sim_record(measured_events)
        latencies = [lat for _, lat in sorted(self.by_arrival)]
        third = len(latencies) // 3
        record["upload_thirds_p50_s"] = [
            percentile(part, 50)[0] for part in (
                latencies[:third], latencies[third:2 * third],
                latencies[2 * third:])] if third else []
        return record

    def check(self) -> list[str]:
        portal = self.portal
        client = portal.fs.client(portal.web_host)
        bad = []
        for video_id, _title in self.published:
            row = portal.db.table("videos").get(video_id)
            if row is None or row["status"] != "published":
                bad.append(f"upload {video_id} is not published")
                continue
            for rung in portal.ladder:
                path = (f"{portal.PUBLISH_ROOT}/video-{video_id}-"
                        f"{rung.name}.flv")
                want = portal.rendition(video_id, rung.name).size
                got = client.stat(path).length if client.exists(path) else None
                if got != want:
                    bad.append(f"{path}: {got} bytes in HDFS, want {want}")
        return super().check() + bad[:5] + self.check_index(self.published)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PortalMix, FlashCrowd, Ingest)}
