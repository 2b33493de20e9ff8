"""The VOC video portal: the paper's SaaS layer (Figures 15, 17-23).

Wires every substrate together the way Figure 14 draws it:

* **Lighttpd + PHP** -> :mod:`repro.web.server` handlers with PHP page cost;
* **MySQL**          -> :mod:`repro.web.minidb` tables (users, videos,
  comments, flags);
* **FUSE + HDFS**    -> uploads written through :class:`~repro.fusehdfs.HdfsMount`;
* **FFmpeg**         -> uploads converted by the distributed pipeline to
  H.264 720p FLV (the player page's format, Figure 23);
* **Nutch**          -> the portal *is* a crawlable Site; the search box
  queries the engine's index;
* **Flowplayer**     -> the player page starts a PlaybackSession;
* plus the social-network links (Facebook / Plurk / Twitter) and the
  admin functions ("inform against bad films and blocking vicious
  users") the paper mentions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from ..common.errors import (
    AuthError,
    HttpError,
    ReplicationError,
    SafeModeError,
    WebError,
)
from ..resilience import DEFAULT_PRIORITIES, AdmissionController, Deadline
from ..fusehdfs import HdfsMount
from ..hardware import Cluster
from ..hdfs import Hdfs
from ..search import (
    Document,
    Page,
    SearchEngine,
    highlight,
    more_like_this,
    paginate,
    suggest,
)
from ..video import (
    DEFAULT_LADDER,
    LADDER_BY_NAME,
    R_720P,
    DistributedTranscoder,
    FFmpeg,
    PlaybackSession,
    Rendition,
    StreamingServer,
    Thumbnail,
    VideoFile,
    extract_thumbnail,
    make_renditions,
)
from ..virt import VirtualMachine, VmState, WorkKind
from .auth import AuthService
from .feed import render_feed
from .minidb import Column, Database, QueryStats
from .server import ApachePrefork, Lighttpd, Request, Response, WebServer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..hdfs.admin import SafeModeController


class VideoPortal:
    """The deployed video service."""

    UPLOAD_MOUNT = "/var/www/uploads"
    PUBLISH_ROOT = "/published"
    #: Retry-After seconds handed out with graceful-degradation 503s
    RETRY_AFTER = 15.0

    def __init__(
        self,
        cluster: Cluster,
        fs: Hdfs,
        *,
        web_host: str,
        transcode_workers: list[str],
        server_kind: str = "lighttpd",
        admins: tuple[str, ...] = ("admin",),
        ladder: tuple[str, ...] = ("720p",),
        guest_vm: VirtualMachine | None = None,
    ) -> None:
        """*guest_vm*: when given, the web tier's PHP/DB work executes
        inside that guest domain, paying its hypervisor's virtualization
        overhead -- the paper's actual deployment (SaaS inside IaaS VMs)."""
        self.cluster = cluster
        self.engine = cluster.engine
        self.fs = fs
        self.web_host = web_host
        self.db = Database("voc")
        self.auth = AuthService(self.db, clock=lambda: self.engine.now)
        self.mount = HdfsMount(fs, web_host, mount_point=self.UPLOAD_MOUNT,
                               hdfs_root="/uploads")
        self.transcoder = DistributedTranscoder(
            cluster, transcode_workers, ingest_host=web_host
        )
        self.search = SearchEngine(fs)
        self.streamer = StreamingServer(cluster, web_host)
        self.admins = set(admins)
        try:
            self.ladder: tuple[Rendition, ...] = tuple(
                LADDER_BY_NAME[name] for name in ladder)
        except KeyError as exc:
            raise WebError(f"unknown rendition {exc}; choose from "
                           f"{sorted(LADDER_BY_NAME)}") from None
        self.ffmpeg = FFmpeg(cluster.cal)
        if guest_vm is not None and guest_vm.hypervisor is None:
            raise WebError("guest_vm must be placed on a hypervisor")
        self.guest_vm = guest_vm

        if server_kind == "lighttpd":
            self.server: WebServer = Lighttpd(cluster, web_host)
        elif server_kind == "apache-prefork":
            self.server = ApachePrefork(cluster, web_host)
        else:
            raise WebError(f"unknown server kind {server_kind!r}")

        #: optional SafeModeController; attach_safemode() wires it in
        self.safemode = None
        #: optional front door (e.g. a LoadBalancer) that requests enter
        #: through instead of hitting the primary server directly
        self.frontend: object | None = None
        self.tracer = cluster.tracer
        self.metrics = cluster.metrics
        self._m_uploads = self.metrics.counter(
            "portal_uploads_total", "video uploads", labels=("outcome",))
        self._m_upload_seconds = self.metrics.histogram(
            "portal_upload_seconds", "upload -> published latency")
        #: layer name -> callable returning a degraded reason or None;
        #: rendered by /healthz (stack.py adds a scheduler probe)
        self.health_providers: dict[str, Any] = {}
        self.add_health_provider("web", lambda: None)
        self.add_health_provider("hdfs", self.degraded_reason)
        self.add_health_provider("transcode", self._transcode_health)

        self._create_tables()
        self._register_routes()
        #: published VideoFile objects: video id -> {rendition name: file}
        self._renditions: dict[int, dict[str, VideoFile]] = {}
        self._thumbnails: dict[int, Thumbnail] = {}

    # -- schema ------------------------------------------------------------------

    def _create_tables(self) -> None:
        self.db.create_table(
            "videos",
            [
                Column("id", "int"),
                Column("owner_id", "int"),
                Column("title", "str"),
                Column("description", "str"),
                Column("tags", "str"),
                Column("status", "str"),       # processing|published|removed
                Column("duration", "float"),
                Column("views", "int"),
                Column("upload_time", "float"),
                Column("hdfs_path", "str", nullable=True),
            ],
        )
        self.db.table("videos").create_index("owner_id")
        self.db.table("videos").create_index("status")
        self.db.create_table(
            "comments",
            [
                Column("id", "int"),
                Column("video_id", "int"),
                Column("user_id", "int"),
                Column("text", "str"),
                Column("time", "float"),
            ],
        )
        self.db.table("comments").create_index("video_id")
        self.db.create_table(
            "flags",
            [
                Column("id", "int"),
                Column("video_id", "int"),
                Column("user_id", "int"),
                Column("reason", "str"),
                Column("resolved", "bool"),
            ],
        )
        self.db.table("flags").create_index("video_id")

    # -- cost helpers ----------------------------------------------------------------

    def _guest_work(self, seconds: float, kind: WorkKind) -> Generator:
        """Generator: *seconds* of web-tier work, in the guest VM when present.

        The hypervisor's work keeps a process of its own; host work is a
        job on the web host's CPU server and starts none.
        """
        if (self.guest_vm is not None
                and self.guest_vm.state is VmState.RUNNING):
            host = self.guest_vm.hypervisor.host
            return (yield self.engine.process(
                self.guest_vm.run_work(seconds * host.cpu_hz, kind)))
        yield from self.cluster.host(self.web_host).compute_seconds(seconds)

    def _php(self) -> Generator:
        """One PHP page render worth of CPU on the web tier."""
        return self._guest_work(self.cluster.cal.web.php_page_cpu, WorkKind.CPU)

    def _db_cost(self, stats: QueryStats) -> float:
        web = self.cluster.cal.web
        if stats.used_index:
            return web.db_point_query_cpu + stats.rows_scanned * web.db_scan_cpu_per_row
        return stats.rows_scanned * web.db_scan_cpu_per_row + web.db_point_query_cpu

    def _charge_db(self, stats: QueryStats) -> Generator:
        # database work is I/O-heavy: full virtualization hurts it most
        return self._guest_work(self._db_cost(stats), WorkKind.IO)

    # -- graceful degradation ---------------------------------------------------------

    def attach_safemode(self, controller: SafeModeController) -> None:
        """Wire in a :class:`~repro.hdfs.admin.SafeModeController` so the
        portal can refuse uploads with a 503 while the NameNode recovers."""
        self.safemode = controller

    def degraded_reason(self) -> str | None:
        """Why write traffic should be refused right now, or None if healthy.

        The portal sheds *writes* (uploads) when the storage tier cannot
        durably accept them: NameNode in safe mode, or fewer live DataNodes
        than the replication factor.  Reads keep working.
        """
        if self.safemode is not None and self.safemode.active:
            return "namenode in safe mode"
        live = len(self.fs.namenode.live_datanodes())
        if live < self.fs.replication:
            return (f"only {live} live datanodes for "
                    f"replication factor {self.fs.replication}")
        return None

    def _refuse_degraded(self) -> None:
        reason = self.degraded_reason()
        if reason is not None:
            self.cluster.log.emit(
                "web.portal", "portal_degraded",
                f"upload refused: {reason}", reason=reason,
            )
            self.metrics.counter(
                "portal_degraded_total", "writes shed with a 503").inc()
            raise HttpError(503, f"service degraded: {reason}",
                            retry_after=self.RETRY_AFTER)

    # -- overload control -------------------------------------------------------------

    #: route pattern -> admission class; everything else is "search"
    ROUTE_CLASSES: dict[str, str] = {
        "/": "playback",
        "/video/<id>": "playback",
        "/search": "search",
        "/upload": "upload",
    }

    def enable_overload_control(
        self,
        *,
        capacity: int = 32,
        queue_capacity: int = 64,
        request_budget: float = 10.0,
        rate_limits: dict[tuple[str, str], float] | None = None,
    ) -> AdmissionController:
        """Turn on the portal's overload regime.

        Installs an :class:`~repro.resilience.AdmissionController` with the
        paper workload's priority order (``playback > search > upload >
        transcode``), stamps a *request_budget*-second
        :class:`~repro.resilience.Deadline` onto every request, and
        attaches per-route token buckets for *rate_limits* (``{(method,
        pattern): requests_per_second}``).  Excess traffic is refused with
        429/503 + ``Retry-After`` instead of queueing without bound.
        """
        controller = AdmissionController(
            self.engine, capacity=capacity, queue_capacity=queue_capacity,
            priorities=DEFAULT_PRIORITIES, name="portal",
            metrics=self.metrics)
        self.server.use_admission(controller, dict(self.ROUTE_CLASSES),
                                  default="search")
        self.server.request_budget = request_budget
        self.server.shed_retry_after = self.RETRY_AFTER
        for (method, pattern), rate in (rate_limits or {}).items():
            self.server.limit_route(method, pattern, rate=rate)
        return controller

    # -- replica pool (the reconciler's web scale-out path) ---------------------------

    def build_replica(self, host_name: str) -> WebServer:
        """A fresh web server on *host_name* serving this portal's routes.

        The replica shares the primary's route tables, admission
        controller, rate-limit buckets, and request budget, so every
        member of the pool enforces the same overload regime and serves
        against the same database/HDFS state.  Register the result with a
        :class:`~repro.web.loadbalancer.LoadBalancer`.
        """
        replica: WebServer
        if isinstance(self.server, ApachePrefork):
            replica = ApachePrefork(self.cluster, host_name)
        else:
            replica = Lighttpd(self.cluster, host_name)
        replica.routes = self.server.routes
        replica.patterns = self.server.patterns
        replica.rate_limits = self.server.rate_limits
        replica.admission = self.server.admission
        replica.route_class = self.server.route_class
        replica.default_class = self.server.default_class
        replica.request_budget = self.server.request_budget
        replica.shed_retry_after = self.server.shed_retry_after
        return replica

    # -- observability (the redesigned API surface) ---------------------------------

    def add_health_provider(self, layer: str,
                            probe: Callable[[], "str | None"]) -> None:
        """Register a per-layer probe: returns a degraded reason or None."""
        self.health_providers[layer] = probe

    def _transcode_health(self) -> str | None:
        live = [w for w in self.transcoder.workers
                if self.cluster.host(w).alive]
        if not live:
            return "no live transcode workers"
        return None

    def _handle_metrics(self, request: Request) -> Generator:
        def _h():
            # serving /metrics is cheap: no PHP, one registry walk
            yield from self._guest_work(
                self.cluster.cal.web.php_page_cpu / 10, WorkKind.CPU)
            text = self.metrics.render_prometheus()
            return Response(
                body={"page": "metrics", "text": text},
                body_bytes=len(text.encode("utf-8")),
                headers={"Content-Type": "text/plain; version=0.0.4"},
            )

        return _h()

    def _handle_healthz(self, request: Request) -> Generator:
        def _h():
            yield from self._guest_work(
                self.cluster.cal.web.php_page_cpu / 10, WorkKind.CPU)
            layers = {}
            degraded = []
            for layer, probe in sorted(self.health_providers.items()):
                reason = probe()
                layers[layer] = {
                    "status": "ok" if reason is None else "degraded",
                    "reason": reason,
                }
                if reason is not None:
                    degraded.append(layer)
            # "health" not "status": the uniform error body owns "status"
            body = {
                "page": "healthz",
                "health": "degraded" if degraded else "ok",
                "degraded_layers": degraded,
                "layers": layers,
            }
            if degraded:
                return Response.json_error(
                    f"degraded: {', '.join(degraded)}", status=503,
                    retry_after=self.RETRY_AFTER, **body)
            return Response.json_ok(body)

        return _h()

    # -- account flows (Figures 19-21) ------------------------------------------------

    def _handle_register(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            p = request.params
            try:
                user_id = self.auth.register(
                    p["username"], p["password"], p.get("display_name", p["username"]),
                    p["email"],
                )
            except KeyError as exc:
                raise HttpError(400, f"missing field {exc}") from None
            except AuthError as exc:
                raise HttpError(400, str(exc)) from None
            return Response(body={
                "page": "register",
                "message": "verification e-mail sent",
                "user_id": user_id,
            })

        return _h()

    def _handle_verify(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                user_id = self.auth.verify_email(request.params["token"])
            except AuthError as exc:
                raise HttpError(400, str(exc)) from None
            return Response(body={"page": "verify", "verified_user": user_id})

        return _h()

    def _handle_login(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                session = self.auth.login(
                    request.params["username"], request.params["password"]
                )
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            return Response(
                body={"page": "login", "welcome": request.params["username"]},
                set_session=session.token,
            )

        return _h()

    def _handle_logout(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                self.auth.logout(request.session_id or "")
            except AuthError as exc:
                raise HttpError(400, str(exc)) from None
            return Response(body={"page": "logout", "message": "goodbye"})

        return _h()

    # -- home + search (Figures 17-18) ---------------------------------------------------

    def _handle_home(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            stats = QueryStats()
            recent = self.db.table("videos").select(
                {"status": "published"}, order_by="upload_time",
                descending=True, limit=10, stats=stats,
            )
            yield from self._charge_db(stats)
            return Response(body={
                "page": "home",
                "search_box": True,
                "recent": [self._video_summary(v) for v in recent],
            })

        return _h()

    def _handle_search(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            q = request.params.get("q", "")
            try:
                page_num = int(request.params.get("page", 1))
                per_page = int(request.params.get("per_page", 10))
            except (TypeError, ValueError):
                raise HttpError(400, "page and per_page must be integers") from None
            if page_num < 1 or not 1 <= per_page <= 100:
                raise HttpError(400, "page must be >= 1, per_page in [1, 100]")
            yield self.engine.timeout(0.01)  # query cost (index in memory)
            with self.tracer.span("search.query", source="search", query=q):
                result_page = paginate(self.search.index, q, page=page_num,
                                       per_page=per_page)
            results = []
            for hit in result_page.hits:
                vid = int(hit.doc_id.removeprefix("video-"))
                stats = QueryStats()
                row = self.db.table("videos").get(vid, stats)
                yield from self._charge_db(stats)
                if row and row["status"] == "published":
                    results.append(dict(
                        self._video_summary(row),
                        score=hit.score,
                        snippet=highlight(hit.snippet, q),
                    ))
            did_you_mean = None
            if result_page.total_hits == 0:
                did_you_mean = suggest(self.search.index, q)
            return Response(body={
                "page": "search", "query": q, "results": results,
                "page_number": result_page.page,
                "total_pages": result_page.total_pages,
                "total_hits": result_page.total_hits,
                "did_you_mean": did_you_mean,
            })

        return _h()

    # -- upload (Figure 22) ------------------------------------------------------------------

    def upload_video(
        self,
        session_token: str,
        *,
        title: str,
        description: str,
        tags: str,
        media: VideoFile,
        deadline: Deadline | None = None,
    ) -> Generator:
        """Process: the full Figure 16 + 22 flow.

        Store the raw upload through the FUSE mount into HDFS, register the
        row, convert in parallel to the player format (H.264 720p FLV), and
        publish.  Returns the video id.  With a *deadline* the flow checks
        its budget before each expensive stage and stops
        (:class:`~repro.common.errors.DeadlineExceeded`) once the caller no
        longer wants the result.
        """

        def _check(stage: str) -> None:
            if deadline is not None:
                deadline.check(stage)

        def _flow():
            t0 = self.engine.now
            user = self.auth.require_user(session_token)
            if not user["verified"] or user["blocked"]:
                raise AuthError("account cannot upload")
            videos = self.db.table("videos")
            video_id = videos.insert(
                owner_id=user["id"], title=title, description=description,
                tags=tags, status="processing", duration=media.duration,
                views=0, upload_time=self.engine.now, hdfs_path=None,
            )
            # raw upload lands in HDFS through the mounted folder
            _check("raw upload to HDFS")
            raw_path = f"{self.UPLOAD_MOUNT}/raw/video-{video_id}.{media.container}"
            yield self.engine.process(self.mount.write_sized(raw_path, media.size))
            # distributed conversion into the whole quality ladder (Fig. 16);
            # the span wrapper also keeps the transcode spans parented here
            _check("transcode fan-out")
            reports = yield self.engine.process(self.tracer.trace(
                "portal.renditions",
                make_renditions(self.transcoder, media, self.ladder),
                rungs=len(self.ladder),
            ))
            client = self.fs.client(self.web_host)
            published: dict[str, VideoFile] = {}
            default_path = None
            for rung in self.ladder:
                _check(f"publishing {rung.name} rendition")
                out = reports[rung.name].output.with_name(
                    f"video-{video_id}-{rung.name}.flv")
                path = f"{self.PUBLISH_ROOT}/video-{video_id}-{rung.name}.flv"
                yield self.engine.process(client.write_synthetic(path, out.size))
                published[rung.name] = out
                if default_path is None:
                    default_path = path
            # poster thumbnail for the listing pages
            thumb = yield self.engine.process(extract_thumbnail(
                self.ffmpeg, self.cluster.host(self.web_host), media,
                at_time=media.duration / 2))
            self._thumbnails[video_id] = thumb
            videos.update(video_id, status="published", hdfs_path=default_path)
            self._renditions[video_id] = published
            self.cluster.log.emit(
                "web.portal", "video_published",
                f"video {video_id} '{title}' published at /video/{video_id}",
                video=video_id, title=title,
            )
            self._m_uploads.labels(outcome="published").inc()
            self._m_upload_seconds.observe(self.engine.now - t0)
            return video_id

        return self.tracer.trace("portal.upload", _flow(), source="web",
                                 title=title)

    def _handle_upload(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            self._refuse_degraded()
            p = request.params
            try:
                media = p["media"]
                video_id = yield self.engine.process(
                    self.upload_video(
                        request.session_id or "",
                        title=p["title"], description=p.get("description", ""),
                        tags=p.get("tags", ""), media=media,
                        deadline=request.deadline,
                    )
                )
            except KeyError as exc:
                raise HttpError(400, f"missing field {exc}") from None
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            except (SafeModeError, ReplicationError) as exc:
                # the storage tier degraded mid-upload: shed gracefully
                self.cluster.log.emit(
                    "web.portal", "portal_degraded",
                    f"upload aborted: {exc}", reason=str(exc),
                )
                self._m_uploads.labels(outcome="degraded").inc()
                self.metrics.counter(
                    "portal_degraded_total", "writes shed with a 503").inc()
                raise HttpError(503, f"service degraded: {exc}",
                                retry_after=self.RETRY_AFTER) from exc
            return Response.json_ok({
                "page": "upload",
                "video_id": video_id,
                "link": f"/video/{video_id}",   # the dynamic video link
            })

        return _h()

    # -- player page (Figure 23) -----------------------------------------------------------

    def _handle_video_page(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                video_id = int(request.params.get("id", -1))
            except (TypeError, ValueError):
                raise HttpError(400, "id must be an integer") from None
            stats = QueryStats()
            row = self.db.table("videos").get(video_id, stats)
            yield from self._charge_db(stats)
            if row is None or row["status"] != "published":
                raise HttpError(404, f"no video {video_id}")
            self.db.table("videos").update(video_id, views=row["views"] + 1)
            cstats = QueryStats()
            comments = self.db.table("comments").select(
                {"video_id": video_id}, order_by="time", stats=cstats
            )
            yield from self._charge_db(cstats)
            rendition = self.rendition(video_id)
            related = []
            doc_id = f"video-{video_id}"
            if doc_id in self.search.index.docs:
                for hit in more_like_this(self.search.index, doc_id, limit=4):
                    rel_id = int(hit.doc_id.removeprefix("video-"))
                    rel_row = self.db.table("videos").get(rel_id)
                    if rel_row and rel_row["status"] == "published":
                        related.append(self._video_summary(rel_row))
            return Response(body={
                "page": "player",
                "video": self._video_summary(row),
                "player": {
                    "format": f"{rendition.vcodec}/{rendition.container}",
                    "resolution": str(rendition.resolution),
                    "aspect": "16x9",
                    "seekable_time_bar": True,
                    "stream_url": f"/stream/video-{video_id}.flv",
                    "qualities": self.qualities(video_id),
                },
                "thumbnail": (self._thumbnails[video_id].name
                              if video_id in self._thumbnails else None),
                "comments": [
                    {"user": c["user_id"], "text": c["text"]} for c in comments
                ],
                "related": related,
                "share": self.share_links(video_id),
            })

        return _h()

    def rendition(self, video_id: int, quality: str | None = None) -> VideoFile:
        """The published VideoFile for one quality (default: best rung)."""
        rungs = self._renditions.get(video_id)
        if not rungs:
            raise WebError(f"video {video_id} is not published")
        if quality is None:
            quality = self.ladder[0].name
        if quality not in rungs:
            raise WebError(
                f"video {video_id}: no {quality} rendition "
                f"(have {sorted(rungs)})")
        return rungs[quality]

    def qualities(self, video_id: int) -> list[str]:
        return [r.name for r in self.ladder if r.name in
                self._renditions.get(video_id, {})]

    def thumbnail(self, video_id: int) -> Thumbnail | None:
        return self._thumbnails.get(video_id)

    def play(
        self,
        video_id: int,
        client_host: str,
        watch_plan: list[tuple[float, float]] | None = None,
        quality: str | None = None,
    ) -> PlaybackSession:
        """A Flowplayer session for *video_id* streamed to *client_host*."""
        rendition = self.rendition(video_id, quality)
        return PlaybackSession(self.streamer, client_host, rendition,
                               watch_plan=watch_plan)

    def share_links(self, video_id: int) -> dict[str, str]:
        """The social-network buttons of the paper's portal."""
        url = f"http://voc.example/video/{video_id}"
        return {
            "facebook": f"https://www.facebook.com/sharer.php?u={url}",
            "plurk": f"https://www.plurk.com/?qualifier=shares&status={url}",
            "twitter": f"https://twitter.com/intent/tweet?url={url}",
        }

    def _handle_feed(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            stats = QueryStats()
            recent = self.db.table("videos").select(
                {"status": "published"}, order_by="upload_time",
                descending=True, limit=20, stats=stats)
            yield from self._charge_db(stats)
            rows = []
            for v in recent:
                rows.append({"id": v["id"], "title": v["title"],
                             "description": v["description"]})
            xml = render_feed(rows)
            return Response(body={"page": "feed", "xml": xml,
                                  "items": len(rows)},
                            body_bytes=len(xml.encode("utf-8")))

        return _h()

    # -- self-service management (abstract: "edit or delete uploaded videos") ------

    def _handle_my_videos(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                user = self.auth.require_user(request.session_id)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            stats = QueryStats()
            rows = self.db.table("videos").select(
                {"owner_id": user["id"]}, order_by="upload_time",
                descending=True, stats=stats)
            yield from self._charge_db(stats)
            return Response(body={
                "page": "my_videos",
                "videos": [
                    dict(self._video_summary(r), status=r["status"])
                    for r in rows if r["status"] != "removed"
                ],
            })

        return _h()

    def _owned_video_or_403(self, request: Request) -> tuple[dict, dict]:
        user = self.auth.require_user(request.session_id)
        video_id = int(request.params["id"])
        row = self.db.table("videos").get(video_id)
        if row is None or row["status"] == "removed":
            raise HttpError(404, f"no video {video_id}")
        if row["owner_id"] != user["id"] and user["username"] not in self.admins:
            raise HttpError(403, "not your video")
        return user, row

    def _handle_edit(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                _, row = self._owned_video_or_403(request)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            changes = {
                k: request.params[k]
                for k in ("title", "description", "tags")
                if k in request.params
            }
            if not changes:
                raise HttpError(400, "nothing to edit")
            self.db.table("videos").update(row["id"], **changes)
            # stale search entry: drop it so the next re-crawl re-indexes
            self._unindex(row["id"])
            return Response(body={"page": "edit", "video_id": row["id"],
                                  "updated": sorted(changes)})

        return _h()

    def _handle_delete(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                _, row = self._owned_video_or_403(request)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            self._remove_video(row["id"])
            return Response(body={"page": "delete", "deleted": row["id"]})

        return _h()

    def _remove_video(self, video_id: int) -> None:
        """Shared teardown: db status, HDFS renditions, caches, index."""
        self.db.table("videos").update(video_id, status="removed")
        for path in self.fs.namenode.listdir(self.PUBLISH_ROOT):
            if path.startswith(f"{self.PUBLISH_ROOT}/video-{video_id}-"):
                self.fs.namenode.delete(path)
        self._renditions.pop(video_id, None)
        self._thumbnails.pop(video_id, None)
        self._unindex(video_id)

    def _unindex(self, video_id: int) -> None:
        """Drop a document from the live search index (re-crawl re-adds)."""
        doc_id = f"video-{video_id}"
        index = self.search.index
        if doc_id not in index.docs:
            return
        del index.docs[doc_id]
        for term in list(index.postings):
            index.postings[term] = [
                p for p in index.postings[term] if p.doc_id != doc_id]
            if not index.postings[term]:
                del index.postings[term]
        for key in list(index.field_lengths):
            if key[0] == doc_id:
                del index.field_lengths[key]

    # -- comments / flags / admin -----------------------------------------------------------

    def _handle_comment(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                user = self.auth.require_user(request.session_id)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            video_id = int(request.params["id"])
            if self.db.table("videos").get(video_id) is None:
                raise HttpError(404, f"no video {video_id}")
            cid = self.db.table("comments").insert(
                video_id=video_id, user_id=user["id"],
                text=request.params["text"], time=self.engine.now,
            )
            return Response(body={"page": "comment", "comment_id": cid})

        return _h()

    def _handle_flag(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                user = self.auth.require_user(request.session_id)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            video_id = int(request.params["id"])
            if self.db.table("videos").get(video_id) is None:
                raise HttpError(404, f"no video {video_id}")
            self.db.table("flags").insert(
                video_id=video_id, user_id=user["id"],
                reason=request.params.get("reason", "inappropriate"),
                resolved=False,
            )
            return Response(body={"page": "flag", "message": "report received"})

        return _h()

    def _require_admin(self, request: Request) -> dict:
        user = self.auth.require_user(request.session_id)
        if user["username"] not in self.admins:
            raise HttpError(403, "admin only")
        return user

    def _handle_admin(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                self._require_admin(request)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            stats = QueryStats()
            open_flags = self.db.table("flags").select(
                {"resolved": False}, stats=stats)
            yield from self._charge_db(stats)
            return Response(body={
                "page": "admin",
                "open_flags": [
                    {"flag_id": f["id"], "video_id": f["video_id"],
                     "reason": f["reason"]}
                    for f in open_flags
                ],
            })

        return _h()

    def _handle_admin_remove(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                self._require_admin(request)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            video_id = int(request.params["id"])
            row = self.db.table("videos").get(video_id)
            if row is None:
                raise HttpError(404, f"no video {video_id}")
            self._remove_video(video_id)
            for f in self.db.table("flags").select({"video_id": video_id}):
                self.db.table("flags").update(f["id"], resolved=True)
            return Response(body={"page": "admin", "removed": video_id})

        return _h()

    def _handle_admin_block(self, request: Request) -> Generator:
        def _h():
            yield from self._php()
            try:
                self._require_admin(request)
            except AuthError as exc:
                raise HttpError(403, str(exc)) from None
            user_id = int(request.params["user_id"])
            if not self.db.table("users").update(user_id, blocked=True):
                raise HttpError(404, f"no user {user_id}")
            # kill their sessions
            for token, s in list(self.auth.sessions.items()):
                if s.user_id == user_id:
                    del self.auth.sessions[token]
            return Response(body={"page": "admin", "blocked_user": user_id})

        return _h()

    # -- routing --------------------------------------------------------------------------

    def _register_routes(self) -> None:
        """The portal's REST surface.

        Canonical routes use path parameters; the query-param paths the
        paper's PHP pages used stay registered as aliases for one release
        (they serve identically but report under the canonical route label
        in ``web_requests_total``).
        """
        self.server.route("GET", "/", self._handle_home)
        self.server.route("GET", "/search", self._handle_search)
        self.server.route("GET", "/metrics", self._handle_metrics)
        self.server.route("GET", "/healthz", self._handle_healthz)
        self.server.route("POST", "/register", self._handle_register)
        self.server.route("POST", "/verify", self._handle_verify)
        self.server.route("POST", "/login", self._handle_login)
        self.server.route("POST", "/logout", self._handle_logout)
        self.server.route("POST", "/upload", self._handle_upload)
        self.server.route("GET", "/video/<id>", self._handle_video_page,
                          aliases=("/video",))
        self.server.route("GET", "/feed", self._handle_feed)
        self.server.route("GET", "/my_videos", self._handle_my_videos)
        self.server.route("POST", "/video/<id>/edit", self._handle_edit,
                          aliases=("/edit",))
        self.server.route("POST", "/video/<id>/delete", self._handle_delete,
                          aliases=("/delete",))
        self.server.route("POST", "/video/<id>/comment", self._handle_comment,
                          aliases=("/comment",))
        self.server.route("POST", "/video/<id>/flag", self._handle_flag,
                          aliases=("/flag",))
        self.server.route("GET", "/admin", self._handle_admin)
        self.server.route("POST", "/admin/video/<id>/remove",
                          self._handle_admin_remove,
                          aliases=("/admin/remove",))
        self.server.route("POST", "/admin/user/<user_id>/block",
                          self._handle_admin_block,
                          aliases=("/admin/block",))

    def request(self, method: str, path: str, *, params: dict | None = None,
                session: str | None = None, client_host: str | None = None) -> Generator:
        """Process: issue one HTTP request against the portal."""
        req = Request(
            method=method, path=path, params=params or {},
            client_host=client_host or self.web_host, session_id=session,
        )
        door = self.frontend if self.frontend is not None else self.server
        return door.handle(req)

    # -- the crawler's view (the portal is a Site) --------------------------------------------

    def seed_urls(self) -> list[str]:
        return ["/"]

    def fetch(self, url: str) -> Page:
        if url == "/":
            published = self.db.table("videos").select({"status": "published"})
            return Page("/", None, tuple(f"/video/{v['id']}" for v in published))
        if url.startswith("/video/"):
            video_id = int(url.removeprefix("/video/"))
            row = self.db.table("videos").get(video_id)
            if row is None or row["status"] != "published":
                return Page(url, None)
            owner = self.db.table("users").get(row["owner_id"])
            doc = Document(
                f"video-{video_id}",
                {
                    "title": row["title"],
                    "description": row["description"],
                    "tags": row["tags"],
                    "uploader": owner["display_name"] if owner else "",
                },
                {"views": row["views"], "duration": row["duration"]},
            )
            return Page(url, doc)
        return Page(url, None)

    # -- misc -----------------------------------------------------------------------------

    def _video_summary(self, row: dict[str, Any]) -> dict[str, Any]:
        return {
            "id": row["id"],
            "title": row["title"],
            "tags": row["tags"],
            "views": row["views"],
            "duration": row["duration"],
            "link": f"/video/{row['id']}",
        }

    def refresh_search_index(self, max_pages: int = 10_000) -> Generator:
        """Process: Nutch's periodic re-crawl of the portal."""
        return self.search.refresh(self, max_pages=max_pages)
