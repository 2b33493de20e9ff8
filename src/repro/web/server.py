"""Web-server models: event-driven Lighttpd vs a preforking heavyweight.

"Comparing with other webpage servers, Lighttpd needs very little memory
and CPU resource to obtain the same efficiency" (Section IV).  Both models
serve the same handlers; they differ in per-request CPU overhead,
per-connection memory, and concurrency structure (event loop vs a worker
pool), which is exactly what bench E13 measures.

Routing supports path parameters (``/video/<id>``): a segment written as
``<name>`` matches any single path segment and lands in
``request.params[name]`` as a string.  Handlers can be registered with
:meth:`WebServer.route`, or with the decorator forms ``@server.get(...)``
and ``@server.post(...)``.  Every request is timed into the cluster's
metrics registry (``web_requests_total`` / ``web_request_seconds``,
labelled by route *pattern*, never raw path) and wrapped in a
``web.request`` span so cross-layer traces start at the front door.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from ..common.errors import (
    AdmissionShedError,
    DeadlineExceeded,
    HttpError,
    OverloadError,
    WebError,
)
from ..hardware import Cluster
from ..resilience import AdmissionController, Deadline, TokenBucket
from ..sim import Resource


def _mark_deprecated(response: "Response") -> None:
    """Stamp the RFC 8594-style deprecation headers on an alias response."""
    response.headers.setdefault("Deprecation", "true")
    response.headers.setdefault("Sunset", ALIAS_SUNSET)


def format_retry_after(seconds: float) -> str:
    """THE ``Retry-After`` value format: whole seconds, rounded up.

    Every 429/503/504 the stack emits goes through this one function (via
    :meth:`Response.json_error`), so clients always see the same shape.
    """
    return str(max(0, math.ceil(seconds)))


@dataclass
class Request:
    """One HTTP request."""

    method: str
    path: str
    params: dict[str, Any] = field(default_factory=dict)
    client_host: str = ""
    session_id: str | None = None
    #: time budget for serving this request; the server stamps one on
    #: when overload control is enabled and the client did not set one
    deadline: Deadline | None = None

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST"):
            raise HttpError(405, f"method {self.method} not allowed")


@dataclass
class Response:
    """One HTTP response."""

    status: int = 200
    body: dict[str, Any] = field(default_factory=dict)
    body_bytes: int = 8 * 1024        # size on the wire
    set_session: str | None = None
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    # -- uniform construction (the whole API returns these shapes) -----------

    @classmethod
    def json_ok(cls, body: dict[str, Any] | None = None, *, status: int = 200,
                headers: dict[str, str] | None = None,
                **extra: Any) -> "Response":
        """A success response; keyword extras merge into the body."""
        if not 200 <= status < 300:
            raise WebError(f"json_ok with non-2xx status {status}")
        merged = dict(body or {})
        merged.update(extra)
        return cls(status=status, body=merged, headers=dict(headers or {}))

    @classmethod
    def json_error(cls, message: str, *, status: int,
                   headers: dict[str, str] | None = None,
                   retry_after: float | None = None,
                   **extra: Any) -> "Response":
        """The one error shape every endpoint returns:
        ``{"error": message, "status": status, ...extra}``.

        *retry_after* is the single code path that formats a
        ``Retry-After`` header -- graceful-degradation 503s, rate-limit
        429s, and deadline 504s all come through here.
        """
        if status < 400:
            raise WebError(f"json_error with non-error status {status}")
        body = {"error": message, "status": status}
        body.update(extra)
        merged = dict(headers or {})
        if retry_after is not None:
            merged.setdefault("Retry-After", format_retry_after(retry_after))
        return cls(status=status, body=body, headers=merged)

    @classmethod
    def from_http_error(cls, exc: HttpError) -> "Response":
        return cls.json_error(str(exc), status=exc.status,
                              headers=dict(exc.headers),
                              retry_after=exc.retry_after)


#: a handler is a *generator function* (request) -> yields sim events,
#: returns a Response
Handler = Callable[[Request], Generator]

#: responses served via a deprecated ``alias_of`` route carry
#: ``Deprecation: true`` plus this ``Sunset`` deadline; the aliases are
#: removed after the window documented in README "Route alias deprecation"
ALIAS_SUNSET = "Tue, 01 Dec 2026 00:00:00 GMT"

#: bound on the memoised resolve cache (cleared wholesale when exceeded)
_RESOLVE_CACHE_MAX = 4096

#: cache-miss sentinel (None is a legitimate cached 404)
_UNRESOLVED: Any = object()


@dataclass(frozen=True)
class Route:
    """One compiled route pattern.

    ``compile_route`` pre-splits the pattern into positional literal
    checks and parameter slots so :meth:`match` is a couple of index
    comparisons instead of re-parsing ``<name>`` markers per request.
    """

    method: str
    pattern: str
    handler: Handler
    segments: tuple[str, ...]          # literal text or "<name>"
    param_names: tuple[str, ...]
    alias_of: str | None = None        # deprecated path kept for one release
    #: compiled form: (index, literal text) pairs that must match exactly
    literal_slots: tuple[tuple[int, str], ...] = ()
    #: compiled form: (index, parameter name) pairs to extract
    param_slots: tuple[tuple[int, str], ...] = ()
    #: number of non-empty path segments the pattern expects
    n_parts: int = 0

    def match(self, path: str) -> dict[str, str] | None:
        parts = [p for p in path.split("/") if p]
        if len(parts) != self.n_parts:
            return None
        for i, text in self.literal_slots:
            if parts[i] != text:
                return None
        return {name: parts[i] for i, name in self.param_slots}


def compile_route(method: str, pattern: str, handler: Handler,
                  alias_of: str | None = None) -> Route:
    if not pattern.startswith("/"):
        raise WebError(f"route pattern {pattern!r} must start with '/'")
    segments = tuple(pattern.split("/"))
    names: list[str] = []
    literal_slots: list[tuple[int, str]] = []
    param_slots: list[tuple[int, str]] = []
    index = 0
    for seg in segments:
        if seg == "":
            continue
        if seg.startswith("<") and seg.endswith(">"):
            name = seg[1:-1]
            if not name.isidentifier():
                raise WebError(f"bad path parameter {seg!r} in {pattern!r}")
            if name in names:
                raise WebError(f"duplicate path parameter {seg!r} in {pattern!r}")
            names.append(name)
            param_slots.append((index, name))
        elif "<" in seg or ">" in seg:
            raise WebError(f"malformed segment {seg!r} in {pattern!r}")
        else:
            literal_slots.append((index, seg))
        index += 1
    return Route(method=method, pattern=pattern, handler=handler,
                 segments=segments, param_names=tuple(names),
                 alias_of=alias_of, literal_slots=tuple(literal_slots),
                 param_slots=tuple(param_slots), n_parts=index)


@dataclass
class ServerStats:
    requests: int = 0
    errors: int = 0
    shed: int = 0                     # refused by overload control (429/503)
    bytes_sent: int = 0
    peak_connections: int = 0
    cpu_seconds: float = 0.0

    def memory_footprint(self, conn_memory: int, base: int) -> int:
        return base + self.peak_connections * conn_memory


class WebServer:
    """Base server: routes, connection slots, request accounting."""

    #: subclass knobs
    kind = "generic"
    request_cpu = 0.0005
    conn_memory = 1 * 1024 * 1024
    base_memory = 4 * 1024 * 1024
    max_connections = 256

    def __init__(self, cluster: Cluster, host_name: str) -> None:
        if host_name not in cluster.host_names:
            raise WebError(f"server host {host_name} not in cluster")
        self.cluster = cluster
        self.host = cluster.host(host_name)
        self.engine = cluster.engine
        self.tracer = cluster.tracer
        self.routes: dict[tuple[str, str], Route] = {}   # exact-path fast table
        self.patterns: list[Route] = []                  # parameterised routes
        #: memoised resolve() results, (method, path) -> (route, params)|None;
        #: cleared on registration, size-bounded against path-cardinality blowup
        self._resolve_cache: dict[tuple[str, str],
                                  tuple[Route, dict[str, str]] | None] = {}
        self.stats = ServerStats()
        self._conns = Resource(self.engine, capacity=self.max_connections)
        metrics = cluster.metrics
        self._m_requests = metrics.counter(
            "web_requests_total", "HTTP requests served",
            labels=("method", "route", "status"))
        self._m_latency = metrics.histogram(
            "web_request_seconds", "end-to-end request latency",
            labels=("route",))
        self._m_conns = metrics.gauge(
            "web_connections", "connections currently held", labels=("host",))
        self._m_bytes = metrics.counter(
            "web_bytes_sent_total", "response bytes shipped to clients")
        self._m_rate_limited = metrics.counter(
            "web_rate_limited_total",
            "requests refused 429 by a per-route token bucket",
            labels=("route",))
        self._m_deadline_remaining = metrics.histogram(
            "web_deadline_remaining_seconds",
            "request budget left when the response shipped")
        #: overload control (all optional; see enable_* / limit_route)
        self.rate_limits: dict[tuple[str, str], TokenBucket] = {}
        self.admission: AdmissionController | None = None
        self.route_class: dict[str, str] = {}
        self.default_class: str = "search"
        self.request_budget: float | None = None
        self.shed_retry_after: float = 5.0

    # -- overload control -------------------------------------------------------

    def limit_route(self, method: str, pattern: str, *, rate: float,
                    burst: float | None = None) -> TokenBucket:
        """Attach a token bucket to one route: excess traffic gets 429 +
        ``Retry-After`` instead of a queue slot.  *burst* defaults to one
        second's worth of tokens."""
        bucket = TokenBucket(
            f"{method} {pattern}", lambda: self.engine.now,
            rate=rate, capacity=burst if burst is not None else max(1.0, rate),
            metrics=self.cluster.metrics)
        self.rate_limits[(method, pattern)] = bucket
        return bucket

    def use_admission(self, controller: AdmissionController,
                      route_class: dict[str, str] | None = None,
                      *, default: str = "search") -> None:
        """Gate requests through *controller*; *route_class* maps route
        patterns to its priority classes (unlisted routes get *default*)."""
        controller.rank(default)  # validate
        for kind in (route_class or {}).values():
            controller.rank(kind)
        self.admission = controller
        self.route_class = dict(route_class or {})
        self.default_class = default

    # -- registration ----------------------------------------------------------

    def route(self, method: str, pattern: str, handler: Handler,
              *, aliases: tuple[str, ...] = (),
              alias_of: str | None = None) -> Route:
        """Register *handler* at *pattern* (may contain ``<name>`` segments).

        *aliases* registers the same handler at additional (legacy) paths;
        they match normally but are tagged with the canonical pattern so
        callers can tell deprecated traffic apart in the metrics.
        """
        compiled = compile_route(method, pattern, handler, alias_of=alias_of)
        if compiled.param_names:
            self.patterns.append(compiled)
        else:
            self.routes[(method, pattern)] = compiled
        self._resolve_cache.clear()
        for alias in aliases:
            self.route(method, alias, handler, alias_of=pattern)
        return compiled

    def get(self, pattern: str, *, aliases: tuple[str, ...] = (),
            ) -> Callable[[Handler], Handler]:
        """Decorator form: ``@server.get("/video/<id>")``."""
        def _register(handler: Handler) -> Handler:
            self.route("GET", pattern, handler, aliases=aliases)
            return handler
        return _register

    def post(self, pattern: str, *, aliases: tuple[str, ...] = (),
             ) -> Callable[[Handler], Handler]:
        """Decorator form: ``@server.post("/upload")``."""
        def _register(handler: Handler) -> Handler:
            self.route("POST", pattern, handler, aliases=aliases)
            return handler
        return _register

    def resolve(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        """The matching route + extracted path params, or HttpError(404).

        Results (including misses) are memoised per ``(method, path)``;
        callers must treat the returned params mapping as read-only.
        """
        cache = self._resolve_cache
        key = (method, path)
        hit = cache.get(key, _UNRESOLVED)
        if hit is not _UNRESOLVED:
            if hit is None:
                raise HttpError(404, f"no route {method} {path}")
            return hit
        if len(cache) >= _RESOLVE_CACHE_MAX:
            cache.clear()
        exact = self.routes.get(key)
        if exact is not None:
            cache[key] = (exact, {})
            return exact, {}
        for route in self.patterns:
            if route.method != method:
                continue
            params = route.match(path)
            if params is not None:
                cache[key] = (route, params)
                return route, params
        cache[key] = None
        raise HttpError(404, f"no route {method} {path}")

    # -- serving ------------------------------------------------------------------

    def handle(self, request: Request) -> Generator:
        """Process: serve one request end-to-end; returns the Response.

        Overload control happens at the front door, *before* a connection
        slot is taken: a route's token bucket can refuse with 429, and the
        admission controller can shed with 503 -- both carry ``Retry-After``
        and cost the server (almost) nothing, which is the point.
        """

        def _serve():
            t0 = self.engine.now
            route_label = request.path
            # cheap pre-resolution so shedding decisions know the route;
            # unmatched paths fall through to the normal 404 path below
            route: Route | None = None
            try:
                route, _ = self.resolve(request.method, request.path)
            except HttpError:
                pass
            if route is not None:
                if self.request_budget is not None and request.deadline is None:
                    request.deadline = Deadline.after(
                        self.engine, self.request_budget,
                        label=f"{request.method} {route.alias_of or route.pattern}")
                shed = yield from self._front_door(request, route)
                if shed is not None:
                    if route.alias_of is not None:
                        _mark_deprecated(shed)
                    # t0 is the arrival timestamp the latency math needs
                    return self._finish_shed(request, shed, t0,  # repro: allow[RACE03]
                                             route.alias_of or route.pattern)
            kind = self._admitted_kind(route)
            try:
                response, route_label = yield from self._serve_inner(
                    request, t0, route_label)  # repro: allow[RACE03]
            finally:
                if kind is not None:
                    self.admission.leave(kind)
            self._m_requests.labels(
                method=request.method, route=route_label,
                status=str(response.status)).inc()
            self._m_latency.labels(route=route_label).observe(
                self.engine.now - t0)
            if request.deadline is not None:
                self._m_deadline_remaining.observe(request.deadline.remaining())
            return response

        return _serve()

    def _front_door(self, request: Request, route: Route) -> Generator:
        """Overload gate: returns a shed Response, or None when admitted."""
        pattern = route.alias_of or route.pattern
        bucket = self.rate_limits.get((route.method, route.pattern)) \
            or self.rate_limits.get((route.method, pattern))
        if bucket is not None and not bucket.try_acquire():
            self._m_rate_limited.labels(route=pattern).inc()
            return Response.json_error(
                f"rate limited: {request.method} {pattern}", status=429,
                retry_after=bucket.retry_after())
        if self.admission is not None:
            kind = self.route_class.get(pattern, self.default_class)
            try:
                yield self.admission.enter(kind)
            except AdmissionShedError as exc:
                return Response.json_error(
                    str(exc), status=503, retry_after=self.shed_retry_after)
        return None

    def _admitted_kind(self, route: Route | None) -> str | None:
        """The admission class holding a slot for *route* (None = no slot)."""
        if self.admission is None or route is None:
            return None
        return self.route_class.get(route.alias_of or route.pattern,
                                    self.default_class)

    def _finish_shed(self, request: Request, response: Response,
                     t0: float, route_label: str) -> Response:
        """Account a refused request (no connection slot was ever held)."""
        self.stats.requests += 1
        self.stats.errors += 1
        self.stats.shed += 1
        self._m_requests.labels(
            method=request.method, route=route_label,
            status=str(response.status)).inc()
        self._m_latency.labels(route=route_label).observe(self.engine.now - t0)
        return response

    def _serve_inner(self, request: Request, t0: float,
                     route_label: str) -> Generator:
        """The classic serve path: connection slot, CPU, handler, ship."""
        with self._conns.request() as slot:
            yield slot
            self._m_conns.labels(host=self.host.name).set(self._conns.count)
            self.stats.peak_connections = max(
                self.stats.peak_connections, self._conns.count
            )
            # server front-end overhead (parse, route, I/O multiplexing)
            yield from self.host.compute_seconds(self.request_cpu)
            self.stats.cpu_seconds += self.request_cpu
            deprecated = False
            try:
                try:
                    route, path_params = self.resolve(
                        request.method, request.path)
                except HttpError:
                    # unmatched paths share one label (bounded cardinality)
                    route_label = "<unmatched>"
                    raise
                route_label = route.alias_of or route.pattern
                deprecated = route.alias_of is not None
                for name, value in path_params.items():
                    request.params.setdefault(name, value)
                if request.deadline is not None:
                    request.deadline.check(f"serving {route_label}")
                response = yield self.engine.process(self.tracer.trace(
                    "web.request", route.handler(request), source="web",
                    route=route_label, method=request.method,
                ))
            except DeadlineExceeded as exc:
                response = Response.json_error(str(exc), status=504)
                self.stats.shed += 1
            except OverloadError as exc:
                # a downstream layer (breaker, bucket, queue) refused
                response = Response.json_error(
                    str(exc), status=503,
                    retry_after=getattr(exc, "retry_after", None)
                    or self.shed_retry_after)
                self.stats.shed += 1
            except HttpError as exc:
                response = Response.from_http_error(exc)
            if deprecated:
                _mark_deprecated(response)
            self.stats.requests += 1
            if not response.ok:
                self.stats.errors += 1
            # ship the response body to the client
            if request.client_host and request.client_host != self.host.name:
                yield self.cluster.network.transfer(
                    self.host.name, request.client_host, response.body_bytes
                )
            self.stats.bytes_sent += response.body_bytes
            self._m_bytes.inc(response.body_bytes)
        self._m_conns.labels(host=self.host.name).set(self._conns.count)
        return response, route_label

    def memory_footprint(self) -> int:
        return self.stats.memory_footprint(self.conn_memory, self.base_memory)


class Lighttpd(WebServer):
    """Single event loop: tiny per-connection state, low per-request CPU."""

    kind = "lighttpd"

    def __init__(self, cluster: Cluster, host_name: str) -> None:
        web = cluster.cal.web
        self.request_cpu = web.lighttpd_request_cpu
        self.conn_memory = web.lighttpd_conn_memory
        self.base_memory = 3 * 1024 * 1024
        self.max_connections = 1024
        super().__init__(cluster, host_name)


class ApachePrefork(WebServer):
    """A worker-pool server: one heavy process per connection."""

    kind = "apache-prefork"

    def __init__(self, cluster: Cluster, host_name: str, workers: int = 64) -> None:
        web = cluster.cal.web
        self.request_cpu = web.apache_prefork_request_cpu
        self.conn_memory = web.apache_prefork_conn_memory
        self.base_memory = 32 * 1024 * 1024
        self.max_connections = workers
        super().__init__(cluster, host_name)
