"""The sweep daemon: a long-running HTTP/JSON job API over the executor.

:class:`SweepService` glues together everything PR 4 built — the typed
registry, the content-addressed :class:`~repro.experiments.cache
.ResultCache`, and the crash-surviving parallel executor — behind a
stdlib :class:`http.server.ThreadingHTTPServer`:

* ``POST /jobs`` — submit a sweep spec (see
  :mod:`repro.service.protocol`); returns ``202`` with a job id, or
  ``429`` + ``Retry-After`` when the bounded queue is full;
* ``GET /jobs/<id>`` — lifecycle + per-cell outcomes and cache stats;
* ``GET /jobs/<id>/results`` — canonical per-cell
  :class:`~repro.experiments.registry.ExperimentResult` JSON (``409``
  until the job finishes);
* ``GET /jobs/<id>/trace`` — the merged Chrome trace of a
  ``profile: true`` job;
* ``GET /healthz`` / ``GET /stats`` — liveness and service counters.

Jobs are scheduled strictly FIFO by a single dispatcher thread onto one
persistent :class:`~repro.experiments.executor.WorkerPool` shared across
jobs — warm workers, and the shared cache acts as a cross-client result
CDN: two clients submitting overlapping sweeps compute each cell once.
A crashed worker (OOM, segfault) is confined to its cell outcome and
the pool is rebuilt; the job, the queue, and the daemon all survive.

Run it as ``python -m repro serve --port 8731 --jobs 4``; drive it with
:class:`repro.service.client.ServiceClient` or ``repro submit`` /
``repro poll``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.experiments.cache import ResultCache
from repro.experiments.executor import WorkerPool, run_sweep
from repro.obs import Metrics
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    QueueFull,
)
from repro.service.protocol import SpecError, parse_sweep_spec

__all__ = ["SweepService", "ServiceConfig"]

#: How long a rejected client should wait before retrying (seconds).
DEFAULT_RETRY_AFTER = 1.0

#: Finished jobs retained in memory for status/results polling.
DEFAULT_RETENTION = 512


class ServiceConfig:
    """Construction-time knobs of a :class:`SweepService`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 2,
        queue_depth: int = 16,
        cache_dir: str | None = None,
        no_cache: bool = False,
        work_dir: str | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        retention: int = DEFAULT_RETENTION,
    ):
        self.host = host
        self.port = port
        self.jobs = max(1, int(jobs))
        self.queue_depth = max(1, int(queue_depth))
        self.cache_dir = cache_dir
        self.no_cache = no_cache
        self.work_dir = work_dir
        self.retry_after = retry_after
        self.retention = max(1, int(retention))


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning :class:`SweepService`."""

    #: Quieter than the BaseHTTPRequestHandler default (stderr per hit).
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib override
        pass

    @property
    def service(self) -> "SweepService":
        return self.server.sweep_service  # type: ignore[attr-defined]

    # -- helpers -----------------------------------------------------------
    def _send_json(self, status: int, body: dict, headers=None) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    # -- routes ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no such route {self.path!r}"})
            return
        payload = self._read_json()
        if payload is None:
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        try:
            job = self.service.submit_payload(payload)
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except QueueFull as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        self._send_json(
            202,
            {
                "id": job.id,
                "state": job.state,
                "cells": len(job.cells),
                "status_url": f"/jobs/{job.id}",
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, self.service.healthz_dict())
        elif parts == ["stats"]:
            self._send_json(200, self.service.stats_dict())
        elif len(parts) >= 2 and parts[0] == "jobs":
            self._get_job(parts[1], parts[2] if len(parts) > 2 else None)
        else:
            self._send_json(404, {"error": f"no such route {self.path!r}"})

    def _get_job(self, job_id: str, sub: str | None) -> None:
        job = self.service.get_job(job_id)
        if job is None:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
            return
        with self.service.job_lock:
            state = job.state
            if sub is None:
                self._send_json(200, job.status_dict())
                return
            if state not in (DONE, FAILED):
                self._send_json(
                    409,
                    {
                        "error": f"job {job_id} is {state}; results are "
                        "available once it is done",
                        "state": state,
                    },
                )
                return
            if state == FAILED:
                self._send_json(
                    500, {"error": job.error or "job failed", "state": state}
                )
                return
            if sub == "results":
                self._send_json(200, job.results_dict())
                return
            trace_path = job.trace_path
        if sub == "trace":
            if trace_path is None or not os.path.exists(trace_path):
                self._send_json(
                    404,
                    {
                        "error": f"job {job_id} has no trace (submit with "
                        '"profile": true)'
                    },
                )
                return
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            self._send_json(200, trace)
            return
        self._send_json(404, {"error": f"no such job view {sub!r}"})


class SweepService:
    """The daemon: HTTP front end, FIFO scheduler, persistent workers.

    Everything is in-process and stdlib-only: a
    :class:`~http.server.ThreadingHTTPServer` accepts requests on its
    own threads, a single dispatcher thread drains the bounded
    :class:`~repro.service.jobs.JobQueue` in FIFO order, and each job's
    cells fan out across the shared
    :class:`~repro.experiments.executor.WorkerPool`.  Construct, call
    :meth:`start`, and :meth:`close` when done (both idempotent);
    the instance is also a context manager.
    """

    def __init__(self, config: ServiceConfig | None = None, **kwargs):
        self.config = config or ServiceConfig(**kwargs)
        cfg = self.config
        self.cache: ResultCache | None = None
        if not cfg.no_cache:
            self.cache = (
                ResultCache(root=cfg.cache_dir) if cfg.cache_dir
                else ResultCache()
            )
            # Startup sweep: reclaim tmp orphans left by workers killed
            # mid-write in earlier runs (nothing else is writing yet).
            self.orphans_removed = self.cache.remove_orphans()
        else:
            self.orphans_removed = 0
        self._own_work_dir = cfg.work_dir is None
        self.work_dir = cfg.work_dir or tempfile.mkdtemp(prefix="repro-svc-")
        os.makedirs(self.work_dir, exist_ok=True)
        self.pool = WorkerPool(cfg.jobs)
        self.queue = JobQueue(cfg.queue_depth, retry_after=cfg.retry_after)
        self.metrics = Metrics()
        self.job_lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._counter = 0
        self._started_at = time.time()
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._httpd = ThreadingHTTPServer((cfg.host, cfg.port), _Handler)
        self._httpd.sweep_service = self  # type: ignore[attr-defined]
        self._http_thread: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` ephemeral binds)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "SweepService":
        """Start the HTTP listener and the FIFO dispatcher."""
        if self._http_thread is not None:
            return self
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """Stop accepting, drain nothing, shut the pool down (idempotent)."""
        self._stop.set()
        self._resume.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        self.pool.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def pause(self) -> None:
        """Hold the dispatcher before its next job (tests/backpressure)."""
        self._resume.clear()

    def resume(self) -> None:
        """Release a :meth:`pause`."""
        self._resume.set()

    # -- submission --------------------------------------------------------
    def submit_payload(self, payload) -> Job:
        """Validate a raw ``POST /jobs`` body and enqueue it.

        Raises :class:`~repro.service.protocol.SpecError` (400) or
        :class:`~repro.service.jobs.QueueFull` (429).
        """
        cells, options = parse_sweep_spec(payload)
        return self.submit(
            cells,
            base_seed=options.base_seed,
            no_cache=options.no_cache,
            profile=options.profile,
        )

    def submit(
        self,
        cells,
        base_seed: int = 0,
        no_cache: bool = False,
        profile: bool = False,
    ) -> Job:
        """Enqueue a validated cell list as a new FIFO job."""
        from repro.experiments.registry import content_hash

        with self.job_lock:
            self._counter += 1
            spec_hash = content_hash(
                [(c.experiment, c.params, c.seed) for c in cells]
            )
            job = Job(
                id=f"j{self._counter:05d}-{spec_hash[:8]}",
                cells=list(cells),
                base_seed=base_seed,
                no_cache=no_cache or self.cache is None,
                profile=profile,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._evict_old()
        try:
            self.queue.submit(job)
        except QueueFull:
            with self.job_lock:
                self._jobs.pop(job.id, None)
                if job.id in self._order:
                    self._order.remove(job.id)
            self.metrics.counter("service.jobs.rejected").inc()
            raise
        self.metrics.counter("service.jobs.submitted").inc()
        self.metrics.gauge("service.queue.depth").set(len(self.queue))
        return job

    def get_job(self, job_id: str) -> Job | None:
        """Look a job up by id (``None`` when unknown or evicted)."""
        with self.job_lock:
            return self._jobs.get(job_id)

    def _evict_old(self) -> None:
        """Drop the oldest *finished* jobs beyond the retention cap."""
        while len(self._order) > self.config.retention:
            for i, job_id in enumerate(self._order):
                job = self._jobs.get(job_id)
                if job is not None and job.state in (DONE, FAILED):
                    del self._order[i]
                    del self._jobs[job_id]
                    break
            else:
                return  # everything retained is still queued/running

    # -- execution ---------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._resume.wait()
            if self._stop.is_set():
                return
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            self.metrics.gauge("service.queue.depth").set(len(self.queue))
            self._execute(job)

    def _execute(self, job: Job) -> None:
        with self.job_lock:
            job.state = RUNNING
            job.started_at = time.time()
        profile_dir = None
        if job.profile:
            profile_dir = os.path.join(self.work_dir, job.id)
        t0 = time.perf_counter()
        try:
            report = run_sweep(
                job.cells,
                jobs=self.config.jobs,
                base_seed=job.base_seed,
                cache=None if job.no_cache else self.cache,
                profile_dir=profile_dir,
                pool=self.pool,
            )
        except Exception as exc:  # the sweep itself failed to run
            with self.job_lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
            self.metrics.counter("service.jobs.failed").inc()
            return
        wall = time.perf_counter() - t0
        with self.job_lock:
            job.report = report
            job.trace_path = report.trace_path
            job.state = DONE
            job.finished_at = time.time()
        m = self.metrics
        m.counter("service.jobs.done").inc()
        m.counter("service.cells.hits").inc(report.cache_hits)
        m.counter("service.cells.misses").inc(report.cache_misses)
        m.counter("service.cells.failures").inc(report.failed)
        m.sample("service.job.seconds", time.time(), wall)
        if report.cache_hits == len(job.cells) and job.cells:
            # a fully warm job: its wall time IS the cache-hit latency
            m.sample("service.cache_hit.seconds", time.time(), wall)
            latencies = [v for _, v in m.series("service.cache_hit.seconds")]
            m.gauge("service.cache_hit.last_seconds").set(latencies[-1])

    # -- introspection -----------------------------------------------------
    def healthz_dict(self) -> dict:
        """The ``GET /healthz`` body."""
        return {
            "ok": True,
            "uptime_seconds": time.time() - self._started_at,
            "workers": self.config.jobs,
            "pool_restarts": self.pool.restarts,
        }

    def stats_dict(self) -> dict:
        """The ``GET /stats`` body: queue, jobs, cells, cache, latency."""
        m = self.metrics
        uptime = max(time.time() - self._started_at, 1e-9)
        done = m.value("service.jobs.done")
        hit_latencies = [
            v for _, v in m.series("service.cache_hit.seconds")
        ]
        with self.job_lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        body = {
            "uptime_seconds": uptime,
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.depth,
                "rejected": self.queue.rejected,
            },
            "jobs": {
                "submitted": m.value("service.jobs.submitted"),
                "done": done,
                "failed": m.value("service.jobs.failed"),
                "per_second": done / uptime,
                "states": states,
            },
            "cells": {
                "hits": m.value("service.cells.hits"),
                "misses": m.value("service.cells.misses"),
                "failures": m.value("service.cells.failures"),
            },
            "cache_hit_latency": {
                "jobs": len(hit_latencies),
                "last_seconds": hit_latencies[-1] if hit_latencies else None,
                "mean_seconds": (
                    sum(hit_latencies) / len(hit_latencies)
                    if hit_latencies
                    else None
                ),
            },
            "pool": {
                "workers": self.config.jobs,
                "restarts": self.pool.restarts,
            },
            "orphans_removed_at_startup": self.orphans_removed,
        }
        if self.cache is not None:
            body["cache"] = self.cache.stats.as_dict()
        return body
