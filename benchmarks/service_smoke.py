"""Sweep-service smoke gate (``make service-smoke``).

Run with::

    PYTHONPATH=src python benchmarks/service_smoke.py

Checks, in order:

1. **serve == inline** — an in-process daemon on an ephemeral port runs
   a mini table6 sweep whose ``sweep_hash`` (and every per-cell
   canonical rows encoding) is byte-identical to an inline
   :func:`~repro.experiments.executor.run_sweep` of the same cells;
2. **warm hits** — resubmitting the same sweep is served entirely from
   the shared cache (0 recomputed cells, same hash);
3. **backpressure** — with the dispatcher paused and the queue full,
   ``POST /jobs`` answers 429 with a ``Retry-After`` hint, and every
   admitted job still completes once the dispatcher resumes;
4. **crash containment** — a cell that SIGKILLs its worker is reported
   as that cell's error outcome while the other cells of the same job
   complete; the persistent pool restarts and the next job still runs;
5. **daemon lifecycle** — the real CLI daemon (``python -m repro serve
   --port 0``) starts, serves a job over HTTP, and shuts down cleanly
   (exit code 0) on SIGTERM.

Exits non-zero on any violated check, so ``make service-smoke`` (wired
into ``make test``) gates regressions in the service layer.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import registry  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.executor import SweepCell, run_sweep  # noqa: E402
from repro.experiments.registry import canonical_json  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceBusy,
    ServiceClient,
    SweepService,
)

CRASH_EXPERIMENT = "service-smoke-crash"


@registry.register(CRASH_EXPERIMENT, "smoke-only: optionally kills its worker")
def _crash_cell(crash=False, value=1, seed=0):
    if crash:
        os.kill(os.getpid(), signal.SIGKILL)
    return [{"value": value, "seed": seed}]


def _mini_cells() -> list[SweepCell]:
    return [
        SweepCell.make("table6", {"batch": b}, seed=0) for b in (2, 4)
    ]


def check_serve_equals_inline(service: SweepService,
                              client: ServiceClient) -> None:
    """Submitted sweep must hash byte-identically to an inline run."""
    inline = run_sweep(_mini_cells(), jobs=1)
    assert inline.failed == 0
    status = client.submit_and_wait(
        experiment="table6", sweep={"batch": [2, 4]}, seeds=[0]
    )
    assert status["state"] == "done", f"job ended {status['state']}"
    assert status["cache"]["failures"] == 0
    assert status["sweep_hash"] == inline.sweep_hash, (
        f"served sweep hash {status['sweep_hash'][:12]} != inline "
        f"{inline.sweep_hash[:12]}"
    )
    results = client.results(status["id"])
    served_rows = [o["result"]["rows"] for o in results["outcomes"]]
    inline_rows = [o.result.rows for o in inline.outcomes]
    assert [canonical_json(r) for r in served_rows] == [
        canonical_json(r) for r in inline_rows
    ], "served rows are not byte-identical to inline rows"
    print(f"serve: daemon sweep == inline run_sweep "
          f"(hash {inline.sweep_hash[:12]})")


def check_warm_hits(client: ServiceClient) -> None:
    """The resubmitted sweep must be served entirely from cache."""
    status = client.submit_and_wait(
        experiment="table6", sweep={"batch": [2, 4]}, seeds=[0]
    )
    assert status["state"] == "done"
    cache = status["cache"]
    assert cache["hits"] == 2 and cache["misses"] == 0, (
        f"warm resubmit recomputed cells: {cache}"
    )
    print(f"warm: resubmit served {cache['hits']}/2 cells from cache in "
          f"{status['wall_seconds'] * 1e3:.1f} ms")


def check_backpressure(service: SweepService, client: ServiceClient) -> None:
    """A full queue must answer 429 + Retry-After, not block or grow."""
    service.pause()
    # The dispatcher may already be inside its (0.2s) dequeue wait when
    # pause lands; the queue is empty here, so outsleeping that wait
    # guarantees it is parked before the queue starts filling.
    time.sleep(0.35)
    try:
        held = [
            client.submit(experiment="table6", sweep={"batch": [2]})
            for _ in range(service.queue.depth)
        ]
        try:
            client.submit(experiment="table6", sweep={"batch": [2]})
        except ServiceBusy as exc:
            assert exc.retry_after > 0
            print(f"backpressure: 429 at depth {service.queue.depth} "
                  f"(Retry-After {exc.retry_after:g}s)")
        else:
            raise AssertionError(
                "submit beyond queue depth did not raise 429"
            )
    finally:
        service.resume()
    for job_id in held:
        assert client.wait(job_id, timeout=120.0)["state"] == "done"


def check_crash_containment(client: ServiceClient) -> None:
    """A worker-killing cell is one error outcome, not a lost job."""
    job_id = client.submit(cells=[
        {"experiment": CRASH_EXPERIMENT, "params": {"value": 1}},
        {"experiment": CRASH_EXPERIMENT, "params": {"crash": True}},
        {"experiment": CRASH_EXPERIMENT, "params": {"value": 3}},
    ])
    status = client.wait(job_id, timeout=120.0)
    assert status["state"] == "done", (
        f"crash job ended {status['state']}: {status.get('error')}"
    )
    errors = [o for o in status["outcomes"] if o["status"] == "error"]
    ok = [o for o in status["outcomes"] if o["error"] is None]
    assert len(errors) == 1 and "crash" in errors[0]["error"], (
        f"expected exactly the crashing cell as an error: {status['outcomes']}"
    )
    assert len(ok) == 2, f"healthy cells lost: {status['outcomes']}"
    health = client.healthz()
    assert health["pool_restarts"] >= 1, "pool did not report a restart"
    follow_up = client.submit_and_wait(
        experiment="table6", sweep={"batch": [2]}
    )
    assert follow_up["state"] == "done" and follow_up["cache"]["failures"] == 0
    print(f"crash: 1 error outcome, 2 cells survived, pool restarted "
          f"{health['pool_restarts']}x, next job clean")


def check_cli_daemon(tmp: str) -> None:
    """The real CLI daemon serves HTTP and dies cleanly on SIGTERM."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", "1", "--cache-dir", os.path.join(tmp, "cli-cache"),
            "--work-dir", os.path.join(tmp, "cli-work"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, f"bad banner: {banner!r}"
        url = banner.split("listening on ", 1)[1].split()[0]
        client = ServiceClient(url)
        assert client.healthz()["ok"]
        status = client.submit_and_wait(
            experiment="table6", sweep={"batch": [2]}
        )
        assert status["state"] == "done"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        rest = proc.stdout.read()
        assert code == 0, f"daemon exit code {code}: {rest}"
        assert "shut down cleanly" in rest, f"no clean-shutdown banner: {rest}"
        print(f"cli: 'repro serve' on {url} served a job and exited 0 "
              "on SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def main() -> int:
    """Run every check; return a process exit code."""
    t0 = time.perf_counter()
    registry.ensure_registered()
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        service = SweepService(
            port=0,
            jobs=2,
            queue_depth=2,
            cache_dir=os.path.join(tmp, "cache"),
            work_dir=os.path.join(tmp, "work"),
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            check_serve_equals_inline(service, client)
            check_warm_hits(client)
            check_backpressure(service, client)
            check_crash_containment(client)
        finally:
            service.close()
        check_cli_daemon(tmp)
    print(f"service-smoke OK in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
