"""Command-line interface: regenerate any paper table or figure.

Everything routes through the experiment registry
(:mod:`repro.experiments.registry`) — the CLI has no per-experiment
wrappers, so a newly registered experiment is immediately reachable
here, in sweeps, and in reports.

Usage::

    python -m repro list                     # the experiment index
    python -m repro run fig10                # one experiment (cached)
    python -m repro run fig13 --set total_steps=60 --seed 1 --no-cache
    python -m repro sweep fig12 --set batch_sizes=4,8 --jobs 4
    python -m repro sweep table6 --set batch=2,4,8 --seeds 0,1 --jobs 4
    python -m repro all --jobs 4             # every experiment, paper order
    python -m repro report --out results
    python -m repro table1                   # legacy alias for 'run table1'
    python -m repro checkpoint --ckpt run.ckpt --steps 40
    python -m repro resume --ckpt run.ckpt --steps 40
    python -m repro verify-resume            # bit-exact resume-equivalence
    python -m repro trace fig10 --out trace.json   # Chrome/Perfetto trace
    python -m repro serve --port 8731 --jobs 4     # the sweep daemon
    python -m repro submit table6 --set batch=2,4 --seeds 0,1 --wait
    python -m repro poll j00001-ab12cd34 --results out.json
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import registry
from repro.experiments.report import DEFAULT_REPORT_EXPERIMENTS

__all__ = ["main"]


def _make_cache(args):
    """The result cache implied by ``--no-cache`` / ``--cache-dir``."""
    from repro.experiments.cache import ResultCache

    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache_dir", None)
    return ResultCache(root=root) if root else ResultCache()


def _parse_sets(spec, assignments):
    """Parse repeated ``--set key=value`` into typed param overrides."""
    params = {}
    for text in assignments or []:
        if "=" not in text:
            raise SystemExit(f"--set expects key=value, got {text!r}")
        key, value = text.split("=", 1)
        params[key] = spec.coerce_param(key, value)
    return params


def _cmd_list(args) -> int:
    registry.ensure_registered()
    specs = registry.all_specs()
    if args.tag:
        specs = [s for s in specs if args.tag in s.tags]
    width = max(len(s.name) for s in specs) if specs else 0
    for spec in specs:
        tags = f" [{','.join(spec.tags)}]" if args.verbose else ""
        print(f"{spec.name.ljust(width)}  {spec.description}{tags}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.registry import RunContext

    spec = registry.get_spec(args.experiment)
    params = _parse_sets(spec, args.set)
    ctx = RunContext(seed=args.seed, checkpoint_dir=args.checkpoint_dir)
    result = registry.run_experiment(
        args.experiment,
        params=params,
        seed=args.seed,
        ctx=ctx,
        cache=_make_cache(args),
    )
    print(registry.render_result(result))
    if result.meta.get("cached"):
        print(f"\n[cached — rows hash {result.result_hash[:12]}]")
    if args.json:
        import json
        import os

        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=1)
        print(f"wrote {args.json}")
    return 0


def _sweep_cells(spec, args):
    """Cross-product of swept params × seeds -> SweepCell list."""
    from repro.experiments.executor import grid_cells

    axes = {}
    for text in args.set or []:
        if "=" not in text:
            raise SystemExit(f"--set expects key=value[,value...], got {text!r}")
        key, value = text.split("=", 1)
        if isinstance(spec.params.get(key), (tuple, list)):
            # a tuple-typed value is itself comma-separated: one point
            axes[key] = spec.coerce_param(key, value)
        else:
            axes[key] = [spec.coerce_param(key, v) for v in value.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0]
    return grid_cells(spec, axes, seeds)


def _cmd_sweep(args) -> int:
    from repro.experiments.executor import run_sweep

    spec = registry.get_spec(args.experiment)
    cells = _sweep_cells(spec, args)
    report = run_sweep(
        cells,
        jobs=args.jobs,
        cache=_make_cache(args),
        profile_dir=args.profile_dir,
    )
    print(report.summary())
    if report.trace_path:
        print(f"merged trace -> {report.trace_path}")
    if args.render:
        for outcome in report.outcomes:
            if outcome.result is not None:
                print()
                print(registry.render_result(outcome.result))
    if args.out:
        import json
        import os

        os.makedirs(args.out, exist_ok=True)
        for i, outcome in enumerate(report.outcomes):
            if outcome.result is None:
                continue
            path = os.path.join(args.out, f"cell-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(outcome.result.to_dict(), fh, indent=1)
        print(f"wrote {len(report.outcomes)} cell files under {args.out}")
    return 0 if report.failed == 0 else 1


def _cmd_all(args) -> int:
    from repro.experiments.executor import SweepCell, run_sweep

    cache = _make_cache(args)
    if args.jobs > 1:
        cells = [
            SweepCell.make(n, seed=0) for n in DEFAULT_REPORT_EXPERIMENTS
        ]
        report = run_sweep(cells, jobs=args.jobs, cache=cache)
        for outcome in report.outcomes:
            print()
            if outcome.result is not None:
                print(registry.render_result(outcome.result))
            else:
                print(f"{outcome.cell.label()}: FAILED — {outcome.error}")
        print()
        print(report.summary())
        return 0 if report.failed == 0 else 1
    for i, name in enumerate(DEFAULT_REPORT_EXPERIMENTS):
        if i:
            print()
        result = registry.run_experiment(name, seed=0, cache=cache)
        print(registry.render_result(result))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    generate_report(args.out, cache=_make_cache(args))
    print(f"wrote {args.out}/report.md and {args.out}/results.json")
    return 0


def _cmd_checkpoint(args) -> int:
    """``repro checkpoint``: train the demo trainer and write a checkpoint."""
    import os

    from repro.offload import TrainerMode
    from repro.state import save_state
    from repro.state.verify import build_demo_trainer, demo_batches

    os.makedirs(os.path.dirname(args.ckpt) or ".", exist_ok=True)
    mode = TrainerMode(args.mode)
    trainer = build_demo_trainer(
        mode=mode,
        mixed_precision=args.mixed_precision,
        accumulation_steps=args.accumulation_steps,
        act_aft_steps=args.act_aft_steps,
        seed=args.seed,
    )
    trainer.train(demo_batches(args.steps, seed=args.seed + 1))
    save_state(
        args.ckpt,
        trainer.state_dict(),
        meta={
            "writer": "repro.cli.checkpoint",
            "demo": {
                "mode": mode.value,
                "mixed_precision": args.mixed_precision,
                "accumulation_steps": args.accumulation_steps,
                "act_aft_steps": args.act_aft_steps,
                "seed": args.seed,
            },
        },
    )
    print(
        f"trained {trainer.step_count} steps ({mode.value}); "
        f"final loss {trainer.loss_curve[-1]:.4f}; "
        f"checkpoint -> {args.ckpt}"
    )
    return 0


def _cmd_resume(args) -> int:
    """``repro resume``: continue a ``repro checkpoint`` run bit-exactly."""
    from repro.offload import TrainerMode
    from repro.state import CheckpointError, load_state
    from repro.state.verify import build_demo_trainer, demo_batches

    state, meta = load_state(args.ckpt)
    demo = (meta or {}).get("demo")
    if demo is None:
        raise CheckpointError(
            f"{args.ckpt!r} was not written by 'repro checkpoint' (no demo "
            "run configuration in its metadata); resume it through "
            "OffloadTrainer.load_checkpoint instead"
        )
    trainer = build_demo_trainer(
        mode=TrainerMode(demo["mode"]),
        mixed_precision=demo["mixed_precision"],
        accumulation_steps=demo["accumulation_steps"],
        act_aft_steps=demo["act_aft_steps"],
        seed=demo["seed"],
    )
    trainer.load_state_dict(state)
    start = trainer.step_count
    batches = demo_batches(start + args.steps, seed=demo["seed"] + 1)
    trainer.train(batches[start:])
    print(
        f"resumed at step {start}, trained to step {trainer.step_count} "
        f"({demo['mode']}); final loss {trainer.loss_curve[-1]:.4f}"
    )
    return 0


def _cmd_verify_resume(args) -> int:
    """``repro verify-resume``: the bit-exact resume-equivalence suite."""
    from repro.state.verify import render_verification, run_verification_suite

    reports = run_verification_suite(include_paper_activation=args.full)
    print(render_verification(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_trace(args) -> int:
    """``repro trace``: profiled reduced run -> Chrome trace-event JSON."""
    import os

    from repro.obs import trace_experiment

    target = args.target or "fig10"
    out = args.out
    if not out.endswith(".json"):
        out = os.path.join(out, "trace.json")
    if os.path.dirname(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
    profile = trace_experiment(target, out=out, steps=args.trace_steps)
    print(profile.summary())
    print(
        f"\nwrote {out} ({len(profile.tracer)} spans/instants) — open it "
        "at https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _cmd_serve(args) -> int:
    """``repro serve``: run the sweep daemon until interrupted."""
    import signal
    import time

    from repro.service import SweepService

    service = SweepService(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        work_dir=args.work_dir,
    )
    service.start()
    # SIGTERM (systemd/docker stop, the smoke harness) exits cleanly,
    # like Ctrl-C; without this the default handler hard-kills the
    # process with the pool and HTTP threads still up.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(
        f"sweep service listening on {service.url} "
        f"(workers {args.jobs}, queue depth {args.queue_depth}, "
        f"cache {'off' if args.no_cache else service.cache.root})",
        flush=True,
    )
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    print("sweep service shut down cleanly", flush=True)
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url, timeout=args.timeout)


def _print_job_status(status: dict) -> None:
    print(f"job {status['id']}: {status['state']}")
    for outcome in status.get("outcomes", []):
        line = f"  {outcome['cell']}: {outcome['status']}"
        if outcome.get("error"):
            line += f" — {outcome['error']}"
        elif outcome.get("result_hash"):
            line += f" (rows hash {outcome['result_hash'][:12]})"
        print(line)
    if "cache" in status:
        c = status["cache"]
        print(
            f"  cache: {c['hits']} hits, {c['misses']} misses, "
            f"{c['failures']} failures; wall {status['wall_seconds']:.2f}s; "
            f"sweep hash {status['sweep_hash'][:12]}"
        )


def _cmd_submit(args) -> int:
    """``repro submit``: POST a sweep to a running daemon."""
    from repro.service import ServiceBusy

    spec = registry.get_spec(args.experiment)
    sweep = {}
    for text in args.set or []:
        if "=" not in text:
            raise SystemExit(f"--set expects key=value[,value...], got {text!r}")
        key, value = text.split("=", 1)
        default = spec.params.get(key)
        if isinstance(default, (tuple, list)):
            sweep[key] = spec.coerce_param(key, value)
        else:
            sweep[key] = [spec.coerce_param(key, v) for v in value.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0]
    client = _service_client(args)
    try:
        job_id = client.submit(
            experiment=args.experiment,
            sweep=sweep,
            seeds=seeds,
            no_cache=args.no_cache,
            profile=args.profile,
        )
    except ServiceBusy as exc:
        print(f"rejected: {exc} (retry after {exc.retry_after:g}s)")
        return 2
    print(f"submitted {job_id} -> {args.url}/jobs/{job_id}")
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    _print_job_status(status)
    return 0 if status["state"] == "done" else 1


def _cmd_poll(args) -> int:
    """``repro poll``: report (and optionally await) a submitted job."""
    client = _service_client(args)
    if args.wait:
        status = client.wait(args.job, timeout=args.timeout)
    else:
        status = client.status(args.job)
    _print_job_status(status)
    if args.results and status["state"] == "done":
        import json
        import os

        results = client.results(args.job)
        os.makedirs(os.path.dirname(args.results) or ".", exist_ok=True)
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        print(f"wrote {args.results}")
    if status["state"] in ("queued", "running"):
        return 0
    return 0 if status["state"] == "done" else 1


def _add_cache_flags(parser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result exists",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default results/cache or "
        "$REPRO_CACHE_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full subcommand parser; experiment choices come from the
    registry, so they can never drift from what is registered."""
    registry.ensure_registered()
    names = registry.spec_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of the TECO paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the experiment index")
    p_list.add_argument("--tag", default=None, help="filter by tag")
    p_list.add_argument(
        "--verbose", action="store_true", help="show tags per experiment"
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment via the registry")
    p_run.add_argument("experiment", choices=names)
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="base seed")
    p_run.add_argument(
        "--checkpoint-dir",
        default=None,
        help="make supporting experiments interruptible (fig10/fig13)",
    )
    p_run.add_argument(
        "--json", default=None, help="also write the result JSON here"
    )
    _add_cache_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter/seed grid, optionally in parallel"
    )
    p_sweep.add_argument("experiment", choices=names)
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="KEY=V1[,V2...]",
        help="sweep a parameter over comma-separated values (repeatable)",
    )
    p_sweep.add_argument(
        "--seeds", default="0", help="comma-separated seeds (default 0)"
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p_sweep.add_argument(
        "--render", action="store_true", help="print each cell's table"
    )
    p_sweep.add_argument(
        "--out", default=None, help="write per-cell result JSONs here"
    )
    p_sweep.add_argument(
        "--profile-dir",
        default=None,
        help="profile each cell; write per-cell + merged Chrome traces here",
    )
    _add_cache_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_all = sub.add_parser(
        "all", help="every paper experiment, in paper order"
    )
    p_all.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    _add_cache_flags(p_all)
    p_all.set_defaults(func=_cmd_all)

    p_report = sub.add_parser(
        "report", help="write report.md + results.json"
    )
    p_report.add_argument(
        "--out", default="results", help="output directory"
    )
    _add_cache_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_ckpt = sub.add_parser(
        "checkpoint", help="train the demo trainer and checkpoint it"
    )
    p_ckpt.add_argument(
        "--ckpt", default="results/demo.teco-ckpt", help="checkpoint path"
    )
    p_ckpt.add_argument(
        "--steps", type=int, default=40, help="steps to train"
    )
    p_ckpt.add_argument(
        "--mode",
        default="teco-reduction",
        choices=["zero-offload", "teco-cxl", "teco-reduction"],
        help="trainer mode",
    )
    p_ckpt.add_argument(
        "--mixed-precision", action="store_true", help="mixed precision"
    )
    p_ckpt.add_argument(
        "--accumulation-steps",
        type=int,
        default=1,
        help="gradient-accumulation depth",
    )
    p_ckpt.add_argument(
        "--act-aft-steps",
        type=int,
        default=8,
        help="DBA activation threshold",
    )
    p_ckpt.add_argument("--seed", type=int, default=0, help="demo-run seed")
    p_ckpt.set_defaults(func=_cmd_checkpoint)

    p_resume = sub.add_parser(
        "resume", help="continue a 'checkpoint' run bit-exactly"
    )
    p_resume.add_argument(
        "--ckpt", default="results/demo.teco-ckpt", help="checkpoint path"
    )
    p_resume.add_argument(
        "--steps", type=int, default=40, help="steps to continue"
    )
    p_resume.set_defaults(func=_cmd_resume)

    p_verify = sub.add_parser(
        "verify-resume", help="bit-exact resume-equivalence suite"
    )
    p_verify.add_argument(
        "--full",
        action="store_true",
        help="include the paper-scale straddle case (DBA activation at "
        "step 500)",
    )
    p_verify.set_defaults(func=_cmd_verify_resume)

    p_trace = sub.add_parser(
        "trace", help="profiled reduced run -> Chrome trace JSON"
    )
    p_trace.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment to profile (fig10 or fig13)",
    )
    p_trace.add_argument(
        "--out",
        default="results",
        help="trace-JSON path (a *.json path is a file, else a directory)",
    )
    p_trace.add_argument(
        "--trace-steps",
        type=int,
        default=24,
        help="fine-tuning steps for the reduced run",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived sweep daemon (HTTP/JSON job API)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=8731,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=2, help="persistent worker processes"
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="queued jobs before the API answers 429",
    )
    p_serve.add_argument(
        "--work-dir", default=None,
        help="directory for per-job traces (default: a temp dir)",
    )
    _add_cache_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    def _add_client_flags(parser) -> None:
        parser.add_argument(
            "--url", default="http://127.0.0.1:8731",
            help="base URL of a running 'repro serve' daemon",
        )
        parser.add_argument(
            "--timeout", type=float, default=300.0,
            help="HTTP/poll timeout in seconds",
        )

    p_submit = sub.add_parser(
        "submit", help="submit a sweep to a running daemon"
    )
    p_submit.add_argument("experiment", choices=names)
    p_submit.add_argument(
        "--set",
        action="append",
        metavar="KEY=V1[,V2...]",
        help="sweep a parameter over comma-separated values (repeatable)",
    )
    p_submit.add_argument(
        "--seeds", default="0", help="comma-separated seeds (default 0)"
    )
    p_submit.add_argument(
        "--no-cache", action="store_true",
        help="ask the daemon to recompute instead of using its cache",
    )
    p_submit.add_argument(
        "--profile", action="store_true",
        help="record per-cell traces, served at /jobs/<id>/trace",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its outcomes",
    )
    _add_client_flags(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_poll = sub.add_parser(
        "poll", help="poll a submitted job's status (and fetch results)"
    )
    p_poll.add_argument("job", help="job id returned by 'repro submit'")
    p_poll.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes",
    )
    p_poll.add_argument(
        "--results", default=None,
        help="write the job's canonical results JSON here when done",
    )
    _add_client_flags(p_poll)
    p_poll.set_defaults(func=_cmd_poll)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy aliases: 'repro fig10' == 'repro run fig10'.
    if argv and argv[0] in registry.spec_names():
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
