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


class _UsageError(Exception):
    """Bad command-line input found after parsing: one line, exit code 2."""


def _parse_sets(spec, assignments, sweep=False):
    """Parse repeated ``--set key=value`` into typed param overrides.

    With ``sweep`` each value is a comma-separated list of points, except
    for a tuple-typed param, whose comma-separated value is one point.
    """
    params = {}
    for text in assignments or []:
        key, eq, value = text.partition("=")
        if not eq:
            raise _UsageError(f"--set expects key=value, got {text!r}")
        try:
            if sweep and not isinstance(spec.params.get(key), (tuple, list)):
                points = value.split(",")
                params[key] = [spec.coerce_param(key, v) for v in points]
            else:
                params[key] = spec.coerce_param(key, value)
        except (KeyError, ValueError) as exc:
            raise _UsageError(f"--set {text!r}: {exc.args[0]}") from None
    return params


def _jobs(args) -> int:
    """``--jobs``, which must name at least one worker."""
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


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

    axes = _parse_sets(spec, args.set, sweep=True)
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0]
    except ValueError:
        raise _UsageError(
            f"--seeds expects comma-separated integers, got {args.seeds!r}"
        ) from None
    return grid_cells(spec, axes, seeds)


def _cmd_sweep(args) -> int:
    from repro.experiments.executor import run_sweep

    jobs = _jobs(args)
    cells = _sweep_cells(registry.get_spec(args.experiment), args)
    report = run_sweep(
        cells,
        jobs=jobs,
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

    jobs = _jobs(args)
    cache = _make_cache(args)
    if jobs > 1:
        cells = [
            SweepCell.make(n, seed=0) for n in DEFAULT_REPORT_EXPERIMENTS
        ]
        report = run_sweep(cells, jobs=jobs, cache=cache)
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
        mode=mode, act_aft_steps=args.act_aft_steps, seed=args.seed
    )
    trainer.train(demo_batches(args.steps, seed=args.seed + 1))
    save_state(
        args.ckpt,
        trainer.state_dict(),
        meta={
            "writer": "repro.cli.checkpoint",
            "demo": {
                "mode": mode.value,
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
    """``repro trace``: profiled experiment run -> Chrome trace-event JSON."""
    import os

    from repro.obs import trace_experiment

    params = _parse_sets(registry.get_spec(args.experiment), args.set)
    out = args.out
    if not out.endswith(".json"):
        out = os.path.join(out, "trace.json")
    if os.path.dirname(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
    profile = trace_experiment(
        args.experiment, params=params, seed=args.seed, out=out
    )
    print(profile.summary())
    print(
        f"\nwrote {out} ({len(profile.tracer)} spans/instants) — open it "
        "at https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


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
        "trace", help="profiled experiment run -> Chrome trace JSON"
    )
    p_trace.add_argument("experiment", choices=names)
    p_trace.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    p_trace.add_argument("--seed", type=int, default=0, help="base seed")
    p_trace.add_argument(
        "--out",
        default="results",
        help="trace-JSON path (a *.json path is a file, else a directory)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy aliases: 'repro fig10' == 'repro run fig10'.
    if argv and argv[0] in registry.spec_names():
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
