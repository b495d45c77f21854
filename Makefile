.PHONY: install test test-fast verify-resume verify-resume-full bench bench-show bench-smoke check-cube trace-smoke exp-smoke report examples clean

install:
	pip install -e '.[dev]' --no-build-isolation

test: verify-resume exp-smoke trace-smoke
	PYTHONPATH=src pytest tests/

# Inner-loop tier: skips the @slow-marked multi-second cases (see
# CONTRIBUTING.md "Test tiers"); budgeted at < 60 s wall time.
test-fast:
	PYTHONPATH=src pytest tests/ -m "not slow"

# Resume-equivalence harness: train / checkpoint / resume a tiny model in
# every TrainerMode, across DBA activation and across a fork, and assert
# the resumed run is bit-exact ("resume == never stopped").
verify-resume:
	PYTHONPATH=src python -m repro verify-resume

# Same, plus the paper-scale case straddling DBA activation at step 500.
verify-resume-full:
	PYTHONPATH=src python -m repro verify-resume --full

bench:
	pytest benchmarks/ --benchmark-only

bench-show:
	pytest benchmarks/ --benchmark-only -s

# Seconds-scale perf regression gate: hot kernels + one headline op at
# tiny shapes, compared against the committed BENCH_baseline.json
# (fails on >2x slowdown).  Refresh the baseline after an intentional
# perf change with:
#   PYTHONPATH=src python benchmarks/bench_smoke.py --update-baseline
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_smoke.py

# Exhaustive bit-exactness check of GELU's float32 cube (functional._cube
# against NumPy's x**3 on every float32 bit pattern; tens of minutes on
# one core, so not part of `make test`).  Re-run after any NumPy upgrade.
check-cube:
	PYTHONPATH=src python benchmarks/check_gelu_cube.py

# Observability smoke: trace a reduced fig10 run, table6, a reduced
# fig_fabric, a reduced fig_zero3 and granularity through
# `repro.obs.trace_experiment`, export the Chrome trace-event JSON, and
# validate its schema + required span categories (CXL link, pending
# queue, trainer phases, fabric queueing, one replay span per sweep).
trace-smoke:
	PYTHONPATH=src python benchmarks/trace_smoke.py results/trace-smoke.json

# Experiment-framework smoke: registry covers the CLI, cached == fresh
# byte-for-byte, a 2-worker mini-sweep whose warm re-run recomputes zero
# cells, and (on hosts with >= 4 CPUs) a >= 2x jobs=4 speedup gate.
exp-smoke:
	PYTHONPATH=src python benchmarks/exp_smoke.py

report:
	PYTHONPATH=src python -m repro report --out results

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/protocol_trace.py
	PYTHONPATH=src python examples/speedup_sweep.py
	PYTHONPATH=src python examples/breakdown_report.py
	PYTHONPATH=src python examples/bert_finetune.py
	PYTHONPATH=src python examples/lammps_melt.py
	PYTHONPATH=src python examples/memory_planning.py

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
