.PHONY: install test test-fast verify-resume verify-resume-full bench bench-show bench-smoke check-cube trace-smoke exp-smoke service-smoke report examples clean

install:
	pip install -e '.[dev]' --no-build-isolation

test: verify-resume exp-smoke service-smoke
	PYTHONPATH=src pytest tests/

# Inner-loop tier: skips the @slow-marked multi-second cases (see
# CONTRIBUTING.md "Test tiers"); budgeted at < 60 s wall time.
test-fast:
	PYTHONPATH=src pytest tests/ -m "not slow"

# Resume-equivalence harness: train / checkpoint / resume a tiny model in
# every TrainerMode x precision x accumulation config and assert the
# resumed run is bit-exact ("resume == never stopped").
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

# Observability smoke: profile a reduced fig10 run, export the Chrome
# trace-event JSON, and validate its schema + required span categories
# (CXL link, pending queue, trainer phases).
trace-smoke:
	PYTHONPATH=src python benchmarks/trace_smoke.py results/trace-smoke.json

# Experiment-framework smoke: registry covers the CLI, cached == fresh
# byte-for-byte, a 2-worker mini-sweep whose warm re-run recomputes zero
# cells, and (on hosts with >= 4 CPUs) a >= 2x jobs=4 speedup gate.
exp-smoke:
	PYTHONPATH=src python benchmarks/exp_smoke.py

# Sweep-service smoke: daemon sweep byte-identical to inline run_sweep,
# warm resubmit fully cached, 429 backpressure under a full queue, a
# worker-killing cell contained to one error outcome, and clean SIGTERM
# shutdown of the real `repro serve` CLI daemon.
service-smoke:
	PYTHONPATH=src python benchmarks/service_smoke.py

report:
	python -m repro report --out results

examples:
	python examples/quickstart.py
	python examples/protocol_trace.py
	python examples/speedup_sweep.py
	python examples/breakdown_report.py
	python examples/bert_finetune.py
	python examples/lammps_melt.py
	python examples/tune_activation.py
	python examples/memory_planning.py

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
