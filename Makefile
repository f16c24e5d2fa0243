# Developer entry points.  Tier-1 tests must stay fast; benchmarks are
# opt-in and emit machine-readable JSON for the BENCH_* trajectory files.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-backpressure bench-commands \
	bench-encodings bench-encode-core bench-fleet \
	bench-home-scale bench-multiuser bench-resilience bench-surfaces \
	bench-smoke e2e-pairs frame-parity

test:
	$(PYTHON) -m pytest -x -q

# Device screens after every frame and UIP bytes of every interaction,
# working tree against BASE (a git revision), on the closed-loop e2e
# workloads: exits 1 on any difference.
BASE ?= HEAD
frame-parity:
	$(PYTHON) benchmarks/frame_parity.py $(BASE)

# Alternating pairs of benchmarks/e2e/run.py, BASE against the working
# tree, one process at a time: per workload and end-to-end metric, each
# side's median and quartiles, the change's wins and the ratio.  Pair i
# runs seed SEED+i; WORKLOAD may name several workloads.  Writes nothing
# inside the repository; exits 1 if a run fails or reports incorrect
# outputs.  `python3 benchmarks/pairs.py --help` lists the other options.
WORKLOAD ?= remote-browse
PAIRS ?= 10
SEED ?= 1
e2e-pairs:
	$(PYTHON) benchmarks/pairs.py $(BASE) --pairs $(PAIRS) --seed $(SEED) \
		$(foreach w,$(WORKLOAD),--workload $(w))

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-json=BENCH_RESULTS.json

bench-encodings:
	$(PYTHON) -m pytest benchmarks/bench_encodings.py -q \
		--benchmark-json=BENCH_ENCODINGS.json

# Vectorized encode core vs the seed's scalar encoders, plus the frame
# differ's unchanged-redraw ablation: writes BENCH_ENCODE_CORE.json.
bench-encode-core:
	$(PYTHON) -m pytest benchmarks/bench_encode_core.py -q \
		--benchmark-json=BENCH_ENCODE_CORE_ROWS.json

bench-home-scale:
	$(PYTHON) -m pytest benchmarks/bench_home_scale.py -q \
		--benchmark-json=BENCH_HOME_SCALE.json

# Multi-user homes: 1/2/4/8 residents x 3 devices each on one surface
# under panel churn, server-side broadcast cost per user count: writes
# BENCH_MULTIUSER.json (workload + timing method).  Also runs in the CI
# bench-smoke job at tiny workload like every benchmark.
bench-multiuser:
	$(PYTHON) -m pytest benchmarks/bench_home_scale.py -q -k multiuser \
		--benchmark-json=BENCH_MULTIUSER_ROWS.json

# Per-user UI surfaces: 1 surface x 8 sessions (the BENCH_MULTIUSER shape)
# vs 8 surfaces x 1 session vs mixed, plus isolated single-view churn:
# proves surface multiplexing keeps the same-surface fast path (~1.1x of
# BENCH_MULTIUSER) while cross-surface churn is wire-silent.  Writes
# BENCH_SURFACES.json; also runs in the CI bench-smoke job.
bench-surfaces:
	$(PYTHON) -m pytest benchmarks/bench_surfaces.py -q \
		--benchmark-json=BENCH_SURFACES_ROWS.json

# Many-home fleet on one selectors reactor: 128 homes over real TCP
# loopback sockets under appliance churn, plus the one-home-stalled
# isolation case.  Writes BENCH_FLEET.json (smoke mode, 64 homes, writes
# benchmarks/.smoke/BENCH_FLEET.json instead).  Also runs in the CI
# bench-smoke job.
bench-fleet:
	$(PYTHON) -m pytest benchmarks/bench_fleet.py -q \
		--benchmark-disable

# Self-healing under the seeded fault storm: a 32-home resilient TCP
# fleet absorbs RSTs, 2 s partitions, device-leg frame drops and one
# crashed home, then repeated RST rounds measure the distribution of
# reconnects, each a fresh redial with one full-frame resync.  Writes
# BENCH_RESILIENCE.json (smoke mode, 8 homes, writes
# benchmarks/.smoke/BENCH_RESILIENCE.json instead, where the CI
# chaos-smoke job checks it).
bench-resilience:
	$(PYTHON) -m pytest benchmarks/bench_resilience.py -q \
		--benchmark-disable

# Command-spine dispatch overhead vs direct send_request on the real
# home actuation path (asserted <=1.05x), the bare-bus tracking cost in
# microseconds, and throughput under 8-user coalescible churn.  Writes
# BENCH_COMMANDS.json (smoke mode writes benchmarks/.smoke/ instead,
# where the CI bench-smoke job checks the overhead budget).
bench-commands:
	$(PYTHON) -m pytest benchmarks/bench_commands.py -q \
		--benchmark-disable

# Credit backpressure on the 9600 bps phone bearer vs unbounded queueing:
# writes BENCH_BACKPRESSURE.json (before/after + fast-path regression).
bench-backpressure:
	$(PYTHON) -m pytest benchmarks/bench_backpressure.py -q \
		--benchmark-json=BENCH_BACKPRESSURE_ROWS.json

# Harness smoke: every benchmark at tiny workload, timings disabled.  CI
# runs this so refactors can't silently break the bench harness.  The
# records whose acceptance is asserted from the recorded numbers
# (BENCH_FLEET, BENCH_ENCODE_CORE, BENCH_COMMANDS, BENCH_RESILIENCE) are
# written to the gitignored benchmarks/.smoke/, marked "smoke": true;
# the committed records at the repo root are never touched.
bench-smoke:
	$(PYTHON) -m pytest benchmarks -q --smoke --benchmark-disable
