# Convenience targets; everything works without make too.
#
# CI (.github/workflows/ci.yml) invokes these exact targets, so local
# `make <target>` and the CI jobs cannot drift.  Knobs:
#   BENCH_SCALE     ?= tiny|small|medium|large  instance preset for bench targets
#   BENCH_GATE      ?= 0|1             1 makes bench-compare fail on regression
#   BENCH_JSON      ?= path            fresh document bench-compare diffs
#   BENCH_TOLERANCE ?= fraction        wall-time slack for bench-compare (0.5 =
#                                      +50%; generous because the committed
#                                      baseline and the runner differ)
#   EQ_SCALE        ?= preset          scale for the speedup-gated equivalence leg
#   EQ_MIN_SPEEDUP  ?= factor          required vectorized-over-naive speedup
#   OBS_SCALE       ?= preset          scale for the emission-overhead gate
#   OBS_RETRIES     ?= n               re-measure attempts for the obs gate
#   OUT_DIR         ?= dir             where campaign artifacts land
#   PR              ?= n               change number bench-record files under

BENCH_SCALE ?= tiny
BENCH_GATE ?= 0
BENCH_BASELINE ?= benchmarks/baseline_tiny.json
BENCH_JSON ?= bench.json
BENCH_TOLERANCE ?= 0.5
EQ_SCALE ?= small
EQ_MIN_SPEEDUP ?= 3
OBS_SCALE ?= tiny
OBS_RETRIES ?= 2
OUT_DIR ?= out

.PHONY: install test test-fast test-slow bench bench-json bench-compare \
        bench-record equivalence obs-gate perfbench-check trace audit chaos \
        adversary serve shard resilience resilience-smoke lint reproduce \
        examples clean

# Chaos campaign knobs (see docs/robustness.md).
CHAOS_SEED ?= 5
CHAOS_MAX_DEGRADATION ?= 1.05

# Adversary campaign knobs (see docs/robustness.md, "Byzantine model").
ADV_SEED ?= 3
ADV_MAX_DEGRADATION ?= 1.10
ADV_MIN_RECALL ?= 0.95

# Shard campaign knobs (see docs/robustness.md, "Partition tolerance").
SHARD_SEED ?= 2007
SHARD_PARTITION_SEED ?= 2007
SHARD_REGIONS ?= 8
SHARD_MAX_DEGRADATION ?= 1.0
SHARD_MIN_MSG_REDUCTION ?= 2

# Resilience campaign knobs (see docs/robustness.md, "Composed failure
# planes").
RESILIENCE_LOTTERY ?= 2
RESILIENCE_LOTTERY_SEED ?= 0

# Serving campaign knobs (see docs/serving.md).
SERVE_SEED ?= 11
SERVE_FAULT_SEED ?= 5
SERVE_MIN_AVAILABILITY ?= 0.99
SERVE_MAX_P99 ?= 150

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

test-slow:
	pytest tests/ -m slow

bench:
	REPRO_BENCH_SCALE=$(BENCH_SCALE) pytest benchmarks/ --benchmark-only

bench-json:
	REPRO_BENCH_SCALE=$(BENCH_SCALE) python -m repro bench --out bench.json

bench-compare:
	python -m repro bench --compare $(BENCH_BASELINE) $(BENCH_JSON) \
		--tolerance $(BENCH_TOLERANCE) \
		$(if $(filter 1,$(BENCH_GATE)),--fail-on-regression,)

# The repository benchmark's trajectory file: every perfbench workload
# at --trace 0 and --trace 1, each run's JSON summary kept unchanged, in
# BENCH_<yyyymmdd>_PR$(PR).json with the commit, date and host.  Writes
# nothing and fails when PR is unset or any run is not correct.
bench-record:
	@test -n "$(PR)" || { echo "bench-record: set PR=<n>" >&2; exit 2; }
	python3 benchmarks/record_perfbench.py --pr $(PR)

# Prove the naive and vectorized AGT-RAM engines are bit-for-bit
# identical (winners, second prices, placements, full event stream) and
# that the vectorized engine actually earns its keep.  The tiny leg is
# an identity-only check; the $(EQ_SCALE) leg also enforces the speedup
# floor (see docs/performance.md for why tiny is excluded from it).
equivalence:
	python -m repro audit --compare-engines --scale tiny
	python -m repro audit --compare-engines --scale $(EQ_SCALE) \
		--repeats 5 --min-speedup $(EQ_MIN_SPEEDUP)

# Emission gate: prove AGT-RAM's columnar event stream is byte-equivalent
# to the reference replayed from its own audit transcript, for the
# vectorized and naive engines, first price, a strategy map and a warm
# start (deterministic, hard fail), and bound the eventing-on overhead
# against the per-scale budget (noisy half; re-measures on failure,
# keeping the best attempt — see docs/observability.md "The emission
# gate").
obs-gate:
	python -m repro audit --emission-gate --scale $(OBS_SCALE) \
		--retries $(OBS_RETRIES)

# The repository benchmark's correctness checks, not its timings
# (perfbench/README.md, "Checks"): a run fails when a digest differs
# between passes or between the untraced and traced pass (the REVB
# file's sha256 included), when the streaming, sharded, serving or
# mechanism audit finds a violation, or when more than 10% of the timed
# window is unattributed.  serve-flashcrowd is the workload whose log
# carries drift re-auctions through the mechanism audit.
perfbench-check:
	python3 perfbench/run.py --workload flat-large --trace 1
	python3 perfbench/run.py --workload resilience-composed --trace 1
	python3 perfbench/run.py --workload serve-flashcrowd --trace 1

# bench-json plus the full observability exports: JSONL and binary (REVB)
# event logs, Perfetto-loadable Chrome trace, OpenMetrics textfile.
trace:
	REPRO_BENCH_SCALE=$(BENCH_SCALE) python -m repro bench --out bench.json \
		--events events.jsonl --events-binary events.rev \
		--chrome-trace trace.json --metrics-out metrics.prom

# Offline axiom verification of the recorded event log, in both formats.
audit:
	python -m repro audit events.jsonl
	python -m repro audit events.rev

# Seeded fault-injection campaign: lossy channel + crash schedule +
# central crashes, gated on OTC degradation, then audited offline.
chaos:
	python -m repro chaos --servers 16 --objects 60 --requests 8000 \
		--seed 101 --fault-seed $(CHAOS_SEED) \
		--central-crash-rate 0.03 \
		--max-degradation $(CHAOS_MAX_DEGRADATION) \
		--out-dir $(OUT_DIR) \
		--events chaos_events.jsonl --report chaos_report.json \
		--fault-log chaos_faults.json
	python -m repro audit $(OUT_DIR)/chaos_events.jsonl

# Seeded Byzantine campaign: misreports, malformed bids and collusion
# injected into the bid stream, gated on detection recall, zero false
# quarantines and OTC degradation, then audited offline.
adversary:
	python -m repro adversary --servers 12 --objects 40 --requests 4000 \
		--seed 5 --adv-seed $(ADV_SEED) \
		--fraction 0.25 --fraction 0.4 \
		--min-recall $(ADV_MIN_RECALL) \
		--max-degradation $(ADV_MAX_DEGRADATION) \
		--out-dir $(OUT_DIR) \
		--events adversary_events.jsonl --report adversary_report.json
	python -m repro audit $(OUT_DIR)/adversary_events.jsonl

# Resilient serving campaign: stream workload traffic against the
# auctioned placement while 5% of the servers crash per round, gated on
# availability and tail latency, then audited offline.  A second drift
# run exercises the drift-triggered incremental re-auction path.
serve:
	python -m repro serve --workload worldcup \
		--serve-seed $(SERVE_SEED) --fault-seed $(SERVE_FAULT_SEED) \
		--crash-rate 0.05 --straggler-rate 0.02 \
		--min-availability $(SERVE_MIN_AVAILABILITY) \
		--max-p99 $(SERVE_MAX_P99) \
		--out-dir $(OUT_DIR) \
		--events serve_events.jsonl --report serve_report.json
	python -m repro serve --workload drift \
		--serve-seed $(SERVE_SEED) \
		--min-availability $(SERVE_MIN_AVAILABILITY) \
		--out-dir $(OUT_DIR) \
		--events serve_drift_events.jsonl --report serve_drift_report.json
	python -m repro audit $(OUT_DIR)/serve_events.jsonl
	python -m repro audit $(OUT_DIR)/serve_drift_events.jsonl

# Partition-tolerance campaign: sweep partition fractions (with
# regional-central crashes) on the sharded central, gated on the
# null-schedule byte-identity, OTC degradation, and the message
# reduction vs the single central; then the per-shard + cross-shard
# audit re-verifies the recorded event log offline.
shard:
	python -m repro shard --scale tiny \
		--regions $(SHARD_REGIONS) --shard-seed $(SHARD_SEED) \
		--partition-seed $(SHARD_PARTITION_SEED) \
		--crash-rate 0.01 --check-null \
		--max-degradation $(SHARD_MAX_DEGRADATION) \
		--min-message-reduction $(SHARD_MIN_MSG_REDUCTION) \
		--out-dir $(OUT_DIR) \
		--events shard_events.jsonl --report shard_report.json \
		--plan-out shard_plans.json
	python -m repro audit --sharded $(OUT_DIR)/shard_events.jsonl

# Composed failure-plane survivability campaign: every catalog scenario
# (fault storm, Byzantine, split-brain, and the flash-crowd showcase
# composing all three) plus random lottery compositions, run over the
# sharded serving stack with the online invariant monitor armed, gated
# on availability / invariants / composed audits / degradation budget /
# detection recall.  Failing scenarios shrink to minimal repro JSONs in
# $(OUT_DIR).
resilience:
	python -m repro resilience \
		--lottery $(RESILIENCE_LOTTERY) \
		--lottery-seed $(RESILIENCE_LOTTERY_SEED) \
		--out-dir $(OUT_DIR) --report resilience_report.json

# CI-sized leg: the smallest catalog scenario plus one lottery ticket.
resilience-smoke:
	python -m repro resilience --scenario smoke \
		--lottery 1 --lottery-seed $(RESILIENCE_LOTTERY_SEED) \
		--out-dir $(OUT_DIR) --report resilience_report.json

lint:
	ruff check src/repro/obs
	ruff format --check src/repro/obs
	mypy src/repro/obs

reproduce:
	python -m repro reproduce --scale small

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .ruff_cache \
		.mypy_cache bench.json events.jsonl events.rev trace.json metrics.prom \
		out \
		chaos_events.jsonl chaos_report.json chaos_faults.json \
		adversary_events.jsonl adversary_report.json \
		serve_events.jsonl serve_report.json serve_drift_events.jsonl \
		serve_drift_report.json shard_events.jsonl shard_report.json \
		shard_plans.json
	find . -name __pycache__ -type d -exec rm -rf {} +
