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
        bench-record equivalence obs-gate perfbench-check trace audit \
        resilience lint reproduce examples clean

# Campaign knobs (see docs/robustness.md, "Running a campaign"): random
# scenario compositions run after the catalog presets.
RESILIENCE_LOTTERY ?= 5
RESILIENCE_LOTTERY_SEED ?= 0

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

# The campaign: every catalog preset (the composed scenarios, then the
# chaos, adversary, serve and shard presets) plus $(RESILIENCE_LOTTERY)
# random composition(s), each gated on its own thresholds, final-scheme
# feasibility and no honest agent quarantined (on either central);
# failing scenarios shrink to minimal repro JSONs in $(OUT_DIR).  Each
# scenario's event log lands in $(OUT_DIR)/events.<name>.jsonl and
# events.<name>.rev; one flat-central log (chaos) and one sharded one
# (showcase, whose serving tail nests a flat re-auction run) are then
# re-verified offline in both formats, the REVB ones from bid runs, and
# so is the flat-central serve-drift log (REVB), whose serving tail holds
# drift re-auctions.  A log that serves requests also gets the serving
# audit of its tail.
resilience:
	python -m repro resilience \
		--lottery $(RESILIENCE_LOTTERY) \
		--lottery-seed $(RESILIENCE_LOTTERY_SEED) \
		--out-dir $(OUT_DIR) --report resilience_report.json \
		--events events.jsonl --events-binary events.rev
	python -m repro audit $(OUT_DIR)/events.chaos.jsonl
	python -m repro audit $(OUT_DIR)/events.chaos.rev
	python -m repro audit --sharded $(OUT_DIR)/events.showcase.jsonl
	python -m repro audit --sharded $(OUT_DIR)/events.showcase.rev
	python -m repro audit $(OUT_DIR)/events.serve-drift.rev

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
		out
	find . -name __pycache__ -type d -exec rm -rf {} +
