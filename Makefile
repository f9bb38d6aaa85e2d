# The targets below are the exact commands CI runs (.github/workflows/ci.yml)
# so local verification and the quality gate can never drift apart.

GO ?= go

.PHONY: all build test loc conformance serve-smoke paper-smoke results-bench race bench perf perf-compare trajectory profile profile-top cover fmt-check doc-check vet fuzz

# Fuzz budget per target for `make fuzz` (CI passes FUZZTIME=10s; raise it
# locally for deeper runs, e.g. make fuzz FUZZTIME=2m).
FUZZTIME ?= 10s

all: fmt-check doc-check build test

build:
	$(GO) build ./...

# vet is part of the test gate: `make test` locally runs exactly what the
# CI test job enforces.
test: vet
	$(GO) test -short -timeout 10m ./...

# Non-test Go lines outside bench/: the figure ROADMAP's north star tracks
# ("net-negative line counts are a success metric"). A simplicity PR reports
# this number before and after; the CI test job prints it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | wc -l

race:
	$(GO) test -race -short -timeout 15m ./...

# Registry-wide conformance suite (internal/conformance): every registered
# defense and codec must hold its contract — byte-identical aggregation for
# any worker count, finite-or-error behavior on hostile inputs, selections
# in ascending order, and codec round-trip bounds. Run under the race detector
# with -count=2 so a stateful rule that only misbehaves on reuse (or only
# races under parallel kernels) still fails; the CI test job runs this.
conformance:
	$(GO) test -race -count=2 -timeout 10m -run 'Conformance' ./internal/defense ./internal/codec ./internal/attack ./internal/experiments

# Run flserver's main end to end once: flag parsing, -rule resolution
# through the defense catalog, the load harness over loopback HTTP (a few
# seconds). A tenth of the clients ship payloads that decode to +Inf, and
# the harness fails the run if the server accepts one, so the non-finite
# refusal path runs through main too. Nothing else executes main, so a
# flag-resolution break would otherwise show up only by hand; the CI test
# job runs this.
serve-smoke:
	$(GO) run ./cmd/flserver -loadtest -load-clients 500 -load-byz 0.2 -load-nonfinite 0.1 -rule SignGuard

# Run cmd/campaign's main end to end: flag parsing, then three grids at
# bench scale into a temporary store, a status of each that must report the
# grid complete, and their markdown exports from the store — fig2 (2
# cells); adaptive (6 cells), the one campaign whose adversary reads each
# round's selection tally back through its filtering history, so the
# feedback loop runs through main too; and hostile (20 cells, about 10 s on
# two cores), whose NaN/±Inf attacks put the round pipeline's only
# non-finite path, refusal, through main. Fails on an error, an incomplete
# status or an empty table; the CI test job runs this after serve-smoke.
paper-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/campaign" ./cmd/campaign && \
	for name in fig2 adaptive hostile; do \
		"$$dir/campaign" run -name $$name -scale bench -cache-dir "$$dir/cache" && \
		"$$dir/campaign" status -name $$name -scale bench -cache-dir "$$dir/cache" > "$$dir/status" && \
		cat "$$dir/status" && grep -q '(0 pending, 100% complete)' "$$dir/status" && \
		"$$dir/campaign" export -name $$name -scale bench -cache-dir "$$dir/cache" -format md > "$$dir/$$name.md" && \
		test -s "$$dir/$$name.md" && cat "$$dir/$$name.md" || exit 1; \
	done

# The bench-scale results golden: every experiment ("all", 763 cells) at
# bench scale and seed 1, run into a fresh store under /tmp and exported as
# markdown to docs/results-bench.md. A change that moves any rendered
# number then shows up in `git diff`; the CI results job runs this target
# and fails on a diff. About 9 minutes on two cores. The checked-in golden
# is specific to linux/amd64 with the default GOAMD64 (v1): other
# architectures may fuse multiply-adds into single instructions, which
# round differently and move the last bits.
results-bench:
	@dir=$$(mktemp -d /tmp/results-bench.XXXXXX) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/campaign" ./cmd/campaign && \
	"$$dir/campaign" run -name all -scale bench -seed 1 -cache-dir "$$dir/cache" && \
	"$$dir/campaign" export -name all -scale bench -seed 1 -cache-dir "$$dir/cache" -format md -out docs/results-bench.md

# Compile and execute every Go benchmark exactly once, so benchmark code
# that rots fails loudly (the CI bench job runs this). The numbers are not a
# gate: a single -benchtime 1x sample is noise. The micro-benchmarks are
# `make profile` inputs; performance is judged by the repository benchmark
# below (`make perf`, `make perf-compare`).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -timeout 15m ./...

# The repository benchmark (bench/README.md, BENCHMARK.json): every workload
# end to end with tracing off, then stage by stage. perf writes one result
# file; perf-compare applies the BENCHMARK.json bounds to two of them, e.g.
#   make perf-compare A=bench/results/seed.json B=bench/out/perf.json
# Compare only files from the same machine, and claim a gain only from ten
# alternating parent/change pairs (bench/README.md).
perf:
	$(GO) run ./bench -seed 1 -out bench/out/perf.json

perf-compare:
	$(GO) run ./bench -compare $(A) $(B)

# The committed BENCH_<pr>.json files side by side, PR order left to right,
# reduced to the columns another day's machine cannot move (allocation
# volumes, wire bytes, counts, digests, each stage's share of its round):
# the part of the trajectory that is readable without re-running anything.
trajectory:
	@$(GO) run ./tools/trajectory

# CPU/heap profiles of the three stage benchmarks — LocalCompute (image CNN,
# sim_paper's CIFAR-analog DeepCNN under deepcnn/, and the text RNN), the
# defense stage's distance matrix (sparse and dense cohorts at sim_wide's
# dimension) and the async load harness — of one whole warm round at sim_wide's shape (BenchmarkStep) and of serving one
# update at serve_mixed's shape (BenchmarkAsyncUpdate: dense and topk
# bodies through the HTTP handler, B/op is one update's allocation).
# Written to ./profiles; inspect with `go tool pprof profiles/<name>`.
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench BenchmarkLocalCompute -benchtime 3x -timeout 15m -o profiles/fl.test \
		-cpuprofile profiles/localcompute.cpu.pprof -memprofile profiles/localcompute.mem.pprof ./internal/fl
	$(GO) test -run '^$$' -bench BenchmarkStep -benchtime 20x -timeout 15m -o profiles/fl.test \
		-cpuprofile profiles/step.cpu.pprof -memprofile profiles/step.mem.pprof ./internal/fl
	$(GO) test -run '^$$' -bench BenchmarkAsyncUpdate -benchtime 20000x -benchmem -timeout 15m -o profiles/transport.test \
		-cpuprofile profiles/serve.cpu.pprof -memprofile profiles/serve.mem.pprof ./internal/transport
	$(GO) test -run '^$$' -bench BenchmarkPairwiseDistances -benchtime 3x -timeout 15m -o profiles/aggregate.test \
		-cpuprofile profiles/pairwise.cpu.pprof -memprofile profiles/pairwise.mem.pprof ./internal/aggregate
	$(GO) test -run '^$$' -bench BenchmarkAsyncLoad -benchtime 3x -timeout 15m -o profiles/loadtest.test \
		-cpuprofile profiles/asyncload.cpu.pprof -memprofile profiles/asyncload.mem.pprof ./internal/asyncfl/loadtest
	@echo "profiles written to ./profiles — e.g. go tool pprof -top profiles/localcompute.cpu.pprof"

# Summarize saved profiles: the top-10 CPU nodes of every *.cpu.pprof and
# the top-10 allocation-volume (alloc_space) nodes of every *.mem.pprof in
# ./profiles. Run `make profile` first to (re)generate them.
profile-top:
	@ls profiles/*.pprof >/dev/null 2>&1 || { echo "no profiles found — run 'make profile' first"; exit 1; }
	@for p in profiles/*.cpu.pprof; do \
		[ -e "$$p" ] || continue; \
		echo "== $$p (cpu) =="; \
		$(GO) tool pprof -top -nodecount=10 "$$p" | tail -n +3; echo; \
	done
	@for p in profiles/*.mem.pprof; do \
		[ -e "$$p" ] || continue; \
		echo "== $$p (alloc_space) =="; \
		$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space "$$p" | tail -n +3; echo; \
	done

# Coverage profile + per-package summary. The per-package lines come from
# `go test -cover` itself; the closing line is the aggregate across every
# package. CI uploads coverage.out as an artifact.
cover:
	$(GO) test -short -timeout 10m -covermode=atomic -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every library package must open with a "// Package <name> ..." doc
# comment (cmd binaries: "// Command <name> ..."), so `go doc` renders a
# useful summary for each. The grep keeps new packages honest; CI runs it
# in the test job next to fmt-check. Three root tests then fail on a *.md
# file that a Go comment, README.md or docs/*.md cites and the repository
# does not hold, on a package directory outside bench/ that
# docs/ARCHITECTURE.md's package map does not name, and on a documented
# `go run ./cmd/<name>` or usage-line flag that cmd/<name> does not define.
doc-check:
	@fail=0; \
	for dir in . $$(find internal -type d) $$(find cmd -mindepth 1 -maxdepth 1 -type d); do \
		ls $$dir/*.go >/dev/null 2>&1 || continue; \
		name=$$(basename $$dir); [ "$$dir" = "." ] && name=signguard; \
		case $$dir in cmd/*) pat="^// Command $$name ";; *) pat="^// Package $$name ";; esac; \
		grep -qs "$$pat" $$dir/*.go || { echo "missing package doc comment ($$pat) in $$dir"; fail=1; }; \
	done; \
	exit $$fail
	@$(GO) test -count=1 -run '^(TestDocCitations|TestPackageMap|TestDocFlags)$$' .

vet:
	$(GO) vet ./...

# Short-fuzz sweep over every fuzz target (go's fuzzer takes exactly one
# -fuzz pattern per invocation, hence one line per target). Each run replays
# the checked-in corpus first, so regressions caught by fuzzing stay caught;
# the CI fuzz job runs this with the default 10s budget per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzTopKEncodeMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzDefenseAggregate$$' -fuzztime $(FUZZTIME) ./internal/defense
	$(GO) test -run '^$$' -fuzz '^FuzzPairwiseDistances$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzKMeansCluster$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzMeanShiftCluster$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzAsyncSubmitBody$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzAsyncModelBody$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzConv2DMatchesOracle$$' -fuzztime $(FUZZTIME) ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzElementwiseMatchesOracle$$' -fuzztime $(FUZZTIME) ./internal/nn
