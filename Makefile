# Canonical build/test entry points — CI (.github/workflows/ci.yml) and
# the ROADMAP tier-1 command run these same targets.

GO ?= go

# Version-pinned staticcheck, fetched on demand via `go run` (no
# toolchain install, no go.mod entry). Bump deliberately.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build test race bench bench-smoke mem logbytes recover pairs loc lint staticcheck fmt clean

all: build test

## build: compile every package and command — and the benchmark, which is
## a module of its own (root ./... never sees it) compiled against this
## module's internal signatures: a change that breaks it must fail here,
## not in the benchmark driver
build:
	$(GO) build ./...
	cd benchmark && $(GO) build -o /dev/null ./...

## test: the tier-1 gate (build + full test suite), then the commit
## pipeline's packages again on one and two cores — a commit must be
## visible to its own committer's next Begin at any core count
test: build
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/core/... ./internal/mvcc/...
	GOMAXPROCS=2 $(GO) test -count=1 ./internal/core/... ./internal/mvcc/...

## race: full test suite under the race detector
race:
	$(GO) test -race ./...

## bench: the full experiment suite (minutes)
bench: build
	$(GO) run ./cmd/neograph-bench -json bench-results.json

## bench-smoke: quick experiment pass; writes bench-results.json
bench-smoke: build
	$(GO) run ./cmd/neograph-bench -quick -json bench-results.json

## mem: where the resident heap of the benchmark's graph goes, by
## allocation site, twice: as Open leaves it — no property key has index
## entries until a lookup names it — and with every key looked up
## (BenchmarkPropertyIndexBuild's last case; its rows are what a first
## lookup costs). Both benchmarks keep their last engine reachable for
## exactly this profile; B/entity and allocs/entity are in the benchmark's
## rows, which land in mem-bench.json as test2json lines
mem:
	$(GO) test -run '^$$' -bench 'LoadSocial|RecoverSocial/people=12000$$' -benchtime 1x -benchmem -memprofile mem.pprof -json . > mem-bench.json
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=15 mem.pprof
	$(GO) test -run '^$$' -bench 'PropertyIndexBuild/people=12000$$' -benchtime 1x -memprofile mem-indexed.pprof -json . >> mem-bench.json
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=15 mem-indexed.pprof
	@grep 'B/entity' mem-bench.json

## logbytes: what a commit of each of the benchmark's write shapes costs
## the log, the replication stream and every replica's log, and once
## checkpointed the store's files, in bytes (TestCommitRecordBudget holds
## both to a budget in tier-1), and the pages the checkpoint of 1 000 of
## them writes; the benchmark's rows land in commit-record-bytes.json as
## test2json lines
logbytes:
	$(GO) test -run '^$$' -bench CommitRecordBytes -benchtime 1x -json . > commit-record-bytes.json
	@grep 'B/commit' commit-record-bytes.json

## recover: what Open costs and what it grows with — the benchmark's graph
## and one ten times its size, reopened on 1, 2 and 4 processors: ns/op,
## B/entity, page-cache pins per store page and the time per stage
## (TestOpenPinsEachPageOnce holds the pins to a budget in tier-1) — and
## what Open no longer pays for: a property key's first lookup, at both
## sizes (entries, B/entry, commits held out, a concurrent writer's slowest
## commit). The rows land in recover-bench.json as test2json lines
recover:
	$(GO) test -run '^$$' -bench RecoverSocial -benchtime 2x -benchmem -cpu 1,2,4 -timeout 30m -json . > recover-bench.json
	$(GO) test -run '^$$' -bench PropertyIndexBuild -benchtime 2x -cpu 2 -timeout 30m -json . >> recover-bench.json
	@grep 'pins/page\|entries' recover-bench.json

## pairs: what a perf claim is judged by — `make pairs WORKLOAD=remote_mix,embed_mix
## PARENT=<sha> N=10`: N alternated parent/change pairs of the BENCHMARK.json
## benchmark per workload (parent from `git archive`, change from the working
## tree, each built in its own directory), then the change's full -json
## summary, all in ONE file, BENCH_<tree>.json (the change's tree object as
## measured; parent and tree are fields in it); per metric it prints both
## sides' medians and quartiles and in how many pairs the change was lower.
## ~70 s a pair: run nothing beside it
N ?= 10
pairs:
	$(GO) run ./internal/benchpairs -workload $(WORKLOAD) -parent $(PARENT) -n $(N)

## loc: the size a deletion PR is judged by — Go lines outside benchmark/
## (a module of its own, frozen between benchmark PRs) in tracked files and
## in new ones git does not ignore, without tests and with them
loc:
	@echo "non-test Go lines: $$(git ls-files -co --exclude-standard '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "all Go lines:      $$(git ls-files -co --exclude-standard '*.go' | grep -v '^benchmark/' | xargs cat | wc -l)"

## lint: go vet (benchmark module included) + gofmt diff check +
## log.Printf gate + wire-seam gates + one-session-cache gate +
## one-log-fold gate + staticcheck (pinned)
lint: staticcheck
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'log\.Printf\|log\.Println\|log\.Print(' \
		--include='*.go' --exclude='*_test.go' \
		. | grep -v '^\./cmd/' | grep -v '^\./examples/' | grep -v 'slog\.' || true); \
	if [ -n "$$out" ]; then \
		echo "raw stdlib log calls found (take a *log/slog.Logger):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'json\.NewEncoder(\|json\.NewDecoder(' \
		--include='*.go' --exclude='*_test.go' . \
		| grep -v '^\./internal/wire/\|^\./benchmark/\|^\./dump\.go:\|^\./internal/trace/handler\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "stream codec over a connection outside internal/wire (frame through wire.Conn):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'strings\.\(Contains\|HasPrefix\|HasSuffix\)([^,]*\([eE]rr\|\.Error\)' \
		--include='*.go' --exclude='*_test.go' client internal/server internal/partition || true); \
	if [ -n "$$out" ]; then \
		echo "error routed by its text (set and match wire.Response.Code):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'client\.Dial(' --include='*.go' --exclude='*_test.go' . \
		| grep -v '^\./client/\|^\./cmd/\|^\./examples/\|^\./internal/bench/\|^\./benchmark/' || true); \
	if [ -n "$$out" ]; then \
		echo "a component dialling its own sessions (borrow a session from the client session cache, client.Sessions):"; echo "$$out"; exit 1; fi
	@out=$$(grep -l 'case rec[A-Z]' --include='*.go' --exclude='*_test.go' -r internal/core | tr '\n' ' '); \
	if [ "$$out" != "internal/core/record.go " ]; then \
		echo "WAL record tags are case labels in [ $$out] (interpret a record in internal/core/record.go's fold only)"; exit 1; fi

## staticcheck: honnef.co/go/tools, version-pinned via `go run`. Skips
## with a warning when the module cannot be fetched (offline sandboxes);
## CI always has network, so the check is never skipped there.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "warning: staticcheck@$(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

clean:
	rm -f bench-results.json commit-record-bytes.json recover-bench.json mem-bench.json cpu.pprof mem.pprof mem-indexed.pprof neograph.test
