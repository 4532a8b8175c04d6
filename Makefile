# Development targets. `make check` is what CI should run.

GO ?= go

.PHONY: all build test race vet fmt staticcheck cover bench-selftest check drain-policies alloc-pins poison fuzz cluster-smoke loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck runs if the binary is on PATH and is skipped (loudly)
# otherwise, so `make check` works in minimal environments. CI installs
# the pinned version (see .github/workflows/ci.yml) and always runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# drain-policies runs the stream runtime, the experiments and the root
# fan-out/sharing/alloc suites under the race detector at 1 and 4 CPUs, so
# both mailbox drain policies (producer-drained, the pool's one run queue) —
# at a thousand subscribers too, TestFanoutStealingMatchesSerialAtScale, and
# through a derived stream of two feeds, TestParallelDerivedCascade —
# concurrent CQTIME SYSTEM stamping, the rows a store's fires share with
# every member and with later fires, and the suites that subscribe, detach,
# fail and cascade under a pool (store faults, concurrent subscribe/
# unsubscribe, derived-stream cascades) are exercised whatever the runner's
# core count. The storage and exec packages ride along for the table scan
# whose snapshot predates concurrent appends and deletes, and the replication
# hub and the replica for the event a raw-archive channel publishes on the
# delivering goroutine, inside its commit and under the source's lock
# (primary ≡ followers by (table, RowID, row) at ParallelCQ 0 and 4), and for
# the cut: followers bootstrapping across DDL and checkpoints, and a checkpoint
# between the commits of pool workers (TestCheckpointUnderWorkers); paired
# stores (VISIBLE no multiple of ADVANCE) fire beside the others in
# TestFireRowsStayValid, TestEnrichEquivalenceReexec (store ≡ StateReexec)
# and TestIVMParallelRetraction at ParallelCQ 0 and 4, and an
# enrichment post stage's kept build side with writers in flight across the
# closes (TestEnrichKeptBuildUnderWriters, ≡ StateReexec), and an enrichment
# CQ's in-place view beside an identity CQ that comes and goes, each change
# of mode a full carve (TestInPlaceViewModeChange, ≡ StateReexec), and a
# CQ sorted by an aggregate it does not select, its post stage the plan's own
# tree over the store it shares with a dashboard (TestPlanSharingHiddenSort,
# ≡ StateReexec). The storage
# package also holds the run insert to its one lock acquisition there
# (TestInsertRunTakesTheLockOnce: a concurrent reader finds whole runs only).
# The plan cache's trees, checked out by concurrent snapshot queries with
# their own arguments beside a writer, ride along too (TestPlanCache*), and so
# do the cached trees whose aggregates fold what a writer appends between
# calls into the groups they kept (TestMaintained*: each call against a
# statement planned for it alone at the same snapshot), and so does the wire
# append whose memory the server's reader recycles when nothing kept it, with
# every kind of keeper coming and going between appends and pool workers
# applying them (TestWireAppendRecycleEquivalence, ≡ Engine.Append). The
# server, the shard router and the client ride along for the one session
# loop both front doors share: its batch pumps, an engine CQ's and a routed
# merge's, write beside responses and stop when the session ends.
drain-policies:
	$(GO) test -race -count=1 -cpu 1,4 ./internal/stream ./internal/experiments ./internal/storage ./internal/exec ./replica ./internal/repl ./internal/shard ./internal/server ./client
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestFanout|TestParallel|TestPlanSharing|TestIngestAllocs|TestSystemCQTime|TestFireRowsStayValid|TestInPlaceViewModeChange|TestStore|TestConcurrentSubscribeUnsubscribe|TestCascaded|TestDerivedStreamRecoveryCascade|TestCheckpointUnderWorkers|TestEnrichEquivalenceReexec|TestEnrichKeptBuildUnderWriters|TestIVMParallelRetraction|TestPlanCache|TestMaintained|TestWireAppendRecycleEquivalence' .

# alloc-pins runs the ownership property (a decoded batch is its container and
# two allocations a block — its values, its strings — where a block is at most
# 4 096 rows and 512 KiB of values and of strings, and shares memory with no
# frame and no other batch: internal/server/proto.go, types.CheckBatch; the
# window store keeps none of it, TestStoreKeysPinNoBatch), the sizes the
# byte pins are reckoned in (a Datum 16 bytes, a heap run 16), the heap's
# layout they rest on (a segment's words and NULL bitmaps hold no pointer, and
# a later segment's one object has its pointers in its header only,
# TestSegmentValuesNoPointers) and every
# allocation pin on the decode → commit → replicate path (decoding costs a
# constant a block whatever the rows, TestCodecAllocs, TestDecodeRowAllocs,
# TestDecodeRecordsAllocs, and a query response's columns none to encode and
# a slice and their names to decode, TestQueryResponseAllocs; an append over the wire costs the same on the
# primary and on a replica at 256 rows as at 1 024, and at most 2.2 and 4.0
# allocations a batch — 4.5 and 4.2 with two sessions appending to two streams
# in turn, whose names a replica's reader interns —, TestAppendAllocsPerBatch;
# one nothing keeps is decoded
# into the last one's memory, at most 3.5 a frame, TestDeadAppendAllocs; the
# per-request objects of the append round trip are reused by their owners — the
# client's call, the session's request and response, a channel's transaction,
# the log's commit group, the replica's reader — so a warm Client.Append of rows
# nothing keeps costs the whole process at most 4, TestAppendRoundTripAllocs;
# a follower reads and applies an archived batch in a per-event constant of at
# most 5, TestReplicaArchiveApplyAllocs; the
# hub's tail reads the ring in place, so a follower that keeps up costs an
# event's publish and send under 0.05 allocations, TestTailAllocs; a
# primary commits one in a few objects and under 16 bytes a row beyond the
# heap's and the one row slice, with no row header in the ring,
# TestArchiveCommitAllocs (40+16, was 40+24+16); the ring keeps a span of the
# heap's values a run, so it costs under a byte a row and allocates with its
# events / 256, not its rows, TestRingMemoryBounded, and an archived row costs
# the primary and a replica the heap's copy and a constant a batch (no +24 B
# header), TestArchivedRowMemoryBounded; a log append buys no
# buffer the size of its frame, TestAppendAllocs; a snapshot costs the same
# however many transactions ever aborted, TestSnapshotAllocsAfterTrim, and
# Begin and SnapshotNow nothing beside 1–3 transactions in flight,
# TestSnapshotAllocsInFlight; the
# server's row containers are views of the engine's, TestRowsViewAllocs), in
# the operators (an aggregate pays per chunk of groups, TestHashAggAllocsPerGroup;
# opened again it pays for its output rows only and keeps at most twice the
# groups it last used, TestHashAggReopenAllocsPerGroup, TestHashAggKeptGroupsMemoryBounded;
# a tree kept for its next execution keeps no row, TestReopenedTreePinsNoRow;
# a reopened top-5 Sort over an aggregate allocates the same bytes however
# many groups it reads, TestTopKSortBytesIndependentOfGroups) and in
# the window-state store, which recycles by expr.Recycler's one rule (first
# touch of a (slice, group) ≤ 0.1 allocations amortized; an expired slice is
# the next slice at no allocation; what it keeps is bounded by twice its
# groups and one boundary, and pins no batch,
# TestSliceRecycleAllocs, TestRecycledSliceMemoryBounded,
# TestRecycledSparesMemoryBounded, TestRecycledSlicePinsNoBatch; a group whose
# last partial expired waits one boundary and a key that recurs costs nothing,
# TestIdleGroupRevives, TestIdleGroupsMemoryBounded; a dropped group is the
# next new key's, whose key string is carved from a chunk the store owns, at
# most 0.1 allocations a new group, TestNewGroupAllocs, and waits until more
# than twice the groups held were made, so key churn costs a close nothing,
# TestStoreGroupChurnAllocs, TestRecycledGroupsMemoryBounded, and the chunks the groups and an in-place
# view's rows reach hold at most twice the live keys,
# TestStoreKeyChunksMemoryBounded; a view's window groups that leave it are its
# next newcomers' (a tumbling view's whole last window), so its in-place close
# costs nothing, TestTumblingRebuildAllocs, TestSlidingChurnAllocs (which also
# counts the key comparisons a close's arrivals and departures take),
# TestTumblingViewMemoryBounded, TestSlidingViewMemoryBounded; a client's RPC timeout costs a round trip
# nothing, TestRoundTripAllocs; an append of 4 keyed rows over the wire into a
# durable shard, directly or through a one-shard router, at most 8.5 and 10.8
# a row for the whole process, TestRouterAppendAllocs; a batch delivered to one of a
# hundred subscribers of one feed under the scheduler a bounded count,
# TestSharedFireAllocs; a telemetry snapshot one too, TestSysSnapshotAllocs;
# an enrichment
# fire independent of window rows, over the build side its post stage kept,
# through the tree it built at its first close, which keeps none of the rows
# it delivered, TestPostTreePinsNoFire, its view written in place so the fire
# costs what the post stage makes and a queue slot,
# and paying for the build again after a table write; HashJoin.Open over a
# kept side nothing; a fire two
# allocations, on a paired store too, and O(touched) bytes, and what its shared
# rows keep reachable at most two copies of the window; a fire in place
# nothing, TestInPlaceFireAllocs, and its rows at most two copies too,
# TestInPlaceViewMemoryBounded; the pool's run queue nothing a submit, take and
# requeue, TestRunQueueAllocs; an aggregate over a
# table scan O(groups) bytes, over a join O(build side)) and in a CQ's queue (a
# reader that keeps up costs it nothing, and it keeps no batch handed out,
# TestCQQueueAllocs, TestCQQueuePinsNoBatch) and in a derived stream's channel
# (APPEND copies an emission into one block and an index keys a row by a view
# of it, and a node split is one allocation that keeps no moved key,
# TestChannelWriteAllocs, TestBTreeSplitAllocs, TestBTreeSplitPinsNoDeletedKey;
# a REPLACE row is a copy of its own, which goes once vacuumed,
# TestReplaceChannelPinsNoBatch) and in the plan cache (a
# cached snapshot query costs its execution, not its planning,
# TestCachedQueryAllocs; a dropped table's heap goes with the next statement,
# TestPlanCachePinsNoDroppedHeap, and so do a maintained aggregate's groups and
# a kept build side, TestMaintainedAggregatePinsNoDroppedTable; an idle tree
# keeps no call's arguments, TestCachedTreePinsNoArgs) by name (Pins?No takes
# TestStoreKeysPinNoBatch and the Pins{NoBatch,NoFire,NoRow,NoDroppedHeap,
# NoDroppedTable,NoArgs,NoDeletedKey} tests) and without
# -race, which changes allocation counts: `test` runs them too, but a pin
# that only held under the race detector's counts would pass `race`.
alloc-pins:
	$(GO) test -count=1 -run 'Allocs|Ownership|MemoryBounded|Sizeof|Pins?No|Revives|BytesIndependent|NoPointers' ./internal/types ./internal/txn ./internal/wal ./internal/repl ./internal/server ./internal/storage ./internal/exec ./internal/ivm ./internal/stream ./internal/shard ./client .

# poison runs the root suites (the SQL suite, the equivalence suites), the
# experiments and the decoders' packages in poison mode (types.Poison): a row
# a join takes back from a consumer that declared it keeps none is overwritten
# with a sentinel at once, as internal/exec's own tests always run (its
# TestMain), and every decoder zeroes its scratch once a block is carved from
# it, so a row that aliased the scratch rather than its block reads garbage;
# the window-state store fills what it recycles with a sentinel that the
# recycler resets on reuse (expr.Recycler: an expired slice's partials, the
# window groups that left a view), so a view that still merged or retracted
# them fires garbage, not a quiet zero (a dropped group's key row holds one in
# every mode until a new key takes it; FuzzStoreLifecycle's seeds run here
# too), and fills an in-place view's rows
# with one after each close, so a consumer that kept such a row reads
# garbage and the next close must write every row again. A table scan's
# reused block (storage.Heap.Read into exec.SeqScan's and IndexScan's
# types.RowBlock, under a consumer that keeps no row) holds
# types.Recycled once it is taken back (RowBlock.Rewind), as a join's does;
# internal/storage runs here too, its scan tests reading through such blocks.
# The root suites include
# TestReopenEquivalence: one operator tree opened again, after a failed
# execution too, reads what a fresh one does, and TestWireAppendRecycleEquivalence:
# a batch the server's reader recycles is zeroed at once, so a keeper the
# engine failed to report reads garbage. internal/types runs the decoders'
# scratch itself (RowStrings) in poison mode. The stream runtime's own suites
# run half their cases (StateReexec) on raw stores, whose expired slices are
# emptied rather than poisoned, beside the poisoned aggregate slices.
poison:
	$(GO) test -count=1 -tags poison . ./internal/experiments ./internal/types ./internal/storage ./internal/server ./internal/wal ./internal/repl ./replica ./internal/ivm ./internal/stream

check: build fmt vet staticcheck test race drain-policies alloc-pins poison

# bench-selftest compiles, vets and self-tests the benchmark (bench/ is a
# module of its own, so `go build ./... && go test ./...` never sees it and
# an engine API change could break the instrument unnoticed), then runs
# every workload once at smoke length against its reference transcripts.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke -seed 1

# fuzz exercises the binary decoders (WAL batches, replication frames)
# that parse untrusted bytes off disk and off the wire (a run-shaped insert
# expands to what the per-row batch of the same rows decodes to), the tagged-JSON
# wire codec against the reflective codec it replaced (and the metrics
# samples that ride in it) — all three differentially, error for error and
# value for value, against the row decoders that allocated a string per
# VARCHAR, kept as test-only oracles, and each batch they accept carved as the
# ownership rule says — the shard router's batch split/merge
# round-trip and its aggregate merge (each shard's partials merged ≡ the
# whole batch aggregated, -0.0 and NaN among the values), the window-state equivalence property (what a store fires —
# several views of one store, aggregates with and without an inverse, with CQs
# detaching mid-run, beside CQs sqlgen writes from the fuzzer's bytes — ==
# what re-execution fires, for arbitrary append/advance/close sequences),
# the window store's lifecycle (inserts with key churn and bursts, closes in
# place or not, expiry, views attached and detached, over tumbling, sliding
# and paired extents: every view ≡ one built afresh from the retained slices,
# no row handed out of place rewritten, every recycler within its one rule),
# the row-key encoding every hash operator groups by (equal keys == equal
# rows, self-delimiting), the two-word Datum against the four-field one it
# replaced, every operation, and the SQL parser, on arbitrary bytes and on
# the statement the same bytes choose from its grammar (no panic, an error
# inside the input, a tree within maxNesting, and every SELECT prints as text
# that parses and prints the same), and the MVCC snapshot (a tape of Begin,
# Commit, Abort, SnapshotNow and Trim, more than 64 transactions in flight at
# times: every snapshot's visibility ≡ a reference model of sets), and the
# declared types (coalesce, CASE, greatest/least, arithmetic and set operations
# over mixed BIGINT/DOUBLE columns with NULLs: every value an answer holds is
# NULL or of its column's declared type, as a snapshot, a CQ and a shard merge).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzRowKey -fuzztime=$(FUZZTIME) ./internal/types
	$(GO) test -run=^$$ -fuzz=FuzzDatumRoundTrip -fuzztime=$(FUZZTIME) ./internal/types
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRecords -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEvent -fuzztime=$(FUZZTIME) ./internal/repl
	$(GO) test -run=^$$ -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSamples -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzShardSplitMerge -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sql
	$(GO) test -run=^$$ -fuzz=FuzzIVMEquivalence -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzStoreLifecycle -fuzztime=$(FUZZTIME) ./internal/ivm
	$(GO) test -run=^$$ -fuzz=FuzzSnapshot -fuzztime=$(FUZZTIME) ./internal/txn
	$(GO) test -run=^$$ -fuzz=FuzzDeclaredTypes -fuzztime=$(FUZZTIME) .

# cluster-smoke runs TestClusterSmoke alone, under the race detector: the
# test binary re-executes itself as two shard streamrelds, a router, a replica
# of one shard and a single-node reference, ingests the same keyed workload
# into both paths, and asserts the router's scatter-gather queries and merged
# CQ output match the single-node run byte for byte, the replica converges
# read-only with lag metrics, the federated /metrics agrees with each shard's
# own, and a lost shard degrades to flagged partial results. `test` runs it
# too, as part of ./...
cluster-smoke:
	$(GO) test -race -count=1 -run '^TestClusterSmoke$$' ./cmd/streamreld

# loc prints the non-test Go line count outside bench/ — the figure ROADMAP
# tracks and every PR states its delta of — per package directory (internal/
# by subpackage) and in total. Informational, not a gate. With BASE=<rev> it
# prints each package's delta from <rev> instead, counted by the same rule
# over a git archive of <rev> in a temporary directory.
LOC_COUNT = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	| xargs wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); key = (n == 2) ? "." : p[2]; \
		if (n > 3 && p[2] == "internal") key = p[2] "/" p[3]; \
		by[key] += $$1; all += $$1 } \
	END { for (k in by) printf "%7d  %s\n", by[k], k | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n", all }'
loc:
ifeq ($(BASE),)
	@$(LOC_COUNT)
else
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive --format=tar $(BASE) | tar -x -C "$$tmp" && \
	(cd "$$tmp" && $(LOC_COUNT)) > "$$tmp/.loc" && \
	$(LOC_COUNT) | awk 'NR == FNR { base[$$2] = $$1; keys[$$2]; next } { now[$$2] = $$1; keys[$$2] } \
		END { for (k in keys) if (k != "total") printf "%+7d  %s\n", now[k] - base[k], k | "sort -k2"; \
			close("sort -k2"); printf "%+7d  total\n", now["total"] - base["total"] }' "$$tmp/.loc" -
endif
