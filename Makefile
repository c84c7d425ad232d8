GO ?= go

.PHONY: all build vet fmt-check test race bench-smoke bench-build orb-loc no-poll no-sleep api-census verify bench5 bench6 bench7 allocguard zerocopy-guard chaos fuzz-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# fmt-check fails on any tracked Go file gofmt would rewrite. It lists the
# files git tracks, so build directories such as .bench_build/ are never read.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

# race is the concurrency gate: everything must compile and vet clean, then
# the full test suite runs under the race detector (the flight recorder,
# sharded counters, and port/pool gauges are all exercised concurrently).
race: build vet
	$(GO) test -race ./...

# allocguard compares the steady-state round trip's allocation profile with
# telemetry recording on and off, plus the collocated ORB invocation and the
# Wire variant (the remote lock-step path: synchronous ORB over the
# in-process transport, InvokeView); every variant must be 0 allocs/op (the
# two ORB ones 0 counted payload copies too), and one Wire invocation must
# enter exactly 3 scopes and overflow into none. Under them all, a buffered
# write and the read that drains it on the in-process transport allocate
# nothing, deadline set or not, and neither does an In port's push + pop,
# plain, tenant-classed or contested, nor a send to a synchronous port, with the sender's context
# or without or three nested in the Fig. 6 shape (each on a call frame, so
# the same guard holds under -race in `make race`), nor a scratch buffer, whether it fits the area its thread
# stands in or overflows into a nested pooled one, nor a sched.Signal Notify
# with nobody waiting (every release of a component calls one), nor an
# overload controller's Admit + Done, untiered or for a registered tenant.
# A remote invocation allocates only the copies its contract asks for —
# InvokeView none, on one connection or spread over two members. Parsing
# the paper's CDL and CCL listings stays under a few dozen allocations, so
# a reflective decoder (192 and 323) cannot come back unseen.
# Set-up is guarded too: standing an ORB server and client up over the
# in-process transport, one Invoke and closing both allocates under 256 KiB,
# because immortal and scoped memory commit only what they hold; a scoped
# area with a 1 MiB budget costs under 4 KiB to make, and one reclaimed
# through the same allocations stops allocating once warm. The scoped carve
# on every request, and the room check before it, must stay inlinable.
allocguard:
	$(GO) test -run 'TestSteadyStateRoundTripAllocFree|TestWireRoundTripScopeEnters|TestSetupHeapBytes' .
	$(GO) test -run TestScopedCommitsWhatItHolds ./internal/memory/
	@out=$$($(GO) build -gcflags=-m ./internal/memory/ 2>&1); for f in carveLocked ensureLocked; do \
		echo "$$out" | grep -q "can inline (\*Area).$$f" || { echo "(*Area).$$f is no longer inlinable"; exit 1; }; \
	done
	$(GO) test -run TestInvokeAllocsAreContractCopies ./internal/orb/
	$(GO) test -run TestAdmitDoneAllocFree ./internal/overload/
	$(GO) test -run TestScratchAllocFree ./internal/memory/
	$(GO) test -run TestInprocStreamAllocFree ./internal/transport/
	$(GO) test -run 'TestInPortPushPopAllocFree|TestSyncPortCallAllocFree' ./internal/core/
	$(GO) test -run TestSignalNotifyAllocFree ./internal/sched/
	$(GO) test -run TestParseAllocs ./internal/cdl/ ./internal/ccl/
	$(GO) test -run='^$$' -bench=BenchmarkSteadyStateRoundTrip -benchtime=20000x .
	$(GO) test -run='^$$' -bench=BenchmarkSyncPortCall -benchtime=20000x ./internal/core/

# zerocopy-guard pins the counted-copy contract: InvokeView delivers reply
# payloads with zero payload copies and zero frame detaches at steady state,
# while the copying Invoke is charged exactly one copy per call.
zerocopy-guard:
	$(GO) test -run 'TestInvokeViewZeroPayloadCopies|TestInvokeViewLoanScope' -count=1 ./internal/orb/

# fuzz-smoke explores the GIOP request, reply and locate decoders, the frame
# reader and the CDL and CCL decoders for five seconds each (-fuzz takes one
# target a run): never a panic, every body a GIOP decoder accepts
# re-marshals to one that decodes to an equal message, a locate reply's
# hostile forwarding count is refused before a list is built, the frame
# reader, fed any bytes in any chunks, reads what ReadMessageLimited reads
# and gives every slab back, and every document the CDL or CCL decoder
# accepts, encoding/xml accepts too and reads to an equal value. Minimizing
# one of the reader's stream inputs, or a locate reply with many addresses,
# takes longer than the run, so their new inputs are minimized for at most
# 100 executions. The seed corpora alone run with the tier-1 tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 5s ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzDecodeReply -fuzztime 5s ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzDecodeLocate -fuzztime 5s -fuzzminimizetime 100x ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzFrameReader -fuzztime 5s -fuzzminimizetime 100x ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzParseCDL -fuzztime 5s ./internal/cdl/
	$(GO) test -run '^$$' -fuzz FuzzParseCCL -fuzztime 5s ./internal/ccl/

# bench-smoke runs every benchmark a handful of iterations — enough to
# catch a bench that no longer compiles or errors out, without the cost of
# a full measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=10x . ./internal/transport/ ./internal/core/

# bench-build vets and tests the benchmark module (bench/, a module of its
# own that tier-1 `go test ./...` does not see) against the tree as it is, so
# an internal/* API change that breaks the benchmark fails here and not at
# the next benchmark run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# orb-loc prints the size of the component-structured ORB next to the
# hand-coded baseline it is judged against (ROADMAP aim 2), and of the
# component runtime, the scheduler, the memory model and the GIOP codec under
# it, and of the overload controller and the telemetry beside it, non-test
# lines — and is a ratchet: it fails when any of them is larger
# than its figure below, the size the last PR that shrank it landed at. A PR that shrinks one further lowers its figure; one that has to grow
# it deletes something first.
orb-loc:
	@fail=0; for d in internal/orb internal/rtzen internal/core internal/sched internal/memory internal/giop internal/overload internal/telemetry; do \
		n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); \
		printf '%-18s %5d lines\n' $$d $$n; \
		case $$d in internal/orb) max=3216;; internal/rtzen) max=453;; internal/core) max=2830;; \
			internal/sched) max=728;; internal/memory) max=1119;; internal/giop) max=1410;; \
			internal/overload) max=640;; internal/telemetry) max=996;; *) max=;; esac; \
		if [ -n "$$max" ] && [ $$n -gt $$max ]; then \
			echo "$$d is over the ratchet of $$max non-test lines"; fail=1; \
		fi; \
	done; exit $$fail

# no-poll is a ratchet on waiting: nothing in the component runtime, the
# memory model, the scheduler or the ORB sleeps to poll for a condition
# another goroutine could signal — such a wait is a sched.Signal Wait on a
# predicate, and whoever changes the state notifies. It fails on any
# time.Sleep in a non-test file there except the one pacing
# Client.withRetry's retries, which is a delay, not a wait.
no-poll:
	@awk '/^func /{fn=$$0} /time\.Sleep\(/ && fn !~ /withRetry/ {print FILENAME ":" FNR ": " $$0; bad=1} \
		END {if (bad) {print "polling sleeps: wait on a sched.Signal instead"; exit 1}}' \
		$$(ls internal/core/*.go internal/memory/*.go internal/sched/*.go internal/orb/*.go | grep -v _test.go)

# no-sleep is a ratchet on sleeping tests (ROADMAP 2(d)): a test that sleeps
# to let something happen is slow where the wait is long and flaky where it
# is short, and a wait on the condition is neither. It fails when the test
# files under internal/ call time.Sleep more often than the figure below,
# the count the last PR that cut it landed at; a PR that replaces a sleep
# with a wait lowers the figure.
no-sleep:
	@n=$$(grep -ro 'time\.Sleep(' --include='*_test.go' internal | wc -l); \
	printf 'time.Sleep calls in internal/ tests: %d\n' $$n; \
	if [ $$n -gt 34 ]; then echo "over the ratchet of 34: wait on the condition instead"; exit 1; fi

# api-census lists the exported identifiers under internal/ that no program
# (internal/, cmd/, examples/, bench/) names, each survivor with its reason.
# TestAPICensus fails on a new one, and on a survivor that has gained a
# caller or gone, so its table only shrinks; it runs with the tier-1 tests.
api-census:
	$(GO) test -count=1 -run '^TestAPICensus$$' -v .

verify: fmt-check vet build race bench-smoke bench-build zerocopy-guard allocguard orb-loc no-poll no-sleep api-census

# chaos is the resilience gate: the fault-injection suite — seeded fault
# network, circuit breaker, reconnect/retry, deadline teardown, overload
# shedding, transport error-chain parity, the invocation conformance table
# (every entry point × wire and collocated transports), the demux edge cases
# (stale replies, out-of-order completion, mid-flight connection death, the
# 64-invoker storm on 1, 2 and 4 processors), the idle-connection contract (a
# connection that dies with nobody waiting on it is found by the next
# invocation, on every transport; an idle client holds no goroutine), the
# cluster failover soak (kill one of three replicas
# under load: >=99% success, zero breaker trips, the re-added member takes
# traffic again), and the live-reconfiguration soaks (hot-swap under load,
# route-rebuild storm, rolling upgrades back and forth under traffic), and
# the collocated swap-under-traffic soak (closing the collocated member
# under full load: every invocation falls back to the wire, zero drops), and
# the component lifecycle (the reference-model histories, the Reusable
# revive/quiesce tests, the multi-core invoker storm), and the stream
# contract every transport connection keeps (in-process ring, TCP, fault
# wrapper: chunking, wrap-around, close, deadlines, backpressure, writer
# atomicity), and the In-port buffer replayed against its sort-based
# reference, and the synchronous port's call contract (whose scopes a send
# enters from where the sender stands, concurrent senders each running their
# own message, nested calls, Stop racing calls, which call frame each hop
# runs on and the fall-back past two), and the scratch buffer's
# overflow rule (threads sharing a held-open area fill it and not a byte
# more; requests parked in RequestProcessing, a handle on MessageProcessing,
# sixteen pipelined callers: every call succeeds, the overflow pools stay
# bounded), and a failed send's message ownership, and the wake-on-transition
# signal every wait rides (no lost wakeup across 64 waiters, deadlines kept,
# overlapping Drains and Stop), a Close that fails connections a Retarget is
# still retiring, and connection churn that interns no new labels, and the
# pinned scope entry a delivery makes on its reservation (refusals, no holder
# moves, the stack restored), Exec refusing a disposed instance, what each
# kind of In port counts, and the fuzz seeds of the GIOP decoders (request,
# reply, locate), the frame reader and the CDL and CCL decoders, and the
# latency window's records racing its swaps (each counted by exactly one) —
# under the race detector.
# Every fault schedule and history in these tests is seeded, so failures
# replay.
chaos:
	$(GO) test -race -count=1 \
		-run 'Fault|Chaos|Breaker|Restart|Deadline|CrossTalk|Idle|Retriable|Backoff|RetryBudget|Overflow|RemoveItem|OpError|ListenerCloseRace|Mux|Cluster|Replica|Overload|Brownout|AIMD|Swap|Rolling|Reconfig|RouteGen|Drain|Collocated|Conformance|Lifecycle|Reusable|ConcurrentInvokers|Stream|Inproc|PortBufferModel|SyncCall|Scratch|ScopeOverflow|SteadyStateMemory|SendConsumes|DispatchLosingToStop|Signal|ClientCloseFails|ConnectionLabels|EnterBelow|ExecRefuses|InPortStats|FuzzDecode|FuzzFrameReader|FuzzParseCDL|FuzzParseCCL|WindowSwapStorm' \
		./internal/fault/ ./internal/orb/ ./internal/core/ ./internal/memory/ ./internal/sched/ ./internal/transport/ ./internal/cluster/ ./internal/deploy/ ./internal/overload/ ./internal/telemetry/ ./internal/giop/ ./internal/cdl/ ./internal/ccl/

# bench5 regenerates BENCH_5.json, the cluster-failover snapshot: three
# replicas under sustained load with one member killed and re-added
# mid-run, recording per-phase goodput/p99, the failover gap, breaker
# trips (must be 0), and the re-added member's traffic.
bench5:
	$(GO) run ./cmd/benchharness -experiment bench5 -out BENCH_5.json

# bench6 regenerates BENCH_6.json, the overload-control snapshot: a
# controller-equipped server under a tiered storm (tier-1 + best-effort
# surging to ~10x nominal while tier-0 holds its rate), recording per-tier
# goodput/sheds/p99 per phase, the tier-0 p99 ratio vs unloaded (<= 1.5),
# the best-effort shed fraction (>= 0.9), and clean ladder de-escalation.
bench6:
	$(GO) run ./cmd/benchharness -experiment bench6 -out BENCH_6.json

# bench7 regenerates BENCH_7.json, the live-reconfiguration snapshot: the
# hot-swap pause distribution under sustained traffic (dropped must be 0)
# and a rolling upgrade of a 3-replica group (surfaced errors and breaker
# trips must both be 0, every member drained).
bench7:
	$(GO) run ./cmd/benchharness -experiment bench7 -out BENCH_7.json
