// Tests for the kernel flight recorder's public surface: WithTracing,
// System.TraceSnapshot, Domain.Cycles and Handle.Trace. The acceptance
// invariants pinned here are the ones ARCHITECTURE.md's Observability
// section promises: recording is free in virtual time, every charged
// cycle lands in exactly one ledger row, per-CPU timelines come back in
// virtual-time order, and a destroyed domain's bill stays readable.
package paramecium_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium"
	"paramecium/api"
)

// traceWorkload drives every instrumented plane with fixed iteration
// counts: single calls, a vectored batch, segment traffic and a ring
// stream. Deterministic on a single CPU, so two runs bill identically.
func traceWorkload(t *testing.T, sys *paramecium.System) (client, worker *paramecium.Domain) {
	t.Helper()
	decl := api.MustInterfaceDecl("tracetest.calc.v1",
		api.MethodDecl{Name: "add", NumIn: 2, NumOut: 1})
	calc := sys.NewObject("calc")
	bi, err := calc.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("add", func(args ...any) ([]any, error) {
		return []any{args[0].(int) + args[1].(int)}, nil
	})
	if err := sys.Register("/svc/calc", calc); err != nil {
		t.Fatal(err)
	}

	client = sys.NewDomain("client")
	worker = sys.NewDomain("worker")
	h, err := client.Bind("/svc/calc")
	if err != nil {
		t.Fatal(err)
	}
	add, err := h.Resolve("tracetest.calc.v1", "add")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := add.Call(i, i); err != nil {
			t.Fatal(err)
		}
	}
	b := h.Batch(8)
	for i := 0; i < 8; i++ {
		if err := b.Add(add, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.CallBatch(b); err != nil {
		t.Fatal(err)
	}

	wh, err := worker.Bind("/svc/calc")
	if err != nil {
		t.Fatal(err)
	}
	wadd, err := wh.Resolve("tracetest.calc.v1", "add")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := wadd.Call(i, 2); err != nil {
			t.Fatal(err)
		}
	}

	seg, err := client.NewSegment(2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := seg.Grant(worker, api.RW)
	if err != nil {
		t.Fatal(err)
	}
	att, err := seg.Map(ref)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := att.Store(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := att.Load(64, buf[:64]); err != nil {
		t.Fatal(err)
	}
	if err := seg.Revoke(ref); err != nil {
		t.Fatal(err)
	}

	rg, err := client.NewRing(worker, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	prod, cons := rg.Producer(), rg.Consumer()
	rec := make([]byte, 16)
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 4; i++ {
			if err := prod.Push(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.Notify(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := cons.Pop(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rg.Close(); err != nil {
		t.Fatal(err)
	}
	return client, worker
}

// TestTraceCyclesUnperturbed: the recorder is the measurement
// apparatus, not part of the machine — the same workload bills exactly
// the same virtual cycles with tracing off and on. This is the claim
// the P10 benchmark's cross rows demonstrate; here it is asserted
// exactly.
func TestTraceCyclesUnperturbed(t *testing.T) {
	run := func(opts ...paramecium.Option) uint64 {
		sys, err := paramecium.Boot(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		traceWorkload(t, sys)
		return sys.Cycles()
	}
	off := run(paramecium.WithCPUs(1))
	on := run(paramecium.WithCPUs(1), paramecium.WithTracing(paramecium.TraceOptions{}))
	if off != on {
		t.Fatalf("tracing perturbed the virtual clock: %d cycles untraced, %d traced", off, on)
	}
	if off == 0 {
		t.Fatal("workload billed zero cycles — the comparison is vacuous")
	}
}

// TestTraceAcceptance: the end-to-end acceptance run on a 4-CPU system
// booted WithTracing — the ledger's grand total equals the meter clock,
// each CPU's timeline is ordered by virtual time, the Chrome export is
// loadable JSON, and a destroyed domain's ledger row survives frozen.
func TestTraceAcceptance(t *testing.T) {
	sys, err := paramecium.Boot(
		paramecium.WithCPUs(4),
		paramecium.WithTracing(paramecium.TraceOptions{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if !sys.Tracing() {
		t.Fatal("system booted WithTracing reports Tracing() == false")
	}

	client, worker := traceWorkload(t, sys)

	wc := worker.Cycles()
	if wc == 0 {
		t.Fatal("worker domain paid nothing — the workload missed it")
	}
	if err := worker.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := worker.Cycles(); got != wc {
		t.Fatalf("destroyed domain's bill changed: %d then %d", wc, got)
	}
	if client.Cycles() == 0 {
		t.Fatal("client domain paid nothing")
	}

	snap := sys.TraceSnapshot()

	// Every charged cycle lands in exactly one row: the ledger's grand
	// total is the virtual clock, to the cycle.
	var total uint64
	for _, row := range snap.Ledger {
		total += row.Total
	}
	if clock := sys.Cycles(); total != clock {
		t.Fatalf("ledger total %d != meter clock %d", total, clock)
	}

	// The destroyed worker's row is present and frozen, at its
	// pre-destroy total (teardown costs are billed before the freeze,
	// and Domain.Cycles above already pinned the post-destroy value).
	frozen := 0
	for _, row := range snap.Ledger {
		if row.Frozen {
			frozen++
			if row.Total != wc {
				t.Fatalf("frozen row bills %d cycles, worker paid %d", row.Total, wc)
			}
		}
	}
	if frozen != 1 {
		t.Fatalf("%d frozen rows, want exactly 1 (the destroyed worker)", frozen)
	}

	// Per-CPU timelines come back ordered by virtual time, stamped with
	// their own CPU, and non-empty in aggregate.
	if len(snap.Events) != 4 {
		t.Fatalf("%d event timelines, want 4 (one per CPU)", len(snap.Events))
	}
	events := 0
	for cpu, evs := range snap.Events {
		events += len(evs)
		for i, e := range evs {
			if e.CPU != cpu {
				t.Fatalf("cpu %d timeline holds event stamped cpu %d", cpu, e.CPU)
			}
			if i > 0 && e.Cycles < evs[i-1].Cycles {
				t.Fatalf("cpu %d timeline out of order at %d: %d after %d",
					cpu, i, e.Cycles, evs[i-1].Cycles)
			}
		}
	}
	if events == 0 {
		t.Fatal("no events recorded across any CPU")
	}

	// The Chrome export parses as trace_event JSON with one entry per
	// retained event plus per-CPU track metadata.
	var buf bytes.Buffer
	if err := snap.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) < events {
		t.Fatalf("chrome export has %d entries for %d recorded events",
			len(chrome.TraceEvents), events)
	}
}

// TestTraceRingLossIsReported: a ring too small for the workload laps,
// and the snapshot says so instead of truncating silently — every
// emitted event is either retained or counted as overwritten, and the
// timeline header carries the loss.
func TestTraceRingLossIsReported(t *testing.T) {
	sys, err := paramecium.Boot(
		paramecium.WithCPUs(1),
		paramecium.WithTracing(paramecium.TraceOptions{RingCapacity: 8}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	traceWorkload(t, sys)

	snap := sys.TraceSnapshot()
	if len(snap.Emitted) != 1 || len(snap.Dropped) != 1 || len(snap.Events) != 1 {
		t.Fatalf("snapshot covers %d/%d/%d CPUs, want 1", len(snap.Emitted), len(snap.Dropped), len(snap.Events))
	}
	if snap.Dropped[0] == 0 {
		t.Fatalf("8-slot ring reports no loss after %d events", snap.Emitted[0])
	}
	if got := snap.Dropped[0] + uint64(len(snap.Events[0])); snap.Emitted[0] != got {
		t.Fatalf("emitted %d != dropped %d + retained %d", snap.Emitted[0], snap.Dropped[0], len(snap.Events[0]))
	}
	var buf bytes.Buffer
	if err := snap.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("== cpu 0 (%d events, %d overwritten) ==\n", len(snap.Events[0]), snap.Dropped[0])
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("timeline header = %q, want prefix %q", strings.SplitN(buf.String(), "\n", 2)[0], want)
	}
}

// TestTracedGroupedBatchRace: a measurement tracer interposed on two
// server paths stays consistent while concurrent clients drive
// grouped-mode vectored batches through it — the satellite the CI race
// job exists to re-check. Counts are asserted exactly: nothing a racing
// tracer drops or double-counts survives this test under -race.
func TestTracedGroupedBatchRace(t *testing.T) {
	sys, err := paramecium.Boot(
		paramecium.WithCPUs(4),
		paramecium.WithTracing(paramecium.TraceOptions{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	decl := api.MustInterfaceDecl("racetrace.v1",
		api.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	const targets = 2
	var hits [targets]atomic.Int64
	for i := 0; i < targets; i++ {
		o := sys.NewObject("counter")
		n := &hits[i]
		bi, err := o.AddInterface(decl, nil)
		if err != nil {
			t.Fatal(err)
		}
		bi.MustBind("inc", func(...any) ([]any, error) {
			return []any{n.Add(1)}, nil
		})
		server := sys.NewDomain("server")
		path := "/svc/race" + string(rune('0'+i))
		if err := server.Register(path, o); err != nil {
			t.Fatal(err)
		}
		// Interpose the tracer BEFORE any client binds: all later binds
		// resolve through the measurement agent.
		kh, err := sys.Bind(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kh.Trace(); err != nil {
			t.Fatal(err)
		}
	}

	const clients, batches, size = 4, 10, 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dom := sys.NewDomain("client")
			incs := make([]api.MethodHandle, targets)
			for i := 0; i < targets; i++ {
				h, err := dom.Bind("/svc/race" + string(rune('0'+i)))
				if err != nil {
					errs <- err
					return
				}
				if incs[i], err = h.Resolve("racetrace.v1", "inc"); err != nil {
					errs <- err
					return
				}
			}
			for round := 0; round < batches; round++ {
				b := paramecium.NewBatch(size)
				b.SetMode(paramecium.BatchGrouped)
				for i := 0; i < size; i++ {
					if err := b.Add(incs[i%targets]); err != nil {
						errs <- err
						return
					}
				}
				if err := dom.CallBatch(b); err != nil {
					errs <- err
					return
				}
				for i := 0; i < size; i++ {
					if _, err := b.Results(i); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each target saw exactly its share of the entries...
	perTarget := int64(clients * batches * size / targets)
	for i := range hits {
		if got := hits[i].Load(); got != perTarget {
			t.Fatalf("target %d handled %d calls, want %d", i, got, perTarget)
		}
	}
	// ...and the interposed tracers counted every one of them.
	var traced uint64
	for _, tm := range sys.TraceSnapshot().Methods {
		for _, m := range tm.Methods {
			if m.Stats.Errors != 0 {
				t.Fatalf("traced method %s reports %d errors", m.Key, m.Stats.Errors)
			}
			traced += m.Stats.Calls
		}
	}
	if want := uint64(clients * batches * size); traced != want {
		t.Fatalf("tracers counted %d calls, want %d", traced, want)
	}
}
