package proxy

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
)

var batchDecl = obj.MustInterfaceDecl("test.batch.v1",
	obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1},
	obj.MethodDecl{Name: "fail", NumIn: 0, NumOut: 0},
)

func newBatchTarget(meter *clock.Meter) (*obj.Object, *atomic.Int64) {
	o := obj.New("batchtarget", meter)
	n := new(atomic.Int64)
	bi, err := o.AddInterface(batchDecl, n)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) {
		return []any{n.Add(1)}, nil
	}).MustBind("fail", func(...any) ([]any, error) {
		return nil, errors.New("target says no")
	})
	return o, n
}

// TestBatchCrossesOnce: a batch of N calls pays the trap, page-fault
// and context-switch-pair costs once, and the per-entry decode cost N
// times — the amortization that makes vectoring worth it.
func TestBatchCrossesOnce(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}

	const size = 8
	before := m.Meter.Snapshot()
	b := obj.NewBatch(size)
	for i := 0; i < size; i++ {
		if err := b.Add(inc); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	after := m.Meter.Snapshot()

	if n.Load() != size {
		t.Fatalf("counter = %d, want %d", n.Load(), size)
	}
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if res[0].(int64) != int64(i+1) {
			t.Fatalf("entry %d result = %v, want in-order execution", i, res[0])
		}
	}
	if got := after[clock.OpTrapEnter] - before[clock.OpTrapEnter]; got != 1 {
		t.Fatalf("trap entries = %d, want 1 for the whole batch", got)
	}
	if got := after[clock.OpPageFault] - before[clock.OpPageFault]; got != 1 {
		t.Fatalf("page faults = %d, want 1", got)
	}
	if got := after[clock.OpCtxSwitch] - before[clock.OpCtxSwitch]; got != 2 {
		t.Fatalf("context switches = %d, want 2 (one crossing pair)", got)
	}
	if got := after[clock.OpBatchEntry] - before[clock.OpBatchEntry]; got != size {
		t.Fatalf("batch-entry decodes = %d, want %d", got, size)
	}
	if got := after[clock.OpIndirect] - before[clock.OpIndirect]; got != size {
		t.Fatalf("indirect calls = %d, want %d", got, size)
	}
	if p.Calls() != size {
		t.Fatalf("Calls = %d, want %d (every entry counts)", p.Calls(), size)
	}
}

// TestSingleCallIsGroupOfOne: a single call crosses through the same
// handler as a Batch of one. Their meter deltas match op for op except
// the batch's one OpBatchEntry, and only the batch emits a
// KindBatchDispatch event.
func TestSingleCallIsGroupOfOne(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder(1, 256)
	m.Meter.EnableTracing(rec, probe.NewLedger(clock.LedgerSlots))
	defer m.Meter.DisableTracing()
	dispatches := func() int {
		k := 0
		for _, ev := range rec.Snapshot()[0] {
			if ev.Kind == probe.KindBatchDispatch {
				k++
			}
		}
		return k
	}

	if _, err := inc.Call(); err != nil { // warm-up
		t.Fatal(err)
	}
	before, t0 := m.Meter.Snapshot(), m.Meter.Clock.Now()
	if res, err := inc.Call(); err != nil || res[0].(int64) != 2 {
		t.Fatalf("single call = %v, %v, want [2]", res, err)
	}
	mid, t1 := m.Meter.Snapshot(), m.Meter.Clock.Now()
	if d := dispatches(); d != 0 {
		t.Fatalf("single calls emitted %d batch-dispatch events, want 0", d)
	}
	b := obj.NewBatch(1)
	if err := b.Add(inc); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	after, t2 := m.Meter.Snapshot(), m.Meter.Clock.Now()
	if res, err := b.Results(0); err != nil || res[0].(int64) != 3 || n.Load() != 3 {
		t.Fatalf("batch of one = %v, %v, want [3]", res, err)
	}
	if d := dispatches(); d != 1 {
		t.Fatalf("batch of one emitted %d batch-dispatch events, want 1", d)
	}

	for op := range before {
		single, batched := mid[op]-before[op], after[op]-mid[op]
		want := single
		if clock.Op(op) == clock.OpBatchEntry {
			want++
		}
		if batched != want {
			t.Errorf("%v: batch of one counted %d, want %d (single call %d)", clock.Op(op), batched, want, single)
		}
	}
	if single, batched := t1-t0, t2-t1; batched != single+m.Meter.Model.Cost(clock.OpBatchEntry) {
		t.Errorf("batch of one cost %d cycles, single call %d: want exactly one OpBatchEntry more", batched, single)
	}
	if p.Calls() != 3 || p.Crossings() != 3 {
		t.Fatalf("Calls/Crossings = %d/%d, want 3/3", p.Calls(), p.Crossings())
	}
}

// TestBatchPartialFailureMidBatch: a failing entry records its own
// error; entries before and after execute normally in one crossing.
func TestBatchPartialFailureMidBatch(t *testing.T) {
	f, svc, m := setup()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, _ := iv.Resolve("inc")
	fail, _ := iv.Resolve("fail")

	before := m.Meter.Snapshot()
	b := obj.NewBatch(3)
	_ = b.Add(inc)
	_ = b.Add(fail)
	_ = b.Add(inc)
	if err := b.Run(); err != nil {
		t.Fatalf("partial failure must not fail the group: %v", err)
	}
	after := m.Meter.Snapshot()

	if n.Load() != 2 {
		t.Fatalf("counter = %d, want 2 (entries after the failure still run)", n.Load())
	}
	if _, err := b.Results(0); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	if _, err := b.Results(1); err == nil || err.Error() != "target says no" {
		t.Fatalf("entry 1 err = %v, want the target's own error", err)
	}
	if _, err := b.Results(2); err != nil {
		t.Fatalf("entry 2: %v", err)
	}
	if got := after[clock.OpCtxSwitch] - before[clock.OpCtxSwitch]; got != 2 {
		t.Fatalf("context switches = %d, want 2 — the failure must not re-cross", got)
	}
}

// TestBatchIntoDestroyedContext: a batch through a proxy whose target
// context has been destroyed fails every entry with "target domain
// gone", exactly like a single call, and Run surfaces the group
// error.
func TestBatchIntoDestroyedContext(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(svc.NewDomain(), serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, _ := iv.Resolve("inc")
	if err := svc.DestroyDomain(serverCtx); err != nil {
		t.Fatal(err)
	}

	b := obj.NewBatch(4)
	for i := 0; i < 4; i++ {
		_ = b.Add(inc)
	}
	if err := b.Run(); err == nil {
		t.Fatal("batch into destroyed context reported no group error")
	}
	for i := 0; i < 4; i++ {
		if _, err := b.Results(i); err == nil {
			t.Fatalf("entry %d carried no error", i)
		}
	}
	if n.Load() != 0 {
		t.Fatalf("counter = %d, want 0 — no entry may execute in a dead context", n.Load())
	}
	_ = m
}

// TestBatchThroughCondemnedTarget: CloseTarget (the DestroyDomain
// inbound-drain path) condemns the context and closes the proxy; a
// batch issued afterwards fails every entry with ErrClosed — batches
// drain exactly like single calls.
func TestBatchThroughCondemnedTarget(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(svc.NewDomain(), serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, _ := iv.Resolve("inc")

	f.CloseTarget(serverCtx)
	if !p.Closed() {
		t.Fatal("CloseTarget left the proxy open")
	}
	b := obj.NewBatch(2)
	_ = b.Add(inc)
	_ = b.Add(inc)
	if err := b.Run(); !errors.Is(err, ErrClosed) {
		t.Fatalf("group err = %v, want ErrClosed", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Results(i); !errors.Is(err, ErrClosed) {
			t.Fatalf("entry %d err = %v, want ErrClosed", i, err)
		}
	}
	if n.Load() != 0 {
		t.Fatalf("counter = %d, want 0", n.Load())
	}
	// And no new proxy can open a route into the condemned context.
	if _, err := f.New(svc.NewDomain(), serverCtx, target); err == nil {
		t.Fatal("factory built a proxy onto a condemned context")
	}
	_ = m
}

// TestCloseDuringBatchesQuiesces: Close racing a storm of concurrent
// batches returns only when no call is executing in the target domain;
// batches cut off by the close fail whole (every entry ErrClosed),
// never half-applied after Close returned. Run with -race.
func TestCloseDuringBatchesQuiesces(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	target, n := newBatchTarget(m.Meter)
	p, err := f.New(svc.NewDomain(), serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.batch.v1")
	inc, _ := iv.Resolve("inc")

	const workers = 8
	const size = 4
	var completed atomic.Int64 // entries that reported success
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			b := obj.NewBatch(size)
			for {
				b.Reset()
				for i := 0; i < size; i++ {
					if err := b.Add(inc); err != nil {
						t.Error(err)
						return
					}
				}
				err := b.Run()
				ok := 0
				for i := 0; i < size; i++ {
					res, entryErr := b.Results(i)
					switch {
					case entryErr == nil:
						if res[0].(int64) <= 0 {
							t.Error("successful entry with bad result")
							return
						}
						ok++
					case errors.Is(entryErr, ErrClosed):
					default:
						t.Errorf("entry error = %v", entryErr)
						return
					}
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("group error = %v", err)
					}
					if ok != 0 {
						// A group error from Close means the handler
						// never saw the batch: no entry may have run.
						t.Errorf("closed batch half-applied: %d entries succeeded", ok)
					}
					return
				}
				completed.Add(int64(ok))
			}
		}()
	}
	close(start)
	// Let the storm run, then close underneath it.
	for n.Load() < int64(workers*size) {
		runtime.Gosched()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has returned: no call is executing in the target domain,
	// so the counter is frozen.
	frozen := n.Load()
	wg.Wait()
	if got := n.Load(); got != frozen {
		t.Fatalf("counter moved after Close returned: %d -> %d", frozen, got)
	}
	if completed.Load() == 0 {
		t.Fatal("no batch completed before the close")
	}
	_ = m
}
