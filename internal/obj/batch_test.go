package obj

import (
	"errors"
	"fmt"
	"testing"
)

// batchTestIface builds an object with an into-bound counter and a
// plain failing method, returning the invoker.
func batchTestIface(t *testing.T) (Invoker, *int) {
	t.Helper()
	decl := MustInterfaceDecl("batch.v1",
		MethodDecl{Name: "inc", NumIn: 0, NumOut: 1},
		MethodDecl{Name: "fail", NumIn: 0, NumOut: 0},
	)
	o := New("counter", nil)
	n := new(int)
	bi, err := o.AddInterface(decl, n)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		*n++
		return append(out, n), nil
	})
	bi.MustBind("fail", func(...any) ([]any, error) {
		return nil, errors.New("boom")
	})
	iv, _ := o.Iface("batch.v1")
	return iv, n
}

// TestBatchLocalEntriesDispatchInOrder: a batch of local handles runs
// every entry in order, recording per-entry results.
func TestBatchLocalEntriesDispatchInOrder(t *testing.T) {
	iv, n := batchTestIface(t)
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	for i := 0; i < 4; i++ {
		if err := b.Add(inc); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if *n != 4 {
		t.Fatalf("counter = %d, want 4", *n)
	}
	for i := 0; i < b.Len(); i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got := *(res[0].(*int)); got != 4 {
			// The into-form returns the state pointer; all entries see
			// the final count.
			t.Fatalf("entry %d result = %d, want 4", i, got)
		}
	}
}

// TestBatchPartialFailureContinues: a failing entry records its error
// and the remaining entries still execute — batch semantics are N
// independent calls, not a transaction.
func TestBatchPartialFailureContinues(t *testing.T) {
	iv, n := batchTestIface(t)
	inc, _ := iv.Resolve("inc")
	fail, _ := iv.Resolve("fail")
	b := NewBatch(3)
	_ = b.Add(inc)
	_ = b.Add(fail)
	_ = b.Add(inc)
	if err := b.Run(); err != nil {
		t.Fatalf("local batch returned group error: %v", err)
	}
	if *n != 2 {
		t.Fatalf("counter = %d, want 2 (entries after the failure must run)", *n)
	}
	if _, err := b.Results(0); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	if _, err := b.Results(1); err == nil {
		t.Fatal("failing entry recorded no error")
	}
	if _, err := b.Results(2); err != nil {
		t.Fatalf("entry 2: %v", err)
	}
}

// TestBatchAddValidatesArity: a malformed entry fails at Add, before
// anything runs.
func TestBatchAddValidatesArity(t *testing.T) {
	iv, n := batchTestIface(t)
	inc, _ := iv.Resolve("inc")
	b := NewBatch(1)
	if err := b.Add(inc, "unexpected"); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v, want ErrArity", err)
	}
	if err := b.Add(MethodHandle{}); !errors.Is(err, ErrUnbound) {
		t.Fatalf("err = %v, want ErrUnbound", err)
	}
	if b.Len() != 0 {
		t.Fatalf("len = %d after rejected adds", b.Len())
	}
	_ = b.Run()
	if *n != 0 {
		t.Fatal("rejected entry executed")
	}
}

// TestBatchResetReuses: Reset keeps capacity and drops entry state.
func TestBatchResetReuses(t *testing.T) {
	iv, _ := batchTestIface(t)
	inc, _ := iv.Resolve("inc")
	b := NewBatch(2)
	_ = b.Add(inc)
	_ = b.Add(inc)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("len = %d after Reset", b.Len())
	}
	_ = b.Add(inc)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Results(0); err != nil {
		t.Fatal(err)
	}
}

// recordingBatcher counts DispatchBatch groups and entries.
type recordingBatcher struct {
	groups  int
	entries int
}

func (r *recordingBatcher) DispatchBatch(calls []BatchCall, _ BatchMode) error {
	r.groups++
	r.entries += len(calls)
	for i := range calls {
		calls[i].SetResult(nil, nil)
	}
	return nil
}

// TestBatchGroupsConsecutiveSameBatcher: consecutive entries sharing
// a batcher form one group; an interleaved local entry splits them.
func TestBatchGroupsConsecutiveSameBatcher(t *testing.T) {
	iv, _ := batchTestIface(t)
	local, _ := iv.Resolve("fail") // plain local handle, no batcher
	rb := &recordingBatcher{}
	decl := &MethodDecl{Name: "remote", NumIn: 0, NumOut: 0}
	remote := NewBatchableHandle(decl,
		func(...any) ([]any, error) { return nil, nil }, nil, rb, nil)

	b := NewBatch(5)
	_ = b.Add(remote)
	_ = b.Add(remote)
	_ = b.Add(local)
	_ = b.Add(remote)
	_ = b.Add(remote)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if rb.groups != 2 || rb.entries != 4 {
		t.Fatalf("groups = %d entries = %d, want 2 groups of 4 entries", rb.groups, rb.entries)
	}
}

// TestBatchAddIntoThreadsBuffers: entries queued with AddInto land
// their results in the caller's own buffers, and a steady-state
// Reset-and-refill round over reused buffers allocates nothing — the
// vectored-plane twin of the single-call CallInto invariant.
func TestBatchAddIntoThreadsBuffers(t *testing.T) {
	iv, n := batchTestIface(t)
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}
	const size = 4
	b := NewBatch(size)
	bufs := make([][1]any, size)
	for i := 0; i < size; i++ {
		if err := b.AddInto(inc, bufs[i][:0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if &res[0] != &bufs[i][0] {
			t.Fatalf("entry %d result not in the caller's buffer", i)
		}
	}
	if *n != size {
		t.Fatalf("counter = %d, want %d", *n, size)
	}

	// Steady state: rebuilt from the same buffers, a round allocates
	// nothing.
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for i := 0; i < size; i++ {
			if err := b.AddInto(inc, bufs[i][:0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddInto round allocates %.1f allocs, want 0", allocs)
	}
}

// TestBatchAddIntoValidatesLikeAdd: AddInto applies the same arity and
// zero-handle validation as Add.
func TestBatchAddIntoValidatesLikeAdd(t *testing.T) {
	iv, _ := batchTestIface(t)
	inc, _ := iv.Resolve("inc")
	var buf [1]any
	b := NewBatch(1)
	if err := b.AddInto(inc, buf[:0], "unexpected"); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v, want ErrArity", err)
	}
	if err := b.AddInto(MethodHandle{}, buf[:0]); !errors.Is(err, ErrUnbound) {
		t.Fatalf("err = %v, want ErrUnbound", err)
	}
}

// TestCallIntoZeroAlloc: the resolved into-path — dispatch, method
// body, results — allocates nothing when the caller supplies the
// result buffer. This is the single-call zero-allocation invariant
// the B0 benchmark gates in CI.
func TestCallIntoZeroAlloc(t *testing.T) {
	iv, _ := batchTestIface(t)
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}
	var buf [1]any
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := inc.CallInto(buf[:0])
		if err != nil || len(res) != 1 {
			t.Fatal("bad result")
		}
	})
	if allocs != 0 {
		t.Fatalf("CallInto allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestCallIntoFallsBackForPlainHandles: handles without an into form
// (custom NewMethodHandle dispatchers) still work through CallInto.
func TestCallIntoFallsBackForPlainHandles(t *testing.T) {
	decl := &MethodDecl{Name: "echo", NumIn: 1, NumOut: 1}
	h := NewMethodHandle(decl, func(args ...any) ([]any, error) {
		return []any{fmt.Sprint(args[0])}, nil
	})
	var buf [1]any
	res, err := h.CallInto(buf[:0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "7" {
		t.Fatalf("res = %v", res)
	}
}

// orderedBatcher is a recordingBatcher whose results encode dispatch
// order: entry j of a run gets result base+j, so a caller can verify
// both that its buffer received the right target's result and that
// the target saw its entries in the caller's relative order. The
// values stay under 256 so boxing them into the result interface
// never allocates (the runtime's static small-int boxes).
type orderedBatcher struct {
	recordingBatcher
	base int
	seq  int
}

func (o *orderedBatcher) DispatchBatch(calls []BatchCall, _ BatchMode) error {
	o.groups++
	o.entries += len(calls)
	for i := range calls {
		c := &calls[i]
		c.SetResult(append(c.Out(), o.base+o.seq), nil)
		o.seq++
	}
	return nil
}

// groupedFixture builds k ordered batchers with distinct result bases
// and one batchable handle per batcher.
func groupedFixture(k int) ([]*orderedBatcher, []MethodHandle) {
	bs := make([]*orderedBatcher, k)
	hs := make([]MethodHandle, k)
	for i := range bs {
		bs[i] = &orderedBatcher{base: i * 50}
		decl := &MethodDecl{Name: "remote", NumIn: 0, NumOut: 1}
		hs[i] = NewBatchableHandle(decl,
			func(...any) ([]any, error) { return nil, nil }, nil, bs[i], nil)
	}
	return bs, hs
}

// TestBatchGroupedOneCrossingPerTarget: a grouped batch round-robining
// k targets dispatches exactly ONE group per distinct target — the
// multi-target vectoring contract — where in-order mode pays one
// group per entry on the same interleave.
func TestBatchGroupedOneCrossingPerTarget(t *testing.T) {
	const k, size = 3, 12
	bs, hs := groupedFixture(k)

	b := NewBatch(size)
	for i := 0; i < size; i++ {
		if err := b.Add(hs[i%k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Crossings(); got != size {
		t.Fatalf("in-order crossings = %d, want %d (one per entry on an interleave)", got, size)
	}
	for i, rb := range bs {
		if rb.groups != size/k {
			t.Fatalf("in-order target %d saw %d groups, want %d", i, rb.groups, size/k)
		}
		rb.groups, rb.entries, rb.seq = 0, 0, 0
	}

	b.SetMode(Grouped)
	b.Reset()
	for i := 0; i < size; i++ {
		if err := b.Add(hs[i%k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Crossings(); got != k {
		t.Fatalf("grouped crossings = %d, want %d (one per distinct target)", got, k)
	}
	for i, rb := range bs {
		if rb.groups != 1 || rb.entries != size/k {
			t.Fatalf("grouped target %d saw %d groups of %d entries, want 1 group of %d",
				i, rb.groups, rb.entries, size/k)
		}
	}
}

// TestBatchGroupedScattersResults: a grouped Run with interleaved
// AddInto buffers across three targets lands every result in the
// caller's ORIGINAL entry slot — buffer identity and value both — with
// per-target dispatch order preserved, and a steady-state round over
// reused buffers allocates nothing (the P8 grouped rows hold this in
// CI).
func TestBatchGroupedScattersResults(t *testing.T) {
	const k, size = 3, 9
	bs, hs := groupedFixture(k)

	b := NewBatch(size)
	b.SetMode(Grouped)
	bufs := make([][1]any, size)
	fill := func() {
		b.Reset()
		for i := range bs {
			bs[i].seq = 0
		}
		for i := 0; i < size; i++ {
			if err := b.AddInto(hs[i%k], bufs[i][:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if &res[0] != &bufs[i][0] {
			t.Fatalf("entry %d result not in the caller's buffer", i)
		}
		// Entry i is the (i/k)'th entry queued for target i%k, so its
		// result must be that target's base plus that rank: the scatter
		// landed the right target's right dispatch in the right slot.
		if want := bs[i%k].base + i/k; res[0] != want {
			t.Fatalf("entry %d result = %v, want %d", i, res[0], want)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		fill()
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state grouped round allocates %.1f allocs, want 0", allocs)
	}
}

// TestBatchGroupedLocalEntriesKeepOrder: batcher-less local entries
// form their own partition and run in their original relative order;
// their results land in their original slots like everyone else's.
func TestBatchGroupedLocalEntriesKeepOrder(t *testing.T) {
	iv, n := batchTestIface(t)
	inc, _ := iv.Resolve("inc")
	_, hs := groupedFixture(1)

	b := NewBatch(4)
	b.SetMode(Grouped)
	_ = b.Add(inc)
	_ = b.Add(hs[0])
	_ = b.Add(inc)
	_ = b.Add(hs[0])
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Crossings() != 1 {
		t.Fatalf("crossings = %d, want 1 (locals never cross)", b.Crossings())
	}
	if *n != 2 {
		t.Fatalf("counter = %d, want 2", *n)
	}
	for _, i := range []int{0, 2} {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("local entry %d: %v", i, err)
		}
		if got := *(res[0].(*int)); got != 2 {
			t.Fatalf("local entry %d result = %d, want 2", i, got)
		}
	}
	for _, i := range []int{1, 3} {
		if res, err := b.Results(i); err != nil || res[0] != (i-1)/2 {
			t.Fatalf("remote entry %d = (%v, %v), want rank %d", i, res, err, (i-1)/2)
		}
	}
}

// TestBatchGroupedPartialFailure: a group-level dispatch error from
// one target is returned by Run, but every other partition still
// dispatches — grouped mode keeps the not-a-transaction semantics.
func TestBatchGroupedPartialFailure(t *testing.T) {
	bs, hs := groupedFixture(2)
	failing := &failingBatcher{}
	decl := &MethodDecl{Name: "remote", NumIn: 0, NumOut: 1}
	fh := NewBatchableHandle(decl,
		func(...any) ([]any, error) { return nil, nil }, nil, failing, nil)

	b := NewBatch(6)
	b.SetMode(Grouped)
	_ = b.Add(hs[0])
	_ = b.Add(fh)
	_ = b.Add(hs[1])
	_ = b.Add(hs[0])
	_ = b.Add(fh)
	_ = b.Add(hs[1])
	if err := b.Run(); err == nil || err.Error() != "route down" {
		t.Fatalf("err = %v, want the failing partition's group error", err)
	}
	if b.Crossings() != 3 {
		t.Fatalf("crossings = %d, want 3 (failed partitions still count)", b.Crossings())
	}
	for i, rb := range bs {
		if rb.groups != 1 || rb.entries != 2 {
			t.Fatalf("surviving target %d saw %d groups of %d entries, want 1 of 2", i, rb.groups, rb.entries)
		}
	}
	// The failing partition's entries carry its per-entry errors.
	for _, i := range []int{1, 4} {
		if _, err := b.Results(i); err == nil {
			t.Fatalf("entry %d of the failed partition recorded no error", i)
		}
	}
}

// failingBatcher fails the whole group: route-level error plus
// per-entry errors, the shape proxy dispatch produces for a condemned
// target.
type failingBatcher struct{}

func (f *failingBatcher) DispatchBatch(calls []BatchCall, _ BatchMode) error {
	err := errors.New("route down")
	for i := range calls {
		calls[i].SetResult(nil, err)
	}
	return err
}

// TestBatchGroupedUncomparableBatcher: a Batcher of an uncomparable
// dynamic type never groups — not even with itself — so each of its
// entries forms a partition of one, exactly the groups in-order mode
// would form; nothing panics.
func TestBatchGroupedUncomparableBatcher(t *testing.T) {
	counts := &recordingBatcher{}
	ub := uncomparableBatcher{counts: counts, pad: make([]int, 1)}
	decl := &MethodDecl{Name: "remote", NumIn: 0, NumOut: 0}
	h := NewBatchableHandle(decl,
		func(...any) ([]any, error) { return nil, nil }, nil, ub, nil)

	b := NewBatch(3)
	b.SetMode(Grouped)
	for i := 0; i < 3; i++ {
		_ = b.Add(h)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if counts.groups != 3 || counts.entries != 3 {
		t.Fatalf("groups = %d entries = %d, want 3 partitions of one", counts.groups, counts.entries)
	}
	if b.Crossings() != 3 {
		t.Fatalf("crossings = %d, want 3", b.Crossings())
	}
}

// uncomparableBatcher's dynamic type has a slice field, so interface
// comparison would panic if sameBatcher compared it naively.
type uncomparableBatcher struct {
	counts *recordingBatcher
	pad    []int
}

func (u uncomparableBatcher) DispatchBatch(calls []BatchCall, mode BatchMode) error {
	return u.counts.DispatchBatch(calls, mode)
}

// TestBatchModeDefaultsAndSurvivesReset: the default mode is InOrder,
// SetMode sticks across Reset (like capacity), and the Stringer names
// both modes.
func TestBatchModeDefaultsAndSurvivesReset(t *testing.T) {
	b := NewBatch(1)
	if b.Mode() != InOrder {
		t.Fatalf("default mode = %v, want %v", b.Mode(), InOrder)
	}
	b.SetMode(Grouped)
	b.Reset()
	if b.Mode() != Grouped {
		t.Fatalf("mode after Reset = %v, want %v", b.Mode(), Grouped)
	}
	if InOrder.String() != "in-order" || Grouped.String() != "grouped" {
		t.Fatalf("mode names = %q, %q", InOrder.String(), Grouped.String())
	}
}
