package obj

import (
	"fmt"
	"reflect"
)

// Batcher executes a group of pre-resolved calls together. The
// cross-domain proxy implements it to carry a whole group across the
// protection boundary in a single crossing — one trap, one
// context-switch pair — amortizing the fixed crossing cost over the
// group, the way active-message systems vector requests. Local
// handles have no batcher and dispatch one by one.
//
// DispatchBatch receives entries whose handles all name this batcher,
// and the mode of the Batch that formed the group (telemetry, not
// routing: dispatch semantics are the same in every mode). It records
// each entry's results or error with SetResult and returns an error
// only when the group as a whole could not be attempted (the route
// itself failed); per-call failures are per-entry state.
type Batcher interface {
	DispatchBatch(calls []BatchCall, mode BatchMode) error
}

// BatchCall is one queued invocation of a Batch: the resolved handle,
// its arguments, and — after Run — its results or error.
type BatchCall struct {
	h    MethodHandle
	args []any
	out  []any // caller-provided result buffer (AddInto); may be nil
	res  []any
	err  error
}

// NewBatchCall returns an entry calling h with args, its results
// appended to out (nil for none). A Batcher carries a single call
// through h as a group of one such entry, so single and grouped calls
// share one dispatch path.
func NewBatchCall(h MethodHandle, out []any, args ...any) BatchCall {
	return BatchCall{h: h, args: args, out: out}
}

// Decl returns the type information of the entry's method.
func (c *BatchCall) Decl() *MethodDecl { return c.h.decl }

// Args returns the entry's argument list. Batchers read it; callers
// must not mutate it between Add and Run.
func (c *BatchCall) Args() []any { return c.args }

// Key returns the batcher-private routing key of the entry's handle
// (see NewBatchableHandle). It is how a Batcher finds the target slot
// without a name lookup.
func (c *BatchCall) Key() any { return c.h.bkey }

// Out returns the entry's caller-provided result buffer (nil unless
// queued with AddInto). Batchers dispatch through it — CallInto-style —
// so the entry's results land in caller-owned storage without an
// allocation.
func (c *BatchCall) Out() []any { return c.out }

// SetResult records the entry's outcome. Batchers call it once per
// entry; result arity against the declaration is the batcher's (or its
// dispatch path's) responsibility, exactly as for a single call.
func (c *BatchCall) SetResult(res []any, err error) {
	c.res, c.err = res, err
}

// Results returns the entry's results or error after Run.
func (c *BatchCall) Results() ([]any, error) { return c.res, c.err }

// BatchMode selects how Batch.Run orders dispatch across targets; see
// the Batch documentation for the semantics of each mode.
type BatchMode int

const (
	// InOrder (the default) executes entries strictly in the order
	// they were added. Only maximal runs of CONSECUTIVE entries
	// sharing a Batcher vector in one crossing; a batch alternating
	// between two targets pays one crossing per entry.
	InOrder BatchMode = iota
	// Grouped partitions entries by target Batcher and pays ONE
	// crossing per distinct target, preserving per-target order but
	// reordering execution across targets. Opt in only when entries
	// bound for different targets are independent.
	Grouped
)

// String returns the mode's name.
func (m BatchMode) String() string {
	switch m {
	case InOrder:
		return "in-order"
	case Grouped:
		return "grouped"
	default:
		return fmt.Sprintf("BatchMode(%d)", int(m))
	}
}

// Batch is an ordered list of pre-resolved invocations executed
// together by Run. In the default InOrder mode, only maximal runs of
// CONSECUTIVE entries whose handles share a Batcher (calls through
// the same cross-domain proxy) are carried across the protection
// boundary in one crossing; everything else dispatches individually.
// Entries are never reordered — execution order is observable, so Run
// will not move an entry past one with a different target to enlarge
// a group.
//
// The mixed-target cost follows directly: in InOrder mode a batch
// alternating between two proxies (A, B, A, B, …) forms groups of one
// and pays a full crossing per entry — none of the 12x size-16
// amortization. SetMode(Grouped) is the fix for callers whose entries
// are independent across targets: Run partitions the batch by target,
// dispatches one crossing per DISTINCT target (two for the
// alternating batch above, however it is ordered), and scatters every
// result back to its original entry slot. The trade is observable:
// grouped execution preserves the relative order of entries sharing a
// target (and of plain local entries among themselves) but reorders
// execution ACROSS targets — partitions run in first-appearance
// order, each to completion. Do not use Grouped when a later entry on
// one target depends on an earlier entry on another having executed.
//
// A batch is not a transaction in either mode: a failing entry
// records its error and the rest still run — exactly the semantics of
// issuing the calls one by one, minus the repeated crossings.
//
// A Batch is reusable: Reset keeps the entry array's capacity (and
// the mode), so a steady-state caller building same-sized batches
// allocates nothing for the batch machinery — grouped partitioning
// included, whose scratch state is retained the same way. It is not
// safe for concurrent use; build and Run a batch from one goroutine
// (any number of goroutines may each run their own).
type Batch struct {
	calls []BatchCall
	mode  BatchMode

	// Grouped-mode scratch, retained across runs so steady-state
	// grouped dispatch allocates nothing. tidx assigns each entry a
	// partition; targets holds the distinct batchers in
	// first-appearance order (nil marks the local partition); scratch
	// is the partition-ordered entry copy handed to each Batcher and
	// perm maps each scratch position back to the caller's original
	// entry index for the result scatter.
	tidx    []int
	targets []Batcher
	scratch []BatchCall
	perm    []int

	// crossings counts the Batcher group dispatches the last Run
	// paid; see Crossings.
	crossings int
}

// NewBatch returns an empty batch with room for n entries.
func NewBatch(n int) *Batch {
	return &Batch{calls: make([]BatchCall, 0, n)}
}

// Add queues one invocation. Argument arity is validated immediately,
// so a malformed entry fails at Add rather than poisoning Run.
func (b *Batch) Add(h MethodHandle, args ...any) error {
	return b.AddInto(h, nil, args...)
}

// AddInto is Add with a caller-provided result buffer: the entry's
// results are appended to out (typically a zero-length slice over a
// reused array), exactly as MethodHandle.CallInto threads a buffer
// through a single call. A steady-state caller that reuses the batch
// (Reset) and its per-entry buffers completes whole vectored rounds
// with zero allocations for the batch machinery and results alike.
// After Run, the entry's Results are out plus exactly the method's
// results; the buffer's array is the caller's to reuse once read.
func (b *Batch) AddInto(h MethodHandle, out []any, args ...any) error {
	if h.into == nil {
		return fmt.Errorf("%w: batch entry through zero method handle", ErrUnbound)
	}
	if err := CheckArity(h.decl, args); err != nil {
		return err
	}
	b.calls = append(b.calls, BatchCall{h: h, args: args, out: out})
	return nil
}

// SetMode selects the dispatch mode of future Runs. The default is
// InOrder; Grouped opts in to one-crossing-per-distinct-target
// dispatch with its cross-target reordering — see Batch. The mode
// survives Reset, like the entry array's capacity.
func (b *Batch) SetMode(m BatchMode) { b.mode = m }

// Mode reports the batch's dispatch mode.
func (b *Batch) Mode() BatchMode { return b.mode }

// Crossings reports how many Batcher group dispatches the last Run
// paid. For entries resolved through cross-domain proxies every group
// dispatch is one protection crossing, so this is the crossing bill
// of the run: len(batch) in the worst in-order mixed case, the number
// of distinct targets in grouped mode. Entries with no batcher (local
// objects, interposers) dispatch without crossing and do not count.
func (b *Batch) Crossings() int { return b.crossings }

// Len reports the number of queued entries.
func (b *Batch) Len() int { return len(b.calls) }

// Call returns the i'th entry (for reading results after Run).
func (b *Batch) Call(i int) *BatchCall { return &b.calls[i] }

// Results returns the i'th entry's results or error after Run.
func (b *Batch) Results(i int) ([]any, error) { return b.calls[i].Results() }

// Reset empties the batch, keeping the entry array's capacity and
// dropping all value references so a pooled batch does not pin caller
// data.
func (b *Batch) Reset() {
	for i := range b.calls {
		b.calls[i] = BatchCall{}
	}
	b.calls = b.calls[:0]
}

// Run executes the batch. In InOrder mode (the default) entries run
// strictly in order: maximal runs of consecutive entries sharing one
// Batcher are handed to it as a group — one protection crossing for
// the whole run — while entries with no batcher (local objects,
// interposers) dispatch directly. In Grouped mode entries are
// partitioned by target first and each distinct target's partition
// dispatches as one group — one crossing per target, whatever the
// queueing order — with every result scattered back to its original
// entry slot. Per-entry results and errors land in the entries
// (Results); Run returns the first group-level dispatch error, if
// any, after attempting every group.
//
//paramecium:hotpath
func (b *Batch) Run() error {
	b.crossings = 0
	if b.mode == Grouped {
		return b.runGrouped()
	}
	var firstErr error
	calls := b.calls
	for i := 0; i < len(calls); {
		c := &calls[i]
		if c.h.batcher == nil {
			c.res, c.err = c.h.CallInto(c.out, c.args...)
			i++
			continue
		}
		j := i + 1
		for j < len(calls) && sameBatcher(calls[j].h.batcher, c.h.batcher) {
			j++
		}
		b.crossings++
		if err := c.h.batcher.DispatchBatch(calls[i:j], InOrder); err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	return firstErr
}

// runGrouped is Run's Grouped-mode body: multi-target vectoring. It
// assigns every entry to a partition (one per distinct Batcher, in
// first-appearance order, plus one for batcher-less local entries),
// gathers each partition into a contiguous scratch group preserving
// the entries' relative order, dispatches each group in ONE crossing,
// and scatters the results back to the caller's original entry slots.
// All scratch state is retained across runs, so the steady-state
// grouped path allocates nothing.
//
//paramecium:hotpath
func (b *Batch) runGrouped() error {
	calls := b.calls
	b.targets = b.targets[:0]
	b.tidx = b.tidx[:0]
	localIdx := -1
	for i := range calls {
		bt := calls[i].h.batcher
		idx := -1
		if bt == nil {
			if localIdx < 0 {
				b.targets = append(b.targets, nil)
				localIdx = len(b.targets) - 1
			}
			idx = localIdx
		} else {
			for j := range b.targets {
				if sameBatcher(b.targets[j], bt) {
					idx = j
					break
				}
			}
			if idx < 0 {
				// First entry for this target — or a batcher of an
				// uncomparable type, which sameBatcher never matches
				// (not even against itself), so each of its entries
				// forms its own partition of one: exactly the groups
				// InOrder mode would have formed.
				b.targets = append(b.targets, bt)
				idx = len(b.targets) - 1
			}
		}
		b.tidx = append(b.tidx, idx)
	}

	var firstErr error
	b.scratch = b.scratch[:0]
	b.perm = b.perm[:0]
	for k := range b.targets {
		if b.targets[k] == nil {
			// The local partition: nothing to amortize, so entries
			// dispatch directly, in their original relative order.
			for i := range calls {
				if b.tidx[i] != k {
					continue
				}
				c := &calls[i]
				c.res, c.err = c.h.CallInto(c.out, c.args...)
			}
			continue
		}
		start := len(b.scratch)
		for i := range calls {
			if b.tidx[i] == k {
				b.scratch = append(b.scratch, calls[i])
				b.perm = append(b.perm, i)
			}
		}
		group := b.scratch[start:len(b.scratch):len(b.scratch)]
		b.crossings++
		if err := b.targets[k].DispatchBatch(group, Grouped); err != nil && firstErr == nil {
			firstErr = err
		}
		// Scatter: each group entry's outcome lands back in the
		// caller's original entry slot, so readers index the batch
		// exactly as they queued it, whatever the partition order.
		for s := start; s < len(b.scratch); s++ {
			calls[b.perm[s]].res = b.scratch[s].res
			calls[b.perm[s]].err = b.scratch[s].err
		}
	}
	// Drop the scratch copies' value references so a reused batch
	// does not pin caller data between runs (Reset only clears the
	// entries themselves), and drop the target refs so scratch never
	// outlives a proxy it grouped for.
	clear(b.scratch)
	b.scratch = b.scratch[:0]
	clear(b.targets)
	b.targets = b.targets[:0]
	return firstErr
}

// sameBatcher reports whether two handles name the same Batcher,
// without panicking on Batcher implementations of uncomparable types
// (a struct with a slice or map field): those never group — each
// entry dispatches as its own batch of one, which is correct, just
// unamortized. Pointer-typed batchers (the cross-domain proxy)
// compare by identity.
func sameBatcher(a, b Batcher) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}
