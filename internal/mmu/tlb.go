package mmu

// tlb is a fully associative, ASID-tagged translation look-aside buffer
// with FIFO replacement. FIFO (rather than LRU) keeps the replacement
// behaviour trivially deterministic, which matters for reproducible
// experiment output.
//
// Each virtual CPU owns one tlb; the owning cpu's mutex guards every
// access, so the counters here are plain integers.
type tlb struct {
	size    int
	entries map[tlbKey]tlbEntry
	fifo    []tlbKey // insertion order, oldest first
	hits    uint64
	misses  uint64
	flushes uint64
	// shootdowns counts cross-CPU invalidations RECEIVED: entries this
	// TLB actually held that a Map/Unmap/Protect initiated on another
	// CPU had to shoot down (one IPI each in the cost model).
	shootdowns uint64
}

type tlbKey struct {
	ctx ContextID
	vpn uint64
}

type tlbEntry struct {
	frame uint64
	perm  Perm
}

func newTLB(size int) *tlb {
	return &tlb{
		size:    size,
		entries: make(map[tlbKey]tlbEntry, size),
	}
}

func (t *tlb) lookup(ctx ContextID, vpn uint64) (tlbEntry, bool) {
	e, ok := t.entries[tlbKey{ctx, vpn}]
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	return e, ok
}

func (t *tlb) insert(ctx ContextID, vpn, frame uint64, perm Perm) {
	k := tlbKey{ctx, vpn}
	if _, ok := t.entries[k]; ok {
		t.entries[k] = tlbEntry{frame: frame, perm: perm}
		return
	}
	for len(t.entries) >= t.size {
		t.evictOldest()
	}
	t.entries[k] = tlbEntry{frame: frame, perm: perm}
	t.fifo = append(t.fifo, k)
}

func (t *tlb) evictOldest() {
	for len(t.fifo) > 0 {
		k := t.fifo[0]
		t.fifo = t.fifo[1:]
		if _, ok := t.entries[k]; ok {
			delete(t.entries, k)
			return
		}
		// Stale FIFO slot (entry was invalidated); keep scanning.
	}
}

// present reports whether the TLB holds an entry for the page without
// touching the hit/miss counters (an invalidation probe, not a lookup).
func (t *tlb) present(ctx ContextID, vpn uint64) bool {
	_, ok := t.entries[tlbKey{ctx, vpn}]
	return ok
}

func (t *tlb) invalidate(ctx ContextID, vpn uint64) {
	delete(t.entries, tlbKey{ctx, vpn})
}

// invalidateContext removes every entry tagged with ctx and reports how
// many were held, so context teardown can tell which CPUs actually need
// an invalidation IPI.
func (t *tlb) invalidateContext(ctx ContextID) int {
	n := 0
	for k := range t.entries {
		if k.ctx == ctx {
			delete(t.entries, k)
			n++
		}
	}
	return n
}

func (t *tlb) flush() {
	clear(t.entries)
	t.fifo = t.fifo[:0]
	t.flushes++
}
