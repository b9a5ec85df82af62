package bench

import (
	"fmt"

	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/shm"
)

// The P6 experiment compares the two ways of moving bulk bytes between
// protection domains:
//
//   - copy: the payload rides the vectored invocation plane as a call
//     argument — the best copy path we have (batched, one crossing per
//     group), but every 8 payload bytes is still charged one
//     OpCopyWord on every transfer.
//   - share: the payload lives in a shared-memory segment granted to
//     the consumer, which attached it once (map + shootdown machinery
//     charged, included in the measurement) and per transfer receives
//     only a notify carrying the region offset — it reads the frame
//     descriptor in place, through its own MMU mapping.
//
// Both harnesses do equivalent per-transfer work (the consumer
// validates the transfer's 8-byte header) and both vector their calls
// in groups of BulkGroup, so the difference isolated is exactly the
// payload's trip through the invocation plane.

// BulkGroup is the vectoring factor both bulk-transfer harnesses use.
const BulkGroup = 16

// bulkSizes is the payload sweep of the P6 experiment and benchmark.
var bulkSizes = []int{256, 1024, 4096, 16384, 65536}

// BulkCopy is the copy-through-batch harness: each transfer carries
// the whole payload across the invocation plane as an argument.
type BulkCopy struct {
	W     *World
	put   obj.MethodHandle
	args  [][]any
	batch *obj.Batch
}

// NewBulkCopy boots a world with a sink service in its own domain and
// a client holding a pre-resolved handle plus pre-built argument
// lists, so the steady-state Run allocates nothing.
func NewBulkCopy(size int) *BulkCopy {
	w := NewWorld()
	decl := obj.MustInterfaceDecl("bench.bulk.v1",
		obj.MethodDecl{Name: "put", NumIn: 1, NumOut: 0})
	server := obj.New("bulk-sink", w.K.Meter)
	var seen byte
	bi, err := server.AddInterface(decl, &seen)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("put", func(out []any, args ...any) ([]any, error) {
		// Validate the delivered frame's header byte — the same
		// per-transfer work the share harness does in place.
		seen = args[0].([]byte)[0]
		return out, nil
	})
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	if err := w.K.Register("/services/bulk", server, serverDom.Ctx); err != nil {
		panic(err)
	}
	put, err := clientDom.ResolveMethod("/services/bulk", "bench.bulk.v1", "put")
	if err != nil {
		panic(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = 0x5A
	}
	args := make([][]any, BulkGroup)
	for i := range args {
		args[i] = []any{payload}
	}
	return &BulkCopy{W: w, put: put, args: args, batch: obj.NewBatch(BulkGroup)}
}

// Run performs n transfers, vectored in groups of BulkGroup.
func (h *BulkCopy) Run(n int) {
	for i := 0; i < n; {
		k := BulkGroup
		if rem := n - i; rem < k {
			k = rem
		}
		h.batch.Reset()
		for j := 0; j < k; j++ {
			if err := h.batch.Add(h.put, h.args[j]...); err != nil {
				panic(fmt.Sprintf("bench: bulk add: %v", err))
			}
		}
		if err := h.batch.Run(); err != nil {
			panic(fmt.Sprintf("bench: bulk run: %v", err))
		}
		i += k
	}
}

// BulkShare is the shared-segment harness: the payload lives in a
// segment the client owns and granted read-only to the server; each
// transfer is a vectored notify carrying only the region offset, and
// the server validates the header in place through its attachment.
type BulkShare struct {
	W     *World
	ready obj.MethodHandle
	args  [][]any
	batch *obj.Batch

	seg     *shm.Segment
	grant   *shm.Grant
	att     *shm.Attachment
	payload []byte
}

// NewBulkShare boots the world, creates the client-owned segment and
// its RO grant to the server domain, and binds the server's notify
// method, which reads the transfer's 8-byte header through the
// attachment. Prepare maps and fills the segment; Finish revokes it.
func NewBulkShare(size int) *BulkShare {
	w := NewWorld()
	pages := (size + 4095) / 4096
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")

	seg, err := w.K.Shm.NewSegment(clientDom.Ctx, pages)
	if err != nil {
		panic(err)
	}
	grant, err := seg.Grant(serverDom.Ctx, shm.RO)
	if err != nil {
		panic(err)
	}

	h := &BulkShare{W: w, seg: seg, grant: grant, payload: make([]byte, size)}
	for i := range h.payload {
		h.payload[i] = 0x5A
	}
	decl := obj.MustInterfaceDecl("bench.bulknotify.v1",
		obj.MethodDecl{Name: "ready", NumIn: 1, NumOut: 0})
	server := obj.New("bulk-reader", w.K.Meter)
	var hdr [8]byte
	bi, err := server.AddInterface(decl, &hdr)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("ready", func(out []any, args ...any) ([]any, error) {
		// Zero-copy consumption: the header is read IN PLACE through
		// the server's own mapping of the shared frames — the payload
		// behind it is the server's memory now, no copy needed.
		if err := h.att.Load(args[0].(int), hdr[:]); err != nil {
			return nil, err
		}
		return out, nil
	})
	if err := w.K.Register("/services/bulknotify", server, serverDom.Ctx); err != nil {
		panic(err)
	}
	ready, err := clientDom.ResolveMethod("/services/bulknotify", "bench.bulknotify.v1", "ready")
	if err != nil {
		panic(err)
	}
	h.ready = ready
	h.args = make([][]any, BulkGroup)
	for i := range h.args {
		h.args[i] = []any{0}
	}
	h.batch = obj.NewBatch(BulkGroup)
	return h
}

// Prepare performs the one-time zero-copy setup INSIDE the caller's
// measurement window: the server attaches the granted segment (map
// charges) and the client produces the payload into it. Amortized over
// a run, this is the "cycles charged for map, not per byte" half of
// the claim.
func (h *BulkShare) Prepare() {
	att, err := h.W.K.Shm.Attach(h.grant.Ref())
	if err != nil {
		panic(err)
	}
	h.att = att
	if err := h.seg.Store(0, h.payload); err != nil {
		panic(err)
	}
}

// Run performs n transfers: vectored notifies, header validated in
// place, zero payload bytes on the invocation plane.
func (h *BulkShare) Run(n int) {
	for i := 0; i < n; {
		k := BulkGroup
		if rem := n - i; rem < k {
			k = rem
		}
		h.batch.Reset()
		for j := 0; j < k; j++ {
			if err := h.batch.Add(h.ready, h.args[j]...); err != nil {
				panic(fmt.Sprintf("bench: notify add: %v", err))
			}
		}
		if err := h.batch.Run(); err != nil {
			panic(fmt.Sprintf("bench: notify run: %v", err))
		}
		i += k
	}
}

// Finish revokes the grant inside the measurement window: the unmap
// pays the per-remote-CPU TLB shootdown charge for any page a remote
// CPU still holds cached — the "plus shootdown" half of the claim
// (zero remotes on this single-CPU world, charged exactly as such).
// The revoke initiates from the boot CPU.
func (h *BulkShare) Finish() {
	if err := h.grant.RevokeFrom(mmu.BootCPU); err != nil {
		panic(err)
	}
}

// P6BulkTransfer sweeps payload size over the copy-vs-share pair,
// reporting deterministic virtual cycles per transfer. Copy cost grows
// a word per 8 payload bytes; share cost is flat — the capability and
// notify words, the map amortized — so the advantage grows linearly
// with payload size, crossing 4x around the page size.
func P6BulkTransfer() Table {
	t := Table{
		ID:     "P6",
		Title:  "Bulk transfer: copy through the invocation plane vs shared-segment attach (virtual cycles per transfer)",
		Claim:  `contexts communicate through shared memory set up by the memory service: granting and mapping a segment moves bulk data between domains for the cost of the mapping — per-byte copy charges stay off the invocation plane entirely`,
		Header: []string{"bytes", "copy cycles/op", "share cycles/op", "share advantage", "payload words"},
	}
	const ops = 1024
	for _, size := range bulkSizes {
		copyCost := func() float64 {
			h := NewBulkCopy(size)
			watch := h.W.K.Meter.Clock.StartWatch()
			h.Run(ops)
			return float64(watch.Elapsed()) / ops
		}()
		shareCost := func() float64 {
			h := NewBulkShare(size)
			watch := h.W.K.Meter.Clock.StartWatch()
			h.Prepare()
			h.Run(ops)
			h.Finish()
			return float64(watch.Elapsed()) / ops
		}()
		t.AddRow(size,
			fmt.Sprintf("%.1f", copyCost),
			fmt.Sprintf("%.1f", shareCost),
			fmt.Sprintf("%.2fx", copyCost/shareCost),
			size/8)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("deterministic virtual cycles; both paths vector calls in groups of %d and validate the 8-byte transfer header", BulkGroup),
		"share includes attach (map) and revoke (TLB-shootdown path) inside the measured window, amortized over the run",
		"copy pays OpCopyWord per 8 payload bytes on EVERY transfer; share pays it only for bytes the consumer actually touches")
	return t
}
