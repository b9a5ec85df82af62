// Package api declares the types of Paramecium's public embedding
// surface: the object architecture of the paper — objects exporting
// named interfaces of "methods, state pointers and type information" —
// as seen by programs that embed the kernel.
//
// The package contains declarations only. Booting a system, creating
// objects and binding names is done through the root paramecium
// package; everything returned from there is expressed in these types.
package api

import (
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/ring"
	"paramecium/internal/shm"
	"paramecium/internal/trace"
)

// Method is a late-bound method implementation. Arguments and results
// are dynamically typed; the interface declaration carries the arity
// used for call validation, mirroring the paper's "type information".
type Method = obj.Method

// MethodDecl declares one method of an interface: its name, arity and
// (once part of an InterfaceDecl) its dispatch slot.
type MethodDecl = obj.MethodDecl

// InterfaceDecl is the type information of a named interface. Decls
// are immutable after construction and may be shared between many
// objects.
type InterfaceDecl = obj.InterfaceDecl

// Invoker is the universal calling surface of a bound interface.
// Objects, interposers and cross-domain proxies all satisfy it. The
// hot path is Resolve once, Call many times; Invoke is the string
// compatibility path.
type Invoker = obj.Invoker

// MethodHandle is a pre-resolved method binding whose Call dispatches
// by slot index with no per-call name lookup or lock. CallInto is the
// allocation-free variant: the caller supplies the result buffer, and
// a method bound in the buffer-threading form (BindInto) appends its
// results without allocating.
type MethodHandle = obj.MethodHandle

// MethodInto is the buffer-threading form of a method implementation:
// results are appended to a caller-owned slice, which is what keeps
// the single-call invocation hot path allocation-free. Bind one with
// BoundInterface.BindInto.
type MethodInto = obj.MethodInto

// Batch is an ordered list of pre-resolved invocations executed
// together. In the default in-order mode, consecutive entries
// resolved through one cross-domain proxy are vectored across the
// protection boundary in a single crossing — one trap, one
// context-switch pair, N slot dispatches — amortizing the fixed
// crossing cost over the group; Batch.SetMode(BatchGrouped) instead
// partitions a mixed-target batch by target and pays one crossing per
// DISTINCT target, reordering execution across targets (never within
// one). Per-entry results and errors are read back with Results, in
// queue order in both modes.
type Batch = obj.Batch

// BatchMode selects how Batch.Run orders dispatch across targets:
// strictly in queue order (BatchInOrder, the default) or partitioned
// one-crossing-per-distinct-target (BatchGrouped). See Batch.
type BatchMode = obj.BatchMode

// Batch dispatch modes.
const (
	// BatchInOrder executes entries strictly in queue order; only
	// consecutive same-proxy entries share a crossing, so an
	// alternating mixed-target batch pays one crossing per entry.
	BatchInOrder = obj.InOrder
	// BatchGrouped partitions entries by target and pays one crossing
	// per distinct target, preserving per-target order but reordering
	// execution across targets. Opt in only when entries bound for
	// different targets are independent of each other.
	BatchGrouped = obj.Grouped
)

// BatchCall is one entry of a Batch.
type BatchCall = obj.BatchCall

// Batcher executes a group of pre-resolved calls in one protection
// crossing; the cross-domain proxy implements it. Custom Invoker
// implementations can supply their own via NewBatchableHandle.
type Batcher = obj.Batcher

// Instance is anything that can be registered in, and bound from, the
// name space: an object, a composition, an interposing agent or a
// proxy for an object in another protection domain.
type Instance = obj.Instance

// Object is a concrete component instance: methods plus instance
// data, exporting one or more named interfaces. Create one with
// System.NewObject so it is wired to the system's cycle meter.
type Object = obj.Object

// BoundInterface is an interface exported by a concrete object; bind
// method implementations to it with Bind or MustBind.
type BoundInterface = obj.BoundInterface

// Composition is an object composed of other object instances,
// exporting interfaces (typically re-exported from its children) like
// any object.
type Composition = obj.Composition

// Interposer is an interposing agent: it exports a superset of the
// original object's interfaces, reimplements the methods it sees fit
// and forwards the others.
type Interposer = obj.Interposer

// WrapFunc reimplements one method of an interposed interface; next
// invokes the original implementation.
type WrapFunc = obj.WrapFunc

// Errors shared by every Invoker implementation.
var (
	// ErrNoInterface reports an interface name the instance does not
	// export.
	ErrNoInterface = obj.ErrNoInterface
	// ErrNoMethod reports a method name the interface does not
	// declare. Both Invoke and Resolve return it.
	ErrNoMethod = obj.ErrNoMethod
	// ErrUnbound reports a declared method with no implementation
	// bound yet.
	ErrUnbound = obj.ErrUnbound
	// ErrArity reports an argument or result list whose length
	// contradicts the method's type information.
	ErrArity = obj.ErrArity
)

// NewInterfaceDecl builds an interface declaration, assigning each
// method a dispatch slot. Method names must be unique.
func NewInterfaceDecl(name string, methods ...MethodDecl) (*InterfaceDecl, error) {
	return obj.NewInterfaceDecl(name, methods...)
}

// MustInterfaceDecl is NewInterfaceDecl that panics on error; intended
// for package-level declarations of well-known interfaces.
func MustInterfaceDecl(name string, methods ...MethodDecl) *InterfaceDecl {
	return obj.MustInterfaceDecl(name, methods...)
}

// NewMethodHandle builds a handle from a declaration and a dispatch
// function, for custom Invoker implementations that supply their own
// dispatch path.
func NewMethodHandle(decl *MethodDecl, dispatch Method) MethodHandle {
	return obj.NewMethodHandle(decl, dispatch)
}

// NewBatchableHandle is NewMethodHandle for Invoker implementations
// that can execute grouped calls in one crossing and/or thread
// caller-provided result buffers; see obj.NewBatchableHandle.
func NewBatchableHandle(decl *MethodDecl, dispatch Method, into MethodInto, batcher Batcher, key any) MethodHandle {
	return obj.NewBatchableHandle(decl, dispatch, into, batcher, key)
}

// NewBatch returns an empty batch with room for n entries. A batch is
// reusable via Reset; see Batch.
func NewBatch(n int) *Batch { return obj.NewBatch(n) }

// SegmentRights is the access a shared-memory grant confers: RO maps
// the segment read-only in the grantee's protection domain, RW maps it
// read-write. The segment's owner always has read-write access.
type SegmentRights = shm.Rights

// Shared-memory grant rights.
const (
	RO SegmentRights = shm.RO
	RW SegmentRights = shm.RW
)

// GrantRef is the unforgeable capability naming one shared-memory
// grant. It is a single 64-bit word, so it crosses the invocation
// plane as one copied word — pass it as an ordinary call argument and
// the grantee attaches the segment instead of receiving copied bytes.
// The proxy validates grant arguments before paying for the crossing:
// a forged, revoked or misaddressed ref fails the call up front.
type GrantRef = shm.GrantRef

// Attachment is a grantee's live mapping of a shared segment: Load and
// Store move bytes through the grantee's own MMU context, charged as
// that domain's memory traffic — never as invocation-plane copies.
// After the grant is revoked, both fail with ErrSegmentRevoked.
type Attachment = shm.Attachment

// Shared-memory errors.
var (
	// ErrSegmentRevoked reports an attach or access through a revoked
	// grant: access was withdrawn, distinct from a never-issued ref.
	ErrSegmentRevoked = shm.ErrRevoked
	// ErrNoGrant reports a grant reference the kernel never issued.
	ErrNoGrant = shm.ErrNoGrant
	// ErrSegmentReadOnly reports a store through an RO grant.
	ErrSegmentReadOnly = shm.ErrReadOnly
)

// Coalescer queues single calls into a Batch and auto-flushes at a
// size threshold or virtual-clock deadline derived from the measured
// break-even curve, so callers issuing calls one at a time still get
// vectored-crossing amortization. Create one with System.NewCoalescer
// or Handle.Coalesce.
type Coalescer = obj.Coalescer

// RingProducer is the publishing endpoint of a streaming ring: Push
// (or ProduceOffset/PushInPlace for zero-copy payloads), then Notify
// once per burst to ring the consumer's doorbell. Single-goroutine.
type RingProducer = ring.Producer

// RingConsumer is the draining endpoint of a streaming ring: Pop, or
// Peek/Release for in-place payload consumption. Single-goroutine.
type RingConsumer = ring.Consumer

// Streaming-ring errors.
var (
	// ErrRingFull reports a push the consumer hasn't made room for.
	ErrRingFull = ring.ErrFull
	// ErrRingEmpty reports a pop with no published records.
	ErrRingEmpty = ring.ErrEmpty
	// ErrRingHangup reports that the ring's peer is gone: the grant
	// backing the ring was revoked — by Producer.Hangup or by domain
	// teardown. Distinct from ErrNoGrant (a forged capability).
	ErrRingHangup = ring.ErrHangup
	// ErrRingCorrupt reports a ring control word the peer scribbled:
	// a record length beyond the slot size or a head/tail gap beyond
	// the slot count. Distinct from ErrRingHangup: the peer is still
	// attached, but its words cannot be trusted.
	ErrRingCorrupt = ring.ErrRingCorrupt
	// ErrRingRecordSize reports a record larger than the ring's slots.
	ErrRingRecordSize = ring.ErrRecordSize
)

// Tracer is a measurement interposer: it wraps every method of every
// interface an instance exports and counts and times each call in
// virtual cycles, without the target or its clients changing at all —
// the paper's "powerful monitoring tools" built out of interposition.
// Install one on a bound name with Handle.Trace.
type Tracer = trace.Tracer

// MethodStats aggregates one traced method's observations: calls,
// errors, total cycles inside the target, and a latency histogram.
type MethodStats = trace.MethodStats

// MethodSnapshot is one traced method's stats as copied out by
// Tracer.Snapshot: the "iface.method" key plus the stats value.
type MethodSnapshot = trace.MethodSnapshot

// Histogram is a power-of-two bucketed latency histogram; bucket i
// counts observations in [2^i, 2^(i+1)) virtual cycles.
type Histogram = trace.Histogram

// TraceEvent is one kernel flight-recorder event: a typed occurrence
// (crossing leg, batch dispatch, fault, TLB traffic, doorbell, grant
// motion, scheduler activity) stamped with its virtual-clock cycles,
// CPU and paying protection domain. A and B carry kind-specific
// operands; see the Observability section of ARCHITECTURE.md.
type TraceEvent = probe.Event

// TraceKind is the type tag of a flight-recorder event.
type TraceKind = probe.Kind

// LedgerRow is one protection domain's row of the per-domain cycle
// ledger: total attributed cycles plus per-operation cycle and count
// columns, frozen at domain destruction.
type LedgerRow = probe.RowSnapshot
