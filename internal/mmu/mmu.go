// Package mmu simulates a SPARC-flavoured memory management unit: MMU
// contexts with per-context page tables, per-CPU ASID-tagged TLBs and
// context registers, page protections and fault reporting.
//
// The MMU is the protection substrate for the whole reproduction. The
// Paramecium nucleus implements cross-domain calls, fault call-backs and
// page sharing on top of the primitives here, exactly as the paper's
// memory-management service does on real hardware.
//
// The machine may have any number of virtual CPUs (Config.CPUs). Each
// CPU carries its own current-context register and its own TLB with its
// own hit/miss/flush counters, so TLB locality is a per-CPU quantity
// exactly as on real multiprocessors. Translation is sharded: the
// contexts map is read-locked only to fetch a page table, and the walk
// itself takes that context's own lock — unrelated domains fault and
// translate fully in parallel.
package mmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/probe"
)

// PageSize is the size of a virtual and physical page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VAddr is a virtual address within some MMU context.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// VPN returns the virtual page number of the address.
func (a VAddr) VPN() uint64 { return uint64(a) >> PageShift }

// Offset returns the within-page offset of the address.
func (a VAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// PageBase returns the address of the start of the page containing a.
func (a VAddr) PageBase() VAddr { return a &^ (PageSize - 1) }

// Frame returns the physical frame number of the address.
func (p PAddr) Frame() uint64 { return uint64(p) >> PageShift }

// Perm is a page protection bit set.
type Perm uint8

// Protection bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Has reports whether every bit in want is present.
func (p Perm) Has(want Perm) bool { return p&want == want }

// String renders the permission in "rwx" form.
func (p Perm) String() string {
	b := []byte("---")
	if p.Has(PermRead) {
		b[0] = 'r'
	}
	if p.Has(PermWrite) {
		b[1] = 'w'
	}
	if p.Has(PermExec) {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access being attempted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// perm returns the permission bit an access requires.
func (a Access) perm() Perm {
	switch a {
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return PermRead
	}
}

// FaultKind classifies a translation fault. A fault is a value:
// TranslateOn and ProtectOn return the kind itself as their error
// (never FaultNone), so a fault costs no allocation and callers
// recover it with a type assertion or errors.Is.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone       FaultKind = iota
	FaultNoMapping            // no PTE for the page
	FaultProtection           // PTE present but access not permitted
	FaultBadContext           // context does not exist
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNoMapping:
		return "no-mapping"
	case FaultProtection:
		return "protection"
	case FaultBadContext:
		return "bad-context"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Error implements the error interface.
func (k FaultKind) Error() string { return "mmu: " + k.String() + " fault" }

// ContextID names an MMU context (an address space). Context 0 is the
// kernel context by convention.
type ContextID uint32

// KernelContext is the MMU context the nucleus itself runs in.
const KernelContext ContextID = 0

// CPUID names one virtual CPU of the simulated machine. CPU 0 is the
// boot CPU. Every per-CPU operation takes the CPU it runs on (or
// initiates from) as an explicit argument.
type CPUID int

// BootCPU is the CPU the machine boots on, where the nucleus' own
// control plane (domain setup and teardown, device interrupts) runs.
// Callers that choose it name it explicitly.
const BootCPU CPUID = 0

// NoCPU is the sentinel for "no CPU": a thread that has never been
// dispatched, or an identity slot that is deliberately empty. It is
// never a valid index into per-CPU state.
const NoCPU CPUID = -1

// PTE is a page table entry.
type PTE struct {
	Frame uint64
	Perm  Perm
	Valid bool
	// Tag carries arbitrary owner data (the mem service stores the
	// page's allocation record here). The MMU itself ignores it.
	Tag any
}

// pageTable is a per-context sparse page table with its own lock, so
// translation in one context never serializes against another.
type pageTable struct {
	mu      sync.RWMutex
	entries map[uint64]PTE // keyed by VPN
	// dead marks a table whose context has been destroyed. Operations
	// fetch the table under the structure lock and then lock pt.mu;
	// DestroyContextFrom can complete in that window, so every operation
	// re-checks dead under pt.mu — a stale fetch then fails exactly
	// like a fresh lookup of the missing context would.
	dead bool
}

func newPageTable() *pageTable {
	return &pageTable{entries: make(map[uint64]PTE)}
}

// cpuState is one virtual CPU's share of the MMU: its current-context
// register and its private TLB. mu guards the TLB (and serializes
// same-CPU switches); the register is atomic so reads are lock-free.
// States are stored by value in one contiguous array, padded to a
// 64-byte stride, so two CPUs' registers and locks never share a
// cache line.
type cpuState struct {
	current atomic.Uint32
	mu      sync.Mutex
	tlb     *tlb
	_       [40]byte
}

// ErrNoContext is returned when an operation names an unknown context.
var ErrNoContext = errors.New("mmu: no such context")

// ErrExists is returned when creating a context that already exists.
var ErrExists = errors.New("mmu: context already exists")

// MMU is the memory management unit. All methods are safe for
// concurrent use.
type MMU struct {
	meter *clock.Meter
	cpus  []cpuState

	// mu guards the contexts map structure only. Translation read-locks
	// it briefly to fetch a page table; the walk itself runs under that
	// context's own lock, so unrelated domains translate in parallel.
	mu       sync.RWMutex
	contexts map[ContextID]*pageTable
	nextCtx  ContextID
	// FlushOnSwitch selects the non-ASID behaviour in which every
	// context switch flushes the switching CPU's whole TLB (ablation F5).
	flushOnSwitch bool
}

// Config controls MMU construction.
type Config struct {
	TLBSize       int  // entries per CPU; 0 means DefaultTLBSize
	FlushOnSwitch bool // flush TLB on every context switch
	CPUs          int  // virtual CPU count; 0 means 1
}

// DefaultTLBSize is the per-CPU TLB capacity used when Config.TLBSize
// is zero.
const DefaultTLBSize = 64

// New builds an MMU charging against meter. The kernel context (0) is
// created automatically; every CPU boots with it current.
func New(meter *clock.Meter, cfg Config) *MMU {
	size := cfg.TLBSize
	if size <= 0 {
		size = DefaultTLBSize
	}
	ncpu := cfg.CPUs
	if ncpu <= 0 {
		ncpu = 1
	}
	m := &MMU{
		meter:         meter,
		cpus:          make([]cpuState, ncpu),
		contexts:      make(map[ContextID]*pageTable),
		nextCtx:       1,
		flushOnSwitch: cfg.FlushOnSwitch,
	}
	for i := range m.cpus {
		m.cpus[i].tlb = newTLB(size)
	}
	m.contexts[KernelContext] = newPageTable()
	return m
}

// NumCPUs reports the number of virtual CPUs.
func (m *MMU) NumCPUs() int { return len(m.cpus) }

// cpu returns the state of one virtual CPU, panicking on an
// out-of-range ID (a programming error, like indexing past a slice).
func (m *MMU) cpu(id CPUID) *cpuState {
	if id < 0 || int(id) >= len(m.cpus) {
		panic(fmt.Sprintf("mmu: no CPU %d (machine has %d)", id, len(m.cpus)))
	}
	return &m.cpus[id]
}

// pageTableOf fetches a context's page table under the structure lock.
func (m *MMU) pageTableOf(id ContextID) (*pageTable, bool) {
	m.mu.RLock()
	pt, ok := m.contexts[id]
	m.mu.RUnlock()
	return pt, ok
}

// NewContext allocates a fresh MMU context and returns its ID.
func (m *MMU) NewContext() ContextID {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextCtx
	m.nextCtx++
	m.contexts[id] = newPageTable()
	return id
}

// DestroyContextFrom removes a context, invalidating all of its TLB
// entries on every CPU. Each REMOTE CPU (one other than the initiator)
// whose TLB actually held entries for the context costs one
// inter-processor interrupt: OpTLBShootdown is charged once per such
// CPU and recorded in its Shootdowns counter. The initiator invalidates
// its own entries for free, and CPUs that never cached the context cost
// nothing — on a uniprocessor teardown is therefore free, exactly as
// before. Destroying the kernel context or a context that is current on
// any CPU is an error.
func (m *MMU) DestroyContextFrom(initiator CPUID, id ContextID) error {
	m.cpu(initiator) // validate the initiator up front
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == KernelContext {
		return errors.New("mmu: cannot destroy kernel context")
	}
	for i := range m.cpus {
		if id == ContextID(m.cpus[i].current.Load()) {
			return fmt.Errorf("mmu: cannot destroy context current on CPU %d", i)
		}
	}
	pt, ok := m.contexts[id]
	if !ok {
		return ErrNoContext
	}
	delete(m.contexts, id)
	// Shoot down the context's TLB entries everywhere and kill the
	// orphaned table. Holding pt.mu excludes a walk already past the
	// map check, so it cannot re-insert between the invalidation and
	// our return; the dead mark makes any operation that fetched the
	// table before the delete fail under pt.mu rather than mutate —
	// or translate into and re-cache — a destroyed context.
	pt.mu.Lock()
	pt.dead = true
	clear(pt.entries)
	var remote uint64
	for i := range m.cpus {
		c := &m.cpus[i]
		c.mu.Lock()
		if held := c.tlb.invalidateContext(id); held > 0 && CPUID(i) != initiator {
			// One context-wide invalidation IPI per remote CPU that
			// held entries, regardless of how many it held.
			c.tlb.shootdowns++
			remote++
			if probe.Enabled() {
				m.meter.Emit(i, probe.KindShootdownRecv, uint32(id), uint64(held), 0)
			}
		}
		c.mu.Unlock()
	}
	pt.mu.Unlock()
	// The context whose mappings are torn down pays for its shootdowns.
	m.meter.ChargeNFor(uint32(id), clock.OpTLBShootdown, remote)
	if remote > 0 && probe.Enabled() {
		m.meter.Emit(int(initiator), probe.KindShootdownInit, uint32(id), 0, remote)
	}
	return nil
}

// HasContext reports whether id names a live context.
func (m *MMU) HasContext(id ContextID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.contexts[id]
	return ok
}

// CurrentOn reports the active context of one CPU, lock-free.
func (m *MMU) CurrentOn(cpu CPUID) ContextID {
	return ContextID(m.cpu(cpu).current.Load())
}

// SwitchOn makes id the active context on one CPU, charging the
// context-switch cost. Switching to the already-active context is free.
// Only that CPU's register and TLB are touched, so switches on distinct
// CPUs proceed in parallel.
func (m *MMU) SwitchOn(cpu CPUID, id ContextID) error {
	c := m.cpu(cpu)
	// Hold the structure read-lock across the register write so
	// DestroyContextFrom's current-on-any-CPU check (under the write lock)
	// can never interleave with a half-done switch.
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.contexts[id]; !ok {
		return ErrNoContext
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == ContextID(c.current.Load()) {
		return nil
	}
	c.current.Store(uint32(id))
	// The destination context pays: a switch is part of entering it.
	m.meter.ChargeFor(uint32(id), clock.OpCtxSwitch)
	if m.flushOnSwitch {
		c.tlb.flush()
		m.meter.ChargeFor(uint32(id), clock.OpTLBFlush)
		if probe.Enabled() {
			m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(id), 0, 0)
		}
	}
	return nil
}

// CrossSwitchOn models one leg of a cross-domain call's context-switch
// pair (caller→target on entry, target→caller on return) on the given
// CPU: it validates that the destination context exists and charges the
// switch cost — plus that CPU's TLB flush under FlushOnSwitch — without
// moving the CPU's context register. Each in-flight cross-domain call
// executes as if on its own processor, so one call's transient target
// context is never observable to a concurrent call, and the charge
// sequence is deterministic under any interleaving: always exactly one
// OpCtxSwitch per leg.
func (m *MMU) CrossSwitchOn(cpu CPUID, to ContextID) error {
	m.mu.RLock()
	_, ok := m.contexts[to]
	m.mu.RUnlock()
	if !ok {
		return ErrNoContext
	}
	m.meter.ChargeFor(uint32(to), clock.OpCtxSwitch)
	if m.flushOnSwitch {
		c := m.cpu(cpu)
		c.mu.Lock()
		c.tlb.flush()
		c.mu.Unlock()
		m.meter.ChargeFor(uint32(to), clock.OpTLBFlush)
		if probe.Enabled() {
			m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(to), 0, 0)
		}
	}
	return nil
}

// Map is MapOn initiated from the boot CPU. It is the one boot-CPU
// shorthand the MMU keeps: the perfbench module (built against this
// package, outside the main module) calls it; everything in the main
// module calls MapOn with its initiator.
func (m *MMU) Map(id ContextID, va VAddr, frame uint64, perm Perm) error {
	return m.MapOn(BootCPU, id, va, frame, perm)
}

// MapOn installs a translation for the page containing va in context
// id, initiated from the given CPU: that CPU invalidates its own stale
// TLB entry for free, and only other CPUs holding the entry are
// charged a shootdown IPI.
func (m *MMU) MapOn(initiator CPUID, id ContextID, va VAddr, frame uint64, perm Perm) error {
	return m.MapTaggedOn(initiator, id, va, frame, perm, nil)
}

// MapTaggedOn is MapOn with an owner tag stored in the PTE.
func (m *MMU) MapTaggedOn(initiator CPUID, id ContextID, va VAddr, frame uint64, perm Perm, tag any) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead {
		return ErrNoContext
	}
	pt.entries[va.VPN()] = PTE{Frame: frame, Perm: perm, Valid: true, Tag: tag}
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// UnmapOn removes the translation for the page containing va,
// initiated from the given CPU: that CPU invalidates its own stale TLB
// entry for free, and only other CPUs holding the entry are charged a
// shootdown IPI.
func (m *MMU) UnmapOn(initiator CPUID, id ContextID, va VAddr) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead {
		return ErrNoContext
	}
	delete(pt.entries, va.VPN())
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// ProtectOn changes the permissions of an existing mapping, initiated
// from the given CPU: that CPU invalidates its own stale TLB entry for
// free, and only other CPUs holding the entry are charged a shootdown
// IPI. An unmapped page fails with FaultNoMapping.
func (m *MMU) ProtectOn(initiator CPUID, id ContextID, va VAddr, perm Perm) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead {
		return ErrNoContext
	}
	pte, ok := pt.entries[va.VPN()]
	if !ok || !pte.Valid {
		return FaultNoMapping
	}
	pte.Perm = perm
	pt.entries[va.VPN()] = pte
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// invalidateAll shoots one page's entry out of every CPU's TLB. Callers
// hold the page table's write lock, which excludes the translation walk
// that could otherwise re-insert a stale entry concurrently.
//
// The initiating CPU invalidates its own entry for free (part of the
// map/unmap/protect instruction sequence), but every REMOTE CPU whose
// TLB actually holds the entry costs an inter-processor interrupt:
// OpTLBShootdown is charged once per such CPU, and the receiving CPU's
// Shootdowns counter records it. CPUs that never cached the page cost
// nothing — the charge partitions exactly across the CPUs that did.
// Every entry point threads the true initiator through. On a
// uniprocessor the remote set is always empty, so single-CPU cost
// baselines are unchanged.
func (m *MMU) invalidateAll(initiator CPUID, id ContextID, vpn uint64) {
	var remote uint64
	for i := range m.cpus {
		c := &m.cpus[i]
		c.mu.Lock()
		if c.tlb.present(id, vpn) {
			c.tlb.invalidate(id, vpn)
			if CPUID(i) != initiator {
				c.tlb.shootdowns++
				remote++
				if probe.Enabled() {
					m.meter.Emit(i, probe.KindShootdownRecv, uint32(id), vpn, 0)
				}
			}
		}
		c.mu.Unlock()
	}
	// The context whose mapping changed pays for the IPIs it caused.
	m.meter.ChargeNFor(uint32(id), clock.OpTLBShootdown, remote)
	if remote > 0 && probe.Enabled() {
		m.meter.Emit(int(initiator), probe.KindShootdownInit, uint32(id), vpn, remote)
	}
}

// Lookup returns the PTE for the page containing va without charging
// any cycles (a debugger's view, not a hardware walk).
func (m *MMU) Lookup(id ContextID, va VAddr) (PTE, bool) {
	pt, ok := m.pageTableOf(id)
	if !ok {
		return PTE{}, false
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	if pt.dead {
		return PTE{}, false
	}
	pte, ok := pt.entries[va.VPN()]
	return pte, ok && pte.Valid
}

// TranslateOn resolves va in context id for the given access kind on
// one CPU, charging TLB and page-table costs against that CPU's TLB. On
// failure its error is the FaultKind. Translation is sharded: a hit touches
// only the CPU's own TLB, and a miss walks the context's page table
// under that context's lock — translations in unrelated contexts, or
// on distinct CPUs, never serialize on a global mutex.
//
//paramecium:hotpath
func (m *MMU) TranslateOn(cpu CPUID, id ContextID, va VAddr, access Access) (PAddr, error) {
	c := m.cpu(cpu)
	pt, ok := m.pageTableOf(id)
	if !ok {
		return 0, FaultBadContext
	}
	vpn := va.VPN()
	c.mu.Lock()
	if e, hit := c.tlb.lookup(id, vpn); hit {
		frame, perm := e.frame, e.perm
		c.mu.Unlock()
		if !perm.Has(access.perm()) {
			return 0, FaultProtection
		}
		return PAddr(frame<<PageShift | va.Offset()), nil
	}
	c.mu.Unlock()
	// TLB miss: hardware walk of the page table. The refill is inserted
	// while still holding the table's read lock, so a concurrent
	// Map/Unmap/Protect (write lock + shoot-down) cannot interleave
	// between the walk and the insert and leave a stale TLB entry.
	m.meter.ChargeFor(uint32(id), clock.OpTLBMiss)
	if probe.Enabled() {
		m.meter.Emit(int(cpu), probe.KindTLBMiss, uint32(id), vpn, 0)
	}
	pt.mu.RLock()
	if pt.dead {
		pt.mu.RUnlock()
		return 0, FaultBadContext
	}
	pte, ok := pt.entries[vpn]
	if !ok || !pte.Valid {
		pt.mu.RUnlock()
		return 0, FaultNoMapping
	}
	if !pte.Perm.Has(access.perm()) {
		pt.mu.RUnlock()
		return 0, FaultProtection
	}
	c.mu.Lock()
	c.tlb.insert(id, vpn, pte.Frame, pte.Perm)
	c.mu.Unlock()
	pt.mu.RUnlock()
	return PAddr(pte.Frame<<PageShift | va.Offset()), nil
}

// FlushTLBOn empties one CPU's TLB, charging the flush cost.
func (m *MMU) FlushTLBOn(cpu CPUID) {
	c := m.cpu(cpu)
	c.mu.Lock()
	c.tlb.flush()
	c.mu.Unlock()
	m.meter.Charge(clock.OpTLBFlush)
	if probe.Enabled() {
		m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(KernelContext), 0, 0)
	}
}

// CPUTLBStats is a snapshot of one CPU's TLB counters.
type CPUTLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
	// Shootdowns counts cross-CPU invalidations this CPU RECEIVED:
	// entries its TLB held that a Map/Unmap/Protect initiated on
	// another CPU had to shoot down, one OpTLBShootdown charge each.
	Shootdowns uint64
	Entries    int // live entries at snapshot time
}

// TLBStatsOn reports one CPU's TLB counters. Each CPU's TLB is private,
// so the stats measure that CPU's own translation locality — disjoint
// from every other CPU's.
func (m *MMU) TLBStatsOn(cpu CPUID) CPUTLBStats {
	c := m.cpu(cpu)
	c.mu.Lock()
	defer c.mu.Unlock()
	return CPUTLBStats{
		Hits:       c.tlb.hits,
		Misses:     c.tlb.misses,
		Flushes:    c.tlb.flushes,
		Shootdowns: c.tlb.shootdowns,
		Entries:    len(c.tlb.entries),
	}
}

// Mappings returns the number of valid mappings in a context.
func (m *MMU) Mappings(id ContextID) int {
	pt, ok := m.pageTableOf(id)
	if !ok {
		return 0
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.entries)
}
