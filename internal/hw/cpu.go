package hw

import (
	"sync/atomic"

	"paramecium/internal/mmu"
)

// CPU is one virtual processor of the simulated machine. Each CPU owns
// a current-context register and a private TLB (both live in the MMU,
// keyed by the CPU's ID) and counts the traps and interrupts delivered
// to it. Memory accesses performed through a CPU charge that CPU's TLB,
// so translation locality is a per-CPU quantity.
type CPU struct {
	id mmu.CPUID
	m  *Machine

	leased atomic.Bool
	traps  atomic.Uint64
	irqs   atomic.Uint64
}

// ID reports the CPU's identifier.
func (c *CPU) ID() mmu.CPUID { return c.id }

// Machine reports the machine the CPU belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// Current reports the CPU's active MMU context, lock-free.
func (c *CPU) Current() mmu.ContextID { return c.m.MMU.CurrentOn(c.id) }

// Switch makes id the CPU's active context.
func (c *CPU) Switch(id mmu.ContextID) error { return c.m.MMU.SwitchOn(c.id, id) }

// Load reads len(buf) bytes of simulated memory at va in context ctx
// through this CPU's MMU state. Page faults are delivered as traps; if
// the page-fault handler reports the fault resolved, the access is
// retried (once per page).
func (c *CPU) Load(ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	return c.m.accessOn(c.id, ctx, va, buf, mmu.AccessRead)
}

// Store writes buf to simulated memory at va in context ctx through
// this CPU's MMU state.
func (c *CPU) Store(ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	return c.m.accessOn(c.id, ctx, va, buf, mmu.AccessWrite)
}

// Touch performs a zero-length access of the given kind at va on this
// CPU: the full translation (and fault) machinery without moving data.
func (c *CPU) Touch(ctx mmu.ContextID, va mmu.VAddr, access mmu.Access) error {
	return c.TouchTagged(ctx, va, access, nil)
}

// TouchTagged is Touch with a caller-supplied tag delivered in the trap
// frame of any resulting page fault (nil means untagged). Proxy
// invocation uses it with AccessExec on interface entry slots: the tag
// is the call frame itself, so any number of concurrent calls through
// the same entry page each reach their own arguments and results.
func (c *CPU) TouchTagged(ctx mmu.ContextID, va mmu.VAddr, access mmu.Access, tag any) error {
	_, err := c.m.translateWithFaults(c.id, ctx, va, access, tag)
	return err
}

// Stats reports the traps and interrupts delivered to this CPU.
func (c *CPU) Stats() (traps, irqs uint64) {
	return c.traps.Load(), c.irqs.Load()
}

// TLBStats reports this CPU's TLB counters — hits, misses, flushes and
// the cross-CPU shootdowns it received (entries its TLB held that a
// map/unmap/protect on another CPU had to invalidate, one IPI charge
// each). Per-CPU shootdown counts are how a workload sees which CPUs
// were actually paying for page-mapping churn elsewhere in the machine.
func (c *CPU) TLBStats() mmu.CPUTLBStats {
	return c.m.MMU.TLBStatsOn(c.id)
}

// CPULease is a claim on one virtual CPU for the duration of an
// operation. In-flight cross-domain calls acquire a lease so each call
// runs on its own CPU when one is free — populating that CPU's TLB and
// charging its crossings there — and shares a CPU (without disturbing
// its holder's lease) when the machine is oversubscribed.
type CPULease struct {
	cpu   *CPU
	owned bool
}

// CPU returns the leased CPU.
func (l CPULease) CPU() *CPU { return l.cpu }

// ID returns the leased CPU's identifier.
func (l CPULease) ID() mmu.CPUID { return l.cpu.id }

// Release returns the CPU to the free pool. Releasing a shared
// (oversubscribed) lease is a no-op: only the claim that set the lease
// flag clears it.
func (l CPULease) Release() {
	if l.owned {
		l.cpu.leased.Store(false)
	}
}

// AcquireCPU claims a free CPU, preferring an exclusive claim (each
// concurrent caller lands on its own CPU) and falling back to sharing
// when every CPU is busy. Forced shares are counted (SharedLeases):
// sharers interleave on one TLB, so a climbing counter is the signal
// that a workload has outgrown its WithCPUs(n) topology.
func (m *Machine) AcquireCPU() CPULease {
	n := len(m.cpus)
	if n == 1 {
		// A uniprocessor still claims, so oversubscription — concurrent
		// calls forced onto the one CPU — is visible in the counter.
		c := m.cpus[0]
		if c.leased.CompareAndSwap(false, true) {
			return CPULease{cpu: c, owned: true}
		}
		m.sharedLeases.Add(1)
		return CPULease{cpu: c}
	}
	start := int(m.cpuRR.Add(1)-1) % n
	for i := 0; i < n; i++ {
		c := m.cpus[(start+i)%n]
		if c.leased.CompareAndSwap(false, true) {
			return CPULease{cpu: c, owned: true}
		}
	}
	m.sharedLeases.Add(1)
	return CPULease{cpu: m.cpus[start]}
}

// SharedLeases reports how many AcquireCPU claims found every CPU
// busy and fell back to sharing one. A steadily climbing count means
// cross-domain calls are interleaving on shared TLBs — quantifying
// when the machine needs WithCPUs(n) raised. Note that NESTED calls
// count too: a call issued from inside another call's target method
// holds the outer lease, so the inner claim shares even with no
// concurrency — call depth oversubscribes a small topology exactly as
// concurrent callers do.
func (m *Machine) SharedLeases() uint64 { return m.sharedLeases.Load() }

// NumCPUs reports the number of virtual CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPUByID returns one virtual CPU. It panics on an out-of-range ID.
func (m *Machine) CPUByID(id mmu.CPUID) *CPU {
	return m.cpus[id]
}

// CPUs returns the machine's CPUs in ID order. The slice is shared;
// callers must not mutate it.
func (m *Machine) CPUs() []*CPU { return m.cpus }
