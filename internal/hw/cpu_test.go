package hw

import (
	"sync"
	"testing"

	"paramecium/internal/mmu"
)

// TestAcquireCPUSpreadsExclusiveLeases: concurrent acquirers land on
// distinct CPUs while any are free, and oversubscription falls back to
// sharing without corrupting the holders' leases.
func TestAcquireCPUSpreadsExclusiveLeases(t *testing.T) {
	m := New(Config{PhysFrames: 16, CPUs: 4})
	if m.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	var leases []CPULease
	seen := map[mmu.CPUID]bool{}
	for i := 0; i < 4; i++ {
		l := m.AcquireCPU()
		if seen[l.ID()] {
			t.Fatalf("CPU %d leased twice", l.ID())
		}
		seen[l.ID()] = true
		leases = append(leases, l)
	}
	// Fifth claim: every CPU busy, so the lease is shared.
	extra := m.AcquireCPU()
	extra.Release() // must not clear the exclusive holder's lease
	for _, l := range leases {
		l.Release()
	}
	// All free again: four fresh exclusive claims succeed.
	seen = map[mmu.CPUID]bool{}
	for i := 0; i < 4; i++ {
		l := m.AcquireCPU()
		if seen[l.ID()] {
			t.Fatalf("CPU %d leased twice after release", l.ID())
		}
		seen[l.ID()] = true
		defer l.Release()
	}
}

// TestSingleCPUAcquireCountsShares: on a uniprocessor every acquire
// lands on CPU 0; an acquire that overlaps a held lease is a forced
// share, counted in SharedLeases, and releasing the shared lease must
// not clear the exclusive holder's claim.
func TestSingleCPUAcquireCountsShares(t *testing.T) {
	m := New(Config{PhysFrames: 16})
	a, b := m.AcquireCPU(), m.AcquireCPU()
	if a.ID() != 0 || b.ID() != 0 {
		t.Fatalf("leases on CPUs %d/%d, want 0/0", a.ID(), b.ID())
	}
	if got := m.SharedLeases(); got != 1 {
		t.Fatalf("SharedLeases = %d, want 1 (second acquire overlapped the first)", got)
	}
	b.Release() // shared: must not free the holder's claim
	c := m.AcquireCPU()
	if got := m.SharedLeases(); got != 2 {
		t.Fatalf("SharedLeases = %d, want 2 (holder still claims the CPU)", got)
	}
	c.Release()
	a.Release()
	// All free: a serial acquire is exclusive again.
	d := m.AcquireCPU()
	defer d.Release()
	if got := m.SharedLeases(); got != 2 {
		t.Fatalf("SharedLeases = %d after release, want 2 (serial acquire must not share)", got)
	}
}

// TestSharedLeasesCountOversubscription: the four-CPU machine counts
// exactly the claims beyond its topology.
func TestSharedLeasesCountOversubscription(t *testing.T) {
	m := New(Config{PhysFrames: 16, CPUs: 4})
	var leases []CPULease
	for i := 0; i < 4; i++ {
		leases = append(leases, m.AcquireCPU())
	}
	if got := m.SharedLeases(); got != 0 {
		t.Fatalf("SharedLeases = %d with free CPUs, want 0", got)
	}
	for i := 0; i < 3; i++ {
		m.AcquireCPU().Release()
	}
	if got := m.SharedLeases(); got != 3 {
		t.Fatalf("SharedLeases = %d, want 3", got)
	}
	for _, l := range leases {
		l.Release()
	}
}

// TestRaiseIRQOnDeliversCPU: the trap frame of a routed interrupt
// carries the target CPU and that CPU's active context, and per-CPU
// delivery counters advance.
func TestRaiseIRQOnDeliversCPU(t *testing.T) {
	m := New(Config{PhysFrames: 16, CPUs: 2})
	ctx := m.MMU.NewContext()
	if err := m.MMU.SwitchOn(1, ctx); err != nil {
		t.Fatal(err)
	}
	var got *TrapFrame
	if _, err := m.SetIRQHandler(3, func(f *TrapFrame) bool {
		got = f
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(3, 1); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.CPU != 1 || got.Ctx != ctx {
		t.Fatalf("frame = %+v, want CPU 1 ctx %d", got, ctx)
	}
	if _, irqs := m.CPUByID(1).Stats(); irqs != 1 {
		t.Fatalf("CPU1 irqs = %d, want 1", irqs)
	}
	if _, irqs := m.CPUByID(0).Stats(); irqs != 0 {
		t.Fatalf("CPU0 irqs = %d, want 0", irqs)
	}
	if err := m.RaiseIRQOn(3, 7); err == nil {
		t.Fatal("out-of-range CPU accepted")
	}
}

// TestPerCPULoadsUseOwnTLB: the same page loaded through two CPUs
// costs each CPU its own cold miss — translation locality is per-CPU.
func TestPerCPULoadsUseOwnTLB(t *testing.T) {
	m := New(Config{PhysFrames: 16, CPUs: 2})
	frame, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, mmu.KernelContext, 0x1000, frame, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			b := make([]byte, 8)
			for i := 0; i < 10; i++ {
				if err := c.Load(mmu.KernelContext, 0x1000, b); err != nil {
					t.Error(err)
					return
				}
			}
		}(m.CPUByID(mmu.CPUID(cpu)))
	}
	wg.Wait()
	if err := m.CPUByID(mmu.BootCPU).Store(mmu.KernelContext, 0x1000, buf); err != nil {
		t.Fatal(err)
	}
	s0, s1 := m.MMU.TLBStatsOn(0), m.MMU.TLBStatsOn(1)
	if s0.Misses != 1 || s1.Misses != 1 {
		t.Fatalf("misses = %d/%d, want one cold miss per CPU", s0.Misses, s1.Misses)
	}
	if s0.Hits < 10 || s1.Hits < 9 {
		t.Fatalf("hits = %d/%d, want warm TLBs", s0.Hits, s1.Hits)
	}
}
