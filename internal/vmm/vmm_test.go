package vmm

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
)

func setup(frames int) (*Manager, *mem.Service, *hw.Machine) {
	machine := hw.New(hw.Config{PhysFrames: frames})
	svc := mem.New(machine)
	return New(svc), svc, machine
}

func TestDemandZeroPaging(t *testing.T) {
	m, svc, machine := setup(16)
	boot := machine.CPUByID(mmu.BootCPU)
	ctx := svc.NewDomain()
	if err := m.DemandRegion(ctx, 0x10000, 4, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	// Nothing resident yet.
	if m.Resident(ctx, 0x10000) {
		t.Fatal("page resident before first touch")
	}
	free := machine.Phys.FreeFrames()
	if err := boot.Store(ctx, 0x10008, []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	if machine.Phys.FreeFrames() != free-1 {
		t.Fatal("expected exactly one frame allocated")
	}
	buf := make([]byte, 4)
	if err := boot.Load(ctx, 0x10008, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "lazy" {
		t.Fatalf("read %q", buf)
	}
	demand, _, _, _ := m.Stats()
	if demand != 1 {
		t.Fatalf("demand faults = %d", demand)
	}
	// Touch another page in the region.
	if err := boot.Store(ctx, 0x12000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	demand, _, _, _ = m.Stats()
	if demand != 2 {
		t.Fatalf("demand faults = %d", demand)
	}
}

func TestDemandRegionDuplicate(t *testing.T) {
	m, svc, _ := setup(8)
	ctx := svc.NewDomain()
	if err := m.DemandRegion(ctx, 0x1000, 1, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.DemandRegion(ctx, 0x1000, 1, mmu.PermRead); err == nil {
		t.Fatal("duplicate region accepted")
	}
}

func TestCopyOnWrite(t *testing.T) {
	m, svc, machine := setup(16)
	boot := machine.CPUByID(mmu.BootCPU)
	parent := svc.NewDomain()
	child := svc.NewDomain()
	if err := m.DemandRegion(parent, 0x10000, 2, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(parent, 0x10000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(parent, 0x10000, child, 0x20000, 2); err != nil {
		t.Fatal(err)
	}
	// Child reads the parent's data without copying.
	buf := make([]byte, 8)
	if err := boot.Load(child, 0x20000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("child sees %q", buf)
	}
	_, cow, _, _ := m.Stats()
	if cow != 0 {
		t.Fatal("reads caused COW faults")
	}
	// Child writes: gets a private copy; parent unchanged.
	if err := boot.Store(child, 0x20000, []byte("childown")); err != nil {
		t.Fatal(err)
	}
	if err := boot.Load(parent, 0x10000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("parent sees %q after child write", buf)
	}
	if err := boot.Load(child, 0x20000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "childown" {
		t.Fatalf("child sees %q after its write", buf)
	}
	_, cow, _, _ = m.Stats()
	if cow != 1 {
		t.Fatalf("cow faults = %d", cow)
	}
	// Parent writes its (now sole) copy: upgraded in place, no copy.
	free := machine.Phys.FreeFrames()
	if err := boot.Store(parent, 0x10000, []byte("parent2!")); err != nil {
		t.Fatal(err)
	}
	if machine.Phys.FreeFrames() != free {
		t.Fatal("last-sharer write allocated a frame")
	}
	_, cow, _, _ = m.Stats()
	if cow != 2 {
		t.Fatalf("cow faults = %d", cow)
	}
}

// TestCOWFaultInitiatesFromFaultingCPU: a copy-on-write fault taken on
// CPU 1 is resolved from CPU 1, so invalidating CPU 1's own cached
// read-only entry is free — no shootdown IPI is charged to anyone.
func TestCOWFaultInitiatesFromFaultingCPU(t *testing.T) {
	machine := hw.New(hw.Config{PhysFrames: 16, CPUs: 2})
	svc := mem.New(machine)
	m := New(svc)
	parent := svc.NewDomain()
	child := svc.NewDomain()
	if err := m.DemandRegion(parent, 0x10000, 1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	cpu0, cpu1 := machine.CPUByID(0), machine.CPUByID(1)
	if err := cpu0.Store(parent, 0x10000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(parent, 0x10000, child, 0x20000, 1); err != nil {
		t.Fatal(err)
	}
	// CPU 1 caches the child's read-only entry, then writes through it.
	buf := make([]byte, 8)
	if err := cpu1.Load(child, 0x20000, buf); err != nil {
		t.Fatal(err)
	}
	before := machine.Meter.Count(clock.OpTLBShootdown)
	if err := cpu1.Store(child, 0x20000, []byte("childown")); err != nil {
		t.Fatal(err)
	}
	if _, cow, _, _ := m.Stats(); cow != 1 {
		t.Fatalf("cow faults = %d, want 1", cow)
	}
	if got := machine.Meter.Count(clock.OpTLBShootdown) - before; got != 0 {
		t.Fatalf("COW fault on CPU 1 charged %d shootdowns, want 0 (the initiator invalidates its own entry for free)", got)
	}
	if err := cpu1.Load(child, 0x20000, buf); err != nil || string(buf) != "childown" {
		t.Fatalf("child sees %q (err %v) after its write", buf, err)
	}
}

func TestCloneOfUntouchedPagesStaysLazy(t *testing.T) {
	m, svc, machine := setup(16)
	boot := machine.CPUByID(mmu.BootCPU)
	parent := svc.NewDomain()
	child := svc.NewDomain()
	if err := m.DemandRegion(parent, 0x10000, 1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(parent, 0x10000, child, 0x20000, 1); err != nil {
		t.Fatal(err)
	}
	free := machine.Phys.FreeFrames()
	if err := boot.Store(child, 0x20000, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if machine.Phys.FreeFrames() != free-1 {
		t.Fatal("clone of untouched page did not stay lazy")
	}
	// Parent's page is still untouched and independent.
	if err := boot.Store(parent, 0x10000, []byte("p")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := boot.Load(child, 0x20000, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'c' {
		t.Fatalf("child sees %q", buf)
	}
}

func TestSwapOutIn(t *testing.T) {
	m, svc, machine := setup(16)
	boot := machine.CPUByID(mmu.BootCPU)
	ctx := svc.NewDomain()
	if err := m.DemandRegion(ctx, 0x10000, 1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(ctx, 0x10000, []byte("persist me")); err != nil {
		t.Fatal(err)
	}
	free := machine.Phys.FreeFrames()
	if err := m.Evict(ctx, 0x10000); err != nil {
		t.Fatal(err)
	}
	if machine.Phys.FreeFrames() != free+1 {
		t.Fatal("evict did not free the frame")
	}
	if m.Resident(ctx, 0x10000) {
		t.Fatal("page resident after evict")
	}
	// Touch: swap-in restores contents.
	buf := make([]byte, 10)
	if err := boot.Load(ctx, 0x10000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist me" {
		t.Fatalf("after swap-in: %q", buf)
	}
	_, _, swapIn, swapOut := m.Stats()
	if swapIn != 1 || swapOut != 1 {
		t.Fatalf("swap stats = %d/%d", swapIn, swapOut)
	}
}

func TestEvictErrors(t *testing.T) {
	m, svc, machine := setup(8)
	ctx := svc.NewDomain()
	if err := m.Evict(ctx, 0x5000); !errors.Is(err, ErrNotManaged) {
		t.Fatalf("unmanaged: %v", err)
	}
	if err := m.DemandRegion(ctx, 0x5000, 1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	// Still demand-zero (never touched): cannot evict.
	if err := m.Evict(ctx, 0x5000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("untouched: %v", err)
	}
	if err := machine.CPUByID(mmu.BootCPU).Store(ctx, 0x5000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(ctx, 0x5000); err != nil {
		t.Fatal(err)
	}
	// Double evict.
	if err := m.Evict(ctx, 0x5000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double evict: %v", err)
	}
}

func TestWorkingSetLargerThanMemory(t *testing.T) {
	// 4 frames of memory, an 8-page working set: with explicit
	// eviction the workload still completes and data survives.
	m, svc, machine := setup(4)
	boot := machine.CPUByID(mmu.BootCPU)
	ctx := svc.NewDomain()
	const pages = 8
	if err := m.DemandRegion(ctx, 0x10000, pages, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		va := mmu.VAddr(0x10000 + i*mmu.PageSize)
		if machine.Phys.FreeFrames() == 0 {
			// Evict the oldest resident page.
			for j := 0; j < i; j++ {
				victim := mmu.VAddr(0x10000 + j*mmu.PageSize)
				if m.Resident(ctx, victim) {
					if err := m.Evict(ctx, victim); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		if err := boot.Store(ctx, va, []byte{byte(i + 1)}); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	// Every page's data must be recoverable (faulting in as needed,
	// with manual eviction to make room).
	for i := 0; i < pages; i++ {
		va := mmu.VAddr(0x10000 + i*mmu.PageSize)
		if !m.Resident(ctx, va) && machine.Phys.FreeFrames() == 0 {
			for j := 0; j < pages; j++ {
				victim := mmu.VAddr(0x10000 + j*mmu.PageSize)
				if victim != va && m.Resident(ctx, victim) {
					if err := m.Evict(ctx, victim); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		buf := make([]byte, 1)
		if err := boot.Load(ctx, va, buf); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d = %d, want %d", i, buf[0], i+1)
		}
	}
}

func TestCloneSwappedPageRefused(t *testing.T) {
	m, svc, machine := setup(8)
	a, b := svc.NewDomain(), svc.NewDomain()
	if err := m.DemandRegion(a, 0x1000, 1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := machine.CPUByID(mmu.BootCPU).Store(a, 0x1000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(a, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(a, 0x1000, b, 0x2000, 1); err == nil {
		t.Fatal("clone of swapped page accepted")
	}
}
