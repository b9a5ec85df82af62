package mmu

import (
	"testing"

	"paramecium/internal/clock"
)

// fillTLB translates va on the given CPUs so each of their TLBs caches
// the page, then returns the meter's shootdown count at that point.
func fillTLB(t *testing.T, m *MMU, ctx ContextID, va VAddr, cpus ...CPUID) {
	t.Helper()
	for _, cpu := range cpus {
		if _, err := m.TranslateOn(cpu, ctx, va, AccessRead); err != nil {
			t.Fatalf("TranslateOn(cpu %d): %v", cpu, err)
		}
	}
}

// TestShootdownChargePartitionsExactly maps one page, caches it in a
// strict subset of the machine's TLBs, and asserts that Unmap charges
// OpTLBShootdown once per REMOTE CPU that held the entry — no charge
// for the initiating (boot) CPU's own invalidation, none for CPUs that
// never cached the page — and that the per-CPU Shootdowns counters
// record exactly which CPUs received an IPI.
func TestShootdownChargePartitionsExactly(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 4})
	ctx := m.NewContext()
	va := VAddr(0x4000)
	if err := m.MapOn(BootCPU, ctx, va, 7, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}

	// CPUs 0 (the initiator), 1 and 2 cache the page; CPU 3 never does.
	fillTLB(t, m, ctx, va, 0, 1, 2)

	before := meter.Count(clock.OpTLBShootdown)
	cyclesBefore := meter.Clock.Now()
	if err := m.UnmapOn(BootCPU, ctx, va); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 2 {
		t.Fatalf("shootdowns charged = %d, want 2 (CPUs 1 and 2 held the entry; CPU 0 is the initiator, CPU 3 never cached it)", got)
	}
	wantCycles := 2 * meter.Model.Cost(clock.OpTLBShootdown)
	if got := meter.Clock.Now() - cyclesBefore; got != wantCycles {
		t.Fatalf("Unmap advanced the clock by %d cycles, want %d (two shootdowns)", got, wantCycles)
	}
	for cpu, want := range map[CPUID]uint64{0: 0, 1: 1, 2: 1, 3: 0} {
		if got := m.TLBStatsOn(cpu).Shootdowns; got != want {
			t.Errorf("CPU %d Shootdowns = %d, want %d", cpu, got, want)
		}
	}
}

// TestShootdownLocalOnlyIsFree asserts that unmapping a page cached
// only in the initiating CPU's own TLB charges nothing: the local
// invalidation is part of the unmap itself, not an IPI.
func TestShootdownLocalOnlyIsFree(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 4})
	ctx := m.NewContext()
	va := VAddr(0x4000)
	if err := m.MapOn(BootCPU, ctx, va, 7, PermRead); err != nil {
		t.Fatal(err)
	}
	fillTLB(t, m, ctx, va, BootCPU)
	before := meter.Count(clock.OpTLBShootdown)
	if err := m.UnmapOn(BootCPU, ctx, va); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 0 {
		t.Fatalf("shootdowns charged = %d, want 0 (only the initiator held the entry)", got)
	}
}

// TestShootdownOnProtectAndRemap asserts Protect and a re-Map pay the
// same remote-invalidation charge as Unmap: any PTE change must evict
// remote cached copies.
func TestShootdownOnProtectAndRemap(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 2})
	ctx := m.NewContext()
	va := VAddr(0x8000)
	if err := m.MapOn(BootCPU, ctx, va, 3, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}

	fillTLB(t, m, ctx, va, 1)
	before := meter.Count(clock.OpTLBShootdown)
	if err := m.ProtectOn(BootCPU, ctx, va, PermRead); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 1 {
		t.Fatalf("Protect charged %d shootdowns, want 1", got)
	}

	fillTLB(t, m, ctx, va, 1)
	before = meter.Count(clock.OpTLBShootdown)
	if err := m.MapOn(BootCPU, ctx, va, 9, PermRead); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 1 {
		t.Fatalf("re-Map charged %d shootdowns, want 1", got)
	}
	if got := m.TLBStatsOn(1).Shootdowns; got != 2 {
		t.Fatalf("CPU 1 Shootdowns = %d, want 2", got)
	}
}

// TestShootdownInitiatorPerspective is the regression test for the
// boot-CPU-initiator bug: an unmap initiated ON the CPU that holds the
// entry must be free (local invalidation), while the same unmap
// initiated from the boot CPU must pay one IPI — the charge depends on
// who initiates, not on a hard-wired boot-CPU perspective.
func TestShootdownInitiatorPerspective(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 2})
	ctx := m.NewContext()
	va := VAddr(0x4000)
	if err := m.MapOn(1, ctx, va, 7, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}

	// Only CPU 1 caches the page. Unmapping FROM CPU 1 is free.
	fillTLB(t, m, ctx, va, 1)
	before := meter.Count(clock.OpTLBShootdown)
	if err := m.UnmapOn(1, ctx, va); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 0 {
		t.Fatalf("UnmapOn(1) charged %d shootdowns, want 0 (initiator held the only copy)", got)
	}
	if got := m.TLBStatsOn(1).Shootdowns; got != 0 {
		t.Fatalf("CPU 1 Shootdowns = %d, want 0 (it initiated)", got)
	}

	// Same topology, but the unmap initiates from the boot CPU: CPU 1
	// is now remote and must receive one IPI.
	if err := m.MapOn(1, ctx, va, 7, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	fillTLB(t, m, ctx, va, 1)
	before = meter.Count(clock.OpTLBShootdown)
	if err := m.UnmapOn(BootCPU, ctx, va); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 1 {
		t.Fatalf("boot-initiated Unmap charged %d shootdowns, want 1", got)
	}
	if got := m.TLBStatsOn(1).Shootdowns; got != 1 {
		t.Fatalf("CPU 1 Shootdowns = %d, want 1", got)
	}
}

// TestProtectOnInitiator mirrors the initiator test for ProtectOn.
func TestProtectOnInitiator(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 2})
	ctx := m.NewContext()
	va := VAddr(0x8000)
	if err := m.MapOn(BootCPU, ctx, va, 3, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	fillTLB(t, m, ctx, va, 1)
	before := meter.Count(clock.OpTLBShootdown)
	if err := m.ProtectOn(1, ctx, va, PermRead); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 0 {
		t.Fatalf("ProtectOn(1) charged %d shootdowns, want 0 (initiator held the only copy)", got)
	}
}

// TestDestroyContextChargesTeardownShootdowns asserts context teardown
// is no longer free on a multiprocessor: each REMOTE CPU whose TLB
// still held entries for the dying context costs one OpTLBShootdown
// (one context-wide invalidation IPI, however many entries it held),
// the initiator and CPUs that never cached the context cost nothing,
// and receiving CPUs record the IPI in their Shootdowns counter.
func TestDestroyContextChargesTeardownShootdowns(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 4})
	ctx := m.NewContext()
	va1, va2 := VAddr(0x4000), VAddr(0x9000)
	if err := m.MapOn(BootCPU, ctx, va1, 7, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.MapOn(BootCPU, ctx, va2, 8, PermRead); err != nil {
		t.Fatal(err)
	}

	// CPU 0 (the initiator) and CPU 1 cache both pages; CPU 2 caches
	// one; CPU 3 none. Teardown must charge exactly 2 IPIs: one for
	// CPU 1 (despite holding two entries) and one for CPU 2.
	fillTLB(t, m, ctx, va1, 0, 1, 2)
	fillTLB(t, m, ctx, va2, 0, 1)

	before := meter.Count(clock.OpTLBShootdown)
	cyclesBefore := meter.Clock.Now()
	if err := m.DestroyContextFrom(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 2 {
		t.Fatalf("DestroyContextFrom charged %d shootdowns, want 2 (CPUs 1 and 2 held entries)", got)
	}
	wantCycles := 2 * meter.Model.Cost(clock.OpTLBShootdown)
	if got := meter.Clock.Now() - cyclesBefore; got != wantCycles {
		t.Fatalf("DestroyContextFrom advanced the clock by %d cycles, want %d", got, wantCycles)
	}
	for cpu, want := range map[CPUID]uint64{0: 0, 1: 1, 2: 1, 3: 0} {
		if got := m.TLBStatsOn(cpu).Shootdowns; got != want {
			t.Errorf("CPU %d Shootdowns = %d, want %d", cpu, got, want)
		}
	}
}

// TestDestroyContextFromInitiator asserts the initiator's own held
// entries never cost an IPI during teardown.
func TestDestroyContextFromInitiator(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 2})
	ctx := m.NewContext()
	va := VAddr(0x4000)
	if err := m.MapOn(BootCPU, ctx, va, 7, PermRead); err != nil {
		t.Fatal(err)
	}
	// Only CPU 1 caches the page; destroying FROM CPU 1 is free.
	fillTLB(t, m, ctx, va, 1)
	before := meter.Count(clock.OpTLBShootdown)
	if err := m.DestroyContextFrom(1, ctx); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpTLBShootdown) - before; got != 0 {
		t.Fatalf("DestroyContextFrom(1) charged %d shootdowns, want 0", got)
	}
}

// TestDestroyContextUniprocessorFree pins the single-CPU baseline:
// teardown on a uniprocessor charges nothing, exactly as before the
// teardown-shootdown charge existed.
func TestDestroyContextUniprocessorFree(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	m := New(meter, Config{CPUs: 1})
	ctx := m.NewContext()
	va := VAddr(0x4000)
	if err := m.MapOn(BootCPU, ctx, va, 7, PermRead); err != nil {
		t.Fatal(err)
	}
	fillTLB(t, m, ctx, va, BootCPU)
	cyclesBefore := meter.Clock.Now()
	if err := m.DestroyContextFrom(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if got := meter.Clock.Now() - cyclesBefore; got != 0 {
		t.Fatalf("uniprocessor DestroyContextFrom advanced the clock by %d cycles, want 0", got)
	}
}
