package main

import (
	"fmt"
	"slices"
	"time"

	"paramecium"
	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/probe"
)

// Unit host costs of the layers below the proxy, measured by calling
// each layer's own exported function in isolation on a bare machine:
// no kernel, no handler work beyond a trivial trap handler.
const (
	unitIters = 100_000
	unitReps  = 7
)

// unitNs times fn over unitIters calls, unitReps times, and returns the
// median ns per call.
func unitNs(fn func()) float64 {
	per := make([]float64, unitReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < unitIters; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / unitIters
	}
	slices.Sort(per)
	return per[unitReps/2]
}

type unitCosts struct {
	raiseTrap, touchTagged, translateHit, crossSwitch, charge, emitOff, emitOn float64
}

// measureUnits prices each unit on a one-CPU machine, so every call
// runs on the boot CPU — the CPU every call of the workloads' systems
// runs on too. An emit is priced as the program's emit sites make it,
// under the probe gate: with the gate down that is one atomic load.
func measureUnits() (unitCosts, error) {
	var u unitCosts
	if probe.Enabled() {
		return u, fmt.Errorf("probe gate raised before the disabled-emit measurement")
	}
	m := hw.New(hw.Config{})
	ctx := m.MMU.NewContext()
	const va = mmu.VAddr(0x40000)
	if err := m.MMU.Map(ctx, va, 1, mmu.PermRead|mmu.PermWrite|mmu.PermExec); err != nil {
		return u, err
	}
	cpu := m.CPUByID(mmu.BootCPU)
	m.SetTrapHandler(hw.TrapUserBase, func(*hw.TrapFrame) bool { return true })
	frame := &hw.TrapFrame{Vector: hw.TrapUserBase, Ctx: ctx, CPU: mmu.BootCPU}
	var err error
	check := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	u.raiseTrap = unitNs(func() { _, e := m.RaiseTrap(frame); check(e) })
	u.touchTagged = unitNs(func() { check(cpu.TouchTagged(ctx, va, mmu.AccessExec, 7)) })
	u.translateHit = unitNs(func() { _, e := m.MMU.TranslateOn(mmu.BootCPU, ctx, va, mmu.AccessRead); check(e) })
	u.crossSwitch = unitNs(func() { check(m.MMU.CrossSwitchOn(mmu.BootCPU, ctx)) })
	u.charge = unitNs(func() { m.Meter.ChargeFor(uint32(ctx), clock.OpCall) })
	emit := func() {
		if probe.Enabled() {
			m.Meter.Emit(0, probe.KindTrap, uint32(ctx), 1, 2)
		}
	}
	u.emitOff = unitNs(emit)
	m.Meter.EnableTracing(probe.NewRecorder(1, 4096), probe.NewLedger(clock.LedgerSlots))
	u.emitOn = unitNs(emit)
	m.Meter.DisableTracing()
	return u, err
}

// Modules a ledger operation slot's cycles and counts roll up to.
// copy-word is every cross-domain word the cost model charges —
// argument copies and shared-memory traffic alike.
const (
	modHW = iota
	modMMU
	modMem
	modObj
	modProxy
	modRing
	modNames
	modOther
	numModules
)

var moduleNames = [numModules]string{"hw", "mmu", "mem", "obj", "proxy", "ring", "names", "other"}

func moduleOf(slot int) int {
	if slot == clock.IdleSlot {
		return modOther
	}
	switch clock.Op(slot) {
	case clock.OpTrapEnter, clock.OpTrapExit, clock.OpInterrupt:
		return modHW
	case clock.OpCtxSwitch, clock.OpTLBMiss, clock.OpTLBFlush, clock.OpTLBShootdown, clock.OpRemoteFrameAccess:
		return modMMU
	case clock.OpPageFault:
		return modMem
	case clock.OpCall, clock.OpIndirect, clock.OpBatchEntry:
		return modObj
	case clock.OpCopyWord:
		return modProxy
	case clock.OpRingPush, clock.OpRingPop, clock.OpDoorbell:
		return modRing
	case clock.OpNameLookupHop:
		return modNames
	}
	return modOther
}

// ledgerMark is the flight recorder's state at one instant: the
// ledger summed over every domain row (live and frozen), the clock,
// and per CPU the next event sequence number and the oldest retained.
type ledgerMark struct {
	cycles, counts []uint64 // per ledger slot
	total, clock   uint64
	next, oldest   []uint64
}

func markLedger(sys *paramecium.System) (ledgerMark, error) {
	ts := sys.TraceSnapshot()
	lm := ledgerMark{
		cycles: make([]uint64, clock.LedgerSlots),
		counts: make([]uint64, clock.LedgerSlots),
		clock:  sys.Cycles(),
	}
	if ts.Ledger == nil {
		return lm, fmt.Errorf("system has no flight recorder")
	}
	for _, row := range ts.Ledger {
		lm.total += row.Total
		for s := range row.Cycles {
			lm.cycles[s] += row.Cycles[s]
			lm.counts[s] += row.Counts[s]
		}
	}
	for _, evs := range ts.Events {
		var next, oldest uint64
		for i, e := range evs {
			if i == 0 || e.Seq < oldest {
				oldest = e.Seq
			}
			next = max(next, e.Seq+1)
		}
		lm.next = append(lm.next, next)
		lm.oldest = append(lm.oldest, oldest)
	}
	if lm.total != lm.clock {
		return lm, fmt.Errorf("ledger grand total %d != System.Cycles %d", lm.total, lm.clock)
	}
	return lm, nil
}

// eventsSince counts the events emitted between marks a and b, failing
// if the recorder overwrote any of them before b was taken.
func eventsSince(a, b ledgerMark) (uint64, error) {
	var n uint64
	for cpu := range b.next {
		var from uint64
		if cpu < len(a.next) {
			from = a.next[cpu]
		}
		if b.next[cpu] > from && b.oldest[cpu] > from {
			return 0, fmt.Errorf("flight recorder overwrote events on CPU %d (raise the ring capacity)", cpu)
		}
		n += b.next[cpu] - from
	}
	return n, nil
}
