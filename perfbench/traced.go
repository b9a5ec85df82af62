package main

import (
	"fmt"
	"time"

	"paramecium"
	"paramecium/internal/clock"
)

// runTraced is the per-layer run. It measures the deep layers' unit
// costs in isolation, then runs the workload untraced and traced for
// half the time each, then one pass of tenant sessions traced. The
// traced pass reads exact counts and per-module virtual cycles from
// the flight-recorder ledger; host-time spans come from the
// benchmark's own calls into each layer, in the traced pass and the
// session pass.
func runTraced(def workloadDef, seed uint64, d time.Duration, spanFile string) (*result, error) {
	units, err := measureUnits()
	if err != nil {
		return nil, fmt.Errorf("unit costs: %w", err)
	}

	pu := newPass(def, seed)
	cu, tmU, err := pu.measured(d/2, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	pu.r.system().Shutdown()

	traceOpt := paramecium.WithTracing(paramecium.TraceOptions{RingCapacity: traceRingCap})
	pt := newPass(def, seed, traceOpt)
	t, free, err := newTracer(maxSpans, reserveSpans)
	if err != nil {
		return nil, err
	}
	defer free()
	ct, tmT, err := pt.measured(d/2, t)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if x, ok := pt.r.(extraRunner); ok {
		n, err := x.extra(t)
		pt.attempted += n
		if err != nil {
			pt.failed++
			pt.noteFailure(fmt.Errorf("direct calls: %w", err))
		}
	}
	pt.r.system().Shutdown()

	ps := newPass(sessions, seed, traceOpt)
	if err := ps.build(); err != nil {
		return nil, fmt.Errorf("session pass: %w", err)
	}
	if _, err := ps.run(sessions.count, time.Time{}, nil, t); err != nil {
		return nil, fmt.Errorf("session pass: %w", err)
	}
	ps.r.system().Shutdown()
	if spanFile != "" {
		if err := t.write(spanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	// Self-checks: recording is free in virtual time, and the ledger
	// accounts for every cycle.
	if ct.cycles != cu.cycles {
		return nil, fmt.Errorf("traced run charged %d virtual cycles over the count phase, untraced %d", ct.cycles, cu.cycles)
	}
	n := float64(def.count)
	var slotCycles, slotCounts [clock.LedgerSlots]uint64
	var modCycles [numModules]uint64
	var sum, charges uint64
	for s := range slotCycles {
		slotCycles[s] = ct.after.cycles[s] - ct.before.cycles[s]
		slotCounts[s] = ct.after.counts[s] - ct.before.counts[s]
		modCycles[moduleOf(s)] += slotCycles[s]
		sum += slotCycles[s]
		// Copy words and name hops are charged in bulk, one charge per
		// copy or lookup, and counted in words and hops; every other
		// operation is charged one at a time.
		if s != int(clock.OpCopyWord) && s != int(clock.OpNameLookupHop) {
			charges += slotCounts[s]
		}
	}
	if sum != ct.cycles {
		return nil, fmt.Errorf("per-module virtual cycles sum to %d, the clock advanced %d", sum, ct.cycles)
	}
	events, err := eventsSince(ct.before, ct.after)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	perReq := func(x uint64) float64 { return float64(x) / n }
	count := func(name string, op clock.Op) float64 {
		v := perReq(slotCounts[op])
		m[name] = metric{v, "count"}
		return v
	}
	traps := count("hw.traps_per_req", clock.OpTrapEnter)
	switches := count("mmu.ctx_switches_per_req", clock.OpCtxSwitch)
	misses := count("mmu.tlb_misses_per_req", clock.OpTLBMiss)
	count("mmu.tlb_flushes_per_req", clock.OpTLBFlush)
	faults := count("mem.page_faults_per_req", clock.OpPageFault)
	count("obj.calls_per_req", clock.OpCall)
	count("obj.batch_entries_per_req", clock.OpBatchEntry)
	count("proxy.copy_words_per_req", clock.OpCopyWord)
	count("ring.records_per_req", clock.OpRingPush)
	count("ring.doorbells_per_req", clock.OpDoorbell)
	count("names.lookup_hops_per_req", clock.OpNameLookupHop)
	m["clock.charges_per_req"] = metric{perReq(charges), "count"}
	m["probe.events_per_req"] = metric{perReq(events), "count"}
	for mod, c := range modCycles {
		m[moduleNames[mod]+".vcycles_per_req"] = metric{perReq(c), "cycles"}
	}

	for name, v := range map[string]float64{
		"hw.raise_trap_ns":     units.raiseTrap,
		"hw.touch_tagged_ns":   units.touchTagged,
		"mmu.translate_hit_ns": units.translateHit,
		"mmu.cross_switch_ns":  units.crossSwitch,
		"clock.charge_ns":      units.charge,
		"probe.emit_off_ns":    units.emitOff,
		"probe.emit_on_ns":     units.emitOn,
	} {
		m[name] = metric{v, "ns"}
	}

	med := t.selfMedians()
	for k, name := range map[spanKind]string{
		spCall: "obj.call_us", spDirectCall: "obj.direct_call_us",
		spPush: "ring.push_us", spPop: "ring.pop_us", spPeekRelease: "ring.peek_release_us",
		spNotify: "ring.notify_us", spBatch: "obj.batch_us",
		spNewDomain: "core.new_domain_us", spRegister: "core.register_us",
		spBind: "names.bind_us", spResolve: "obj.resolve_us",
		spGrant: "shm.grant_us", spMap: "shm.map_us", spAccess: "shm.access_us",
		spRevoke: "shm.revoke_us", spDestroy: "core.destroy_us",
	} {
		m[name] = metric{med[k], "us"}
	}
	var crossing, interpose float64
	if med[spCall] > 0 && med[spDirectCall] > 0 {
		crossing = med[spCall] - med[spDirectCall]
	}
	if med[spInterposed] > 0 {
		interpose = med[spInterposed] - med[spCall]
	}
	m["proxy.crossing_us"] = metric{crossing, "us"}
	m["obj.interpose_us"] = metric{interpose, "us"}

	modeled := traps*units.raiseTrap + faults*units.touchTagged + switches*units.crossSwitch +
		misses*units.translateHit + perReq(charges)*units.charge + perReq(events)*units.emitOn
	m["residual_us"] = metric{tmT.p50 - modeled/1e3, "us"}
	m["probe.overhead_ratio"] = metric{tmT.p50 / tmU.p50, "ratio"}
	m["heap.retained_bytes_per_req"] = metric{cu.retained, "B"}

	attempted, failed := pu.attempted+pt.attempted+ps.attempted, pu.failed+pt.failed+ps.failed
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// measured builds a world, warms up, runs the count phase (reading the
// ledger when the pass traces) and then the timed phase.
func (p *pass) measured(d time.Duration, t *tracer) (counted, timing, error) {
	if err := p.build(); err != nil {
		return counted{}, timing{}, err
	}
	if _, err := p.run(p.def.warm, time.Time{}, nil, nil); err != nil {
		return counted{}, timing{}, err
	}
	c, err := p.countPhase(t != nil)
	if err != nil {
		return c, timing{}, err
	}
	tm, err := p.timedPhase(d, t, nil)
	return c, tm, err
}
