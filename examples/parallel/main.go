// Parallel: the application domain the Paramecium prototype targeted —
// parallel programming with active messages over pop-up threads (van
// Doorn & Tanenbaum [10]). Incoming "network" messages carry a method
// to invoke on a shared object; each message interrupt becomes a
// proto-thread that runs the handler inline when it can and is
// promoted to a real thread only when the handler must block on the
// shared object's lock.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"paramecium/internal/clock"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/threads"
)

// Active message opcodes.
const (
	msgAdd   = 1 // add value to the shared accumulator (never blocks)
	msgSync  = 2 // grab the lock, fold in the pending delta (may block)
	msgDrain = 3 // release the lock held by the "long" worker
)

// main boots the simulation; the NIC's active-message interrupt is
// routed to the boot CPU.
func main() {
	log.SetFlags(0)
	machine := hw.New(hw.Config{PhysFrames: 64})
	sched := threads.NewScheduler(machine.Meter)
	events := event.New(machine, sched)
	nic := hw.NewNIC("net0", 4)
	if err := machine.AttachDevice(nic); err != nil {
		log.Fatal(err)
	}

	// The shared object: an accumulator protected by a thread-package
	// mutex (ordinary component, outside the nucleus).
	var accumulator int64
	var pending int64
	lock := threads.NewMutex(sched)
	gate, err := threads.NewQueue(sched, 1)
	if err != nil {
		log.Fatal(err)
	}

	// A long-running worker holds the lock until a drain message
	// arrives — this is what forces some handlers to block.
	sched.Spawn("long-worker", func(t *threads.Thread) {
		lock.Lock(t)
		gate.Pop(t) // wait for msgDrain
		lock.Unlock(t)
	})
	sched.RunUntilIdle()

	// Active-message dispatcher: NIC interrupt -> proto-thread.
	if err := events.RegisterIRQOn(nic.IRQ(), "active-msg", mmu.KernelContext, event.DispatchProto, mmu.BootCPU,
		func(f *hw.TrapFrame, t *threads.Thread) {
			regs := nic.IORegion()
			for {
				pendingFrames, _ := regs.ReadReg(hw.NICRegRxPending)
				if pendingFrames == 0 {
					return
				}
				slot, _ := regs.ReadReg(hw.NICRegRxSlot)
				data, err := nic.SlotData(int(slot))
				if err != nil {
					return
				}
				op := data[0]
				val := int64(binary.BigEndian.Uint64(data[1:9]))
				regs.WriteReg(hw.NICRegRxPop, 1)
				switch op {
				case msgAdd:
					// Lock-free fast path: runs to completion on the
					// proto-thread, no real thread ever created.
					pending += val
				case msgSync:
					// Must take the shared lock: if the long worker
					// holds it, this proto-thread is promoted.
					lock.Lock(t)
					accumulator += pending
					pending = 0
					lock.Unlock(t)
				case msgDrain:
					gate.TryPush(struct{}{})
				}
			}
		}); err != nil {
		log.Fatal(err)
	}

	send := func(op byte, val int64) {
		var frame [9]byte
		frame[0] = op
		binary.BigEndian.PutUint64(frame[1:], uint64(val))
		if err := nic.Inject(frame[:]); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 1: a burst of non-blocking adds. Every one should run
	// inline as a proto-thread.
	for i := int64(1); i <= 100; i++ {
		send(msgAdd, i)
	}
	st, _ := events.IRQStats(nic.IRQ())
	fmt.Printf("after 100 add messages: inline=%d promoted=%d (pending=%d)\n",
		st.Inline, st.Promoted, pending)

	// Phase 2: a sync while the lock is held -> promotion.
	send(msgSync, 0)
	st, _ = events.IRQStats(nic.IRQ())
	fmt.Printf("after sync against held lock: inline=%d promoted=%d\n", st.Inline, st.Promoted)

	// Phase 3: drain the long worker; the promoted sync completes
	// under the scheduler with proper thread semantics.
	send(msgDrain, 0)
	sched.RunUntilIdle()
	fmt.Printf("after drain: accumulator=%d (want %d)\n", accumulator, int64(100*101/2))
	if accumulator != 100*101/2 {
		log.Fatal("BUG: lost updates")
	}

	fmt.Printf("\ncost accounting (virtual cycles):\n")
	fmt.Printf("  proto-threads created: %d (%d cycles each)\n",
		machine.Meter.Count(clock.OpProtoThread), machine.Meter.Model.Cost(clock.OpProtoThread))
	fmt.Printf("  promotions:            %d (+%d cycles + thread creation)\n",
		machine.Meter.Count(clock.OpPromote), machine.Meter.Model.Cost(clock.OpPromote))
	fmt.Printf("  full threads created:  %d\n", machine.Meter.Count(clock.OpThreadCreate))
	fmt.Printf("  total: %d cycles for 102 active messages\n", machine.Meter.Clock.Now())
	fmt.Println("\nonly the one blocking handler paid for a real thread — the paper's proto-thread claim")
}
