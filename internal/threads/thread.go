// Package threads is the Paramecium thread package: an ordinary
// component living *outside* the nucleus that turns processor events
// into pop-up threads.
//
// The centrepiece is the proto-thread optimization from Section 3 of
// the paper: "for efficiency reasons, we delay the actual creation of
// the pop-up thread by creating a proto-thread. Only when the
// proto-thread is about to block or be rescheduled do we turn it into
// a real thread. This allows us to provide fast interrupt processing
// of user code with proper thread semantics."
//
// Threads are cooperative: at most one simulated thread runs per
// virtual CPU (one CPU, scheduled round-robin, unless the scheduler is
// built with NewSchedulerCPUs, which dispatches work-stealing across
// per-CPU run queues). Each simulated thread is backed by a host
// goroutine exchanging a baton with a dispatcher; all costs (thread
// creation, promotion, scheduling decisions) are charged in virtual
// cycles, so the host goroutine machinery does not pollute the
// experiments.
package threads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
)

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	StateReady State = iota
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thread is a simulated thread. The function run by the thread
// receives the *Thread and must use it for all blocking operations
// (Yield, Sleep, Mutex.Lock, Cond.Wait).
type Thread struct {
	id    uint64
	name  string
	sched *Scheduler

	// cpu is the virtual CPU the thread last ran on (its affinity for
	// requeueing), or NoCPU before the first dispatch. Stealing
	// rewrites it at the next dispatch.
	cpu atomic.Int32

	// node is the NUMA node first placement should rotate within —
	// the spawner's node for Thread.Spawn siblings — or -1 when the
	// thread has no placement hint. Meaningless once cpu is set.
	node atomic.Int32

	// mu guards the mutable fields below; the scheduler's own lock
	// orders cross-thread transitions.
	mu       sync.Mutex
	state    State
	proto    bool // started as a proto-thread
	promoted bool // proto-thread has been turned into a real thread

	// Baton protocol:
	//   resume <- : scheduler tells the thread to run.
	//   parked <- : thread tells the scheduler it stopped running.
	// For proto-threads the first stop is reported on protoDone
	// instead of parked (the dispatcher, not the scheduler, waits).
	resume    chan struct{}
	parked    chan struct{}
	protoDone chan bool // true = ran to completion, false = promoted

	done chan struct{} // closed when the thread finishes
}

// ID returns the thread identifier.
func (t *Thread) ID() uint64 { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// State reports the current scheduling state.
func (t *Thread) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// LastCPU reports the virtual CPU the thread last ran on, or mmu.NoCPU
// if it has not been dispatched yet. The identity is the machine's
// own: scheduler CPU k is hw.Machine.CPUByID(k), so the value indexes
// per-CPU TLB and trap state directly.
func (t *Thread) LastCPU() mmu.CPUID { return mmu.CPUID(t.cpu.Load()) }

// Spawn creates an unaffined sibling thread placed near the spawner:
// with a NUMA topology the child's first placement rotates across the
// CPUs of the spawner's node (spilling cross-node only through work
// stealing); without one it falls back to the scheduler's flat
// round-robin. The full thread-creation cost is charged immediately.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	return t.sched.spawnNear(mmu.CPUID(t.cpu.Load()), name, fn)
}

// Load reads simulated memory at va in context ctx through the CPU the
// thread is currently dispatched on, so the access populates (and the
// misses charge) that CPU's TLB.
func (t *Thread) Load(ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	c, err := t.execCPU()
	if err != nil {
		return err
	}
	return c.Load(ctx, va, buf)
}

// Store writes simulated memory at va in context ctx through the CPU
// the thread is currently dispatched on.
func (t *Thread) Store(ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	c, err := t.execCPU()
	if err != nil {
		return err
	}
	return c.Store(ctx, va, buf)
}

// execCPU resolves the thread's execution context: the attached
// machine's CPU the thread is dispatched on. A thread that has never
// been dispatched (and carries no binding) has no CPU identity yet —
// that is an error, never a silent fallback to another CPU's TLB.
func (t *Thread) execCPU() (*hw.CPU, error) {
	m := t.sched.machine
	if m == nil {
		return nil, ErrNoExec
	}
	cpu := mmu.CPUID(t.cpu.Load())
	if cpu == mmu.NoCPU {
		return nil, ErrNotDispatched
	}
	return m.CPUByID(cpu), nil
}

// Promoted reports whether this thread began life as a proto-thread
// and was promoted to a real thread.
func (t *Thread) Promoted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.promoted
}

// Done returns a channel closed when the thread finishes. Intended for
// the host-side test harness, not for simulated code.
func (t *Thread) Done() <-chan struct{} { return t.done }

func (t *Thread) setState(s State) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

// stop reports "I stopped running" to whoever is waiting: the
// scheduler (parked) or, for a not-yet-promoted proto-thread, the
// event dispatcher (protoDone).
func (t *Thread) stop(completed bool) {
	t.mu.Lock()
	isProtoFirstStop := t.proto && !t.promoted
	if isProtoFirstStop && !completed {
		t.promoted = true
	}
	t.mu.Unlock()
	if isProtoFirstStop {
		t.protoDone <- completed
		return
	}
	t.parked <- struct{}{}
}

// Yield voluntarily gives up the processor; the thread goes to the
// back of the ready queue. A proto-thread that yields is promoted (it
// is "about to be rescheduled").
func (t *Thread) Yield() {
	s := t.sched
	s.mu.Lock()
	wasProto := t.proto && !t.promoted
	if wasProto {
		s.chargePromotion()
	}
	t.setState(StateReady)
	s.ready(t)
	s.mu.Unlock()
	t.stop(false)
	<-t.resume
	t.setState(StateRunning)
}

// Sleep blocks the thread for the given number of virtual cycles. The
// scheduler advances the clock when all threads are sleeping, so
// virtual sleeps complete without wall-clock delay.
func (t *Thread) Sleep(cycles uint64) {
	s := t.sched
	s.mu.Lock()
	if t.proto && !t.promoted {
		s.chargePromotion()
	}
	t.setState(StateSleeping)
	deadline := s.meter.Clock.Now() + cycles
	s.sleepers = append(s.sleepers, sleeper{t: t, deadline: deadline})
	s.mu.Unlock()
	t.stop(false)
	<-t.resume
	t.setState(StateRunning)
}

// block parks the thread after registering it with a wait queue; the
// registration runs under the scheduler lock so wakeups cannot be
// lost. Used by the synchronization primitives.
func (t *Thread) block(register func()) {
	t.sched.mu.Lock()
	t.blockLocked(register)
}

// blockLocked is block for callers already holding the scheduler lock;
// it releases the lock before parking. A proto-thread blocking for the
// first time is promoted here.
func (t *Thread) blockLocked(register func()) {
	s := t.sched
	if t.proto && !t.promoted {
		s.chargePromotion()
	}
	t.setState(StateBlocked)
	if register != nil {
		register()
	}
	s.mu.Unlock()
	t.stop(false)
	<-t.resume
	t.setState(StateRunning)
}
