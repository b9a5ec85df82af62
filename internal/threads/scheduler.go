package threads

import (
	"errors"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/probe"
)

// Scheduler multiplexes simulated threads over the machine's virtual
// processors. With one CPU (NewScheduler) it dispatches round-robin
// from a single queue, exactly as the original uniprocessor design;
// with more (NewSchedulerCPUs) it runs one dispatch loop per CPU over
// per-CPU run queues with randomized work stealing, so pop-up threads
// from concurrent interrupts genuinely run on distinct CPUs. It also
// owns the sleep queue and charges all thread-related costs.
//
// Scheduler CPU k IS machine CPU k: the run-queue index, the
// mmu.CPUID a thread reports through LastCPU, and the per-CPU TLB the
// thread's Load/Store traffic charges (through the attached machine's
// CPUByID(k)) are one identity. CPU affinity arguments are therefore
// typed mmu.CPUID end to end, with mmu.NoCPU for "no affinity".
//
// Placement and steal order, in priority:
//
//  1. A thread with a CPU binding or a last-run CPU is queued on that
//     CPU (pop-up threads stay on the CPU their event was bound to;
//     re-readied threads keep their TLB-warm CPU).
//  2. An unaffined thread with a node hint (Thread.Spawn records the
//     spawner's node) rotates round-robin across the CPUs of that
//     node — within-node first, so sibling spawns stay on one memory
//     node and spill cross-node only through stealing.
//  3. An unaffined thread with no hint rotates nodes round-robin and
//     then CPUs within the chosen node (the flat global round-robin
//     when no topology is attached).
//
// A thief empties its own queue, then steals half a victim's deque —
// scanning same-node victims first (random start within the node) and
// only then cross-node victims (random start), so rebalancing prefers
// migrations that keep frames local.
type Scheduler struct {
	meter *clock.Meter

	// mu is the global scheduler lock: sleepers, live count, thread
	// IDs, and the wait-queue registrations of the synchronization
	// primitives (sync.go). The per-CPU run queues have their own
	// locks, nested inside mu.
	mu       sync.Mutex
	nextID   uint64
	sleepers []sleeper
	live     int // spawned or promoted, not yet done

	cpus   []runqueue
	rr     atomic.Uint64 // round-robin placement for unaffined threads
	nready atomic.Int64  // threads queued across all run queues

	// machine is what dispatched threads run their simulated memory
	// traffic against, through the CPU each is dispatched on. Attached
	// once at boot, before any thread body runs.
	machine *hw.Machine

	// NUMA shape for placement, mirroring the machine topology's
	// contiguous layout (CPU k lives on node k / cpusPerNode). Zero
	// nnodes means no topology: flat round-robin placement. nodeRR
	// rotates hint-less threads across nodes; nodeCursor[i] rotates
	// placements within node i (padded so hot spawning nodes do not
	// false-share cursors).
	nnodes      int
	cpusPerNode int
	nodeRR      atomic.Uint64
	nodeCursor  []nodeCounter

	// Idle coordination for the multi-CPU dispatch loops. idleMu nests
	// inside mu (enqueues signal while callers hold mu) and is never
	// held while taking mu. nparked mirrors parked so the enqueue hot
	// path can skip the mutex when no CPU is waiting.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	parked   int
	nparked  atomic.Int64
	runDone  bool

	// Persistent dispatcher pool: one parked host worker per CPU,
	// spawned on the first parallel run and reused by every later one.
	// genMu guards the run-generation counter the workers key on:
	// RunUntilIdle bumps runGen and broadcasts, each worker runs its
	// CPU's dispatch loop for that generation, and the last one out
	// wakes the pump. genMu is a leaf lock: never held while taking mu
	// or idleMu.
	genMu         sync.Mutex
	genCond       *sync.Cond
	runGen        uint64
	genActive     int
	workersUp     bool
	poolID        uint64       // bumped by Shutdown; workers of older pools exit
	dispatched    atomic.Int64 // dispatches of the current generation
	workerSpawns  atomic.Uint64
	runMu         sync.Mutex // serializes RunUntilIdle calls
	steals        atomic.Uint64
	stolenThreads atomic.Uint64
	parks         atomic.Uint64
}

// runqueue is one CPU's local deque: the owner pops from the front
// (FIFO, preserving round-robin fairness), thieves steal from the
// back. Queues live by value in one contiguous array, padded to a
// 64-byte stride, so adjacent queues' locks do not false-share.
type runqueue struct {
	mu sync.Mutex
	q  []*Thread
	_  [32]byte
}

type sleeper struct {
	t        *Thread
	deadline uint64
}

// nodeCounter is one node's placement cursor, padded to a 64-byte
// stride like the run queues.
type nodeCounter struct {
	c atomic.Uint64
	_ [56]byte
}

// ErrNoExec is returned by thread memory accesses when no machine has
// been attached (a scheduler running without a machine, as in unit
// tests).
var ErrNoExec = errors.New("threads: no machine attached")

// ErrNotDispatched is returned by thread memory accesses from a thread
// that has never been dispatched and carries no CPU binding: it has no
// CPU identity to charge against yet.
var ErrNotDispatched = errors.New("threads: thread has no CPU identity (never dispatched)")

// AttachMachine wires the machine thread bodies perform their
// simulated memory traffic on: scheduler CPU k accesses memory through
// m.CPUByID(k). Called once at boot, before any thread body runs.
func (s *Scheduler) AttachMachine(m *hw.Machine) { s.machine = m }

// SetTopology teaches placement the machine's NUMA shape: nodes
// contiguous groups of cpusPerNode CPUs, matching hw.Topology's
// layout. Called at boot; a shape that does not cover the scheduler's
// CPUs exactly panics (a construction-time programming error).
func (s *Scheduler) SetTopology(nodes, cpusPerNode int) {
	if nodes <= 0 || cpusPerNode <= 0 || nodes*cpusPerNode != len(s.cpus) {
		panic("threads: topology does not match scheduler CPUs")
	}
	s.nnodes = nodes
	s.cpusPerNode = cpusPerNode
	s.nodeCursor = make([]nodeCounter, nodes)
}

// NewScheduler builds a single-CPU scheduler charging against meter.
func NewScheduler(meter *clock.Meter) *Scheduler {
	return NewSchedulerCPUs(meter, 1)
}

// NewSchedulerCPUs builds a scheduler dispatching over ncpu virtual
// CPUs (ncpu <= 0 means 1).
func NewSchedulerCPUs(meter *clock.Meter, ncpu int) *Scheduler {
	if ncpu <= 0 {
		ncpu = 1
	}
	s := &Scheduler{meter: meter, cpus: make([]runqueue, ncpu)}
	s.idleCond = sync.NewCond(&s.idleMu)
	s.genCond = sync.NewCond(&s.genMu)
	return s
}

// Meter exposes the scheduler's meter (used by the event service).
func (s *Scheduler) Meter() *clock.Meter { return s.meter }

// NumCPUs reports the number of virtual CPUs the scheduler dispatches
// on.
func (s *Scheduler) NumCPUs() int { return len(s.cpus) }

// Steals reports how many steal operations have taken work from
// another CPU's run queue since construction. One operation moves up
// to half the victim's deque (StolenThreads counts the threads).
func (s *Scheduler) Steals() uint64 { return s.steals.Load() }

// StolenThreads reports how many threads have migrated between CPUs
// through steal operations. StolenThreads/Steals is the rebalancing
// batch factor: near 1 under trickle load, climbing under bursty
// pop-up load where whole half-deques move at once.
func (s *Scheduler) StolenThreads() uint64 { return s.stolenThreads.Load() }

// Parks reports how many times an idle CPU parked waiting for work.
func (s *Scheduler) Parks() uint64 { return s.parks.Load() }

// DispatcherSpawns reports how many host dispatcher goroutines the
// scheduler has ever started. The persistent pool spawns one per CPU
// on the first parallel run and reuses them: the count stays at
// NumCPUs no matter how many times the scheduler is pumped.
func (s *Scheduler) DispatcherSpawns() uint64 { return s.workerSpawns.Load() }

func (s *Scheduler) newThread(name string, proto bool) *Thread {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.live++
	s.mu.Unlock()
	t := &Thread{
		id:        id,
		name:      name,
		sched:     s,
		proto:     proto,
		resume:    make(chan struct{}, 1),
		parked:    make(chan struct{}, 1),
		protoDone: make(chan bool, 1),
		done:      make(chan struct{}),
	}
	t.cpu.Store(int32(mmu.NoCPU))
	t.node.Store(-1)
	return t
}

// Spawn creates a real thread that will run fn when scheduled. The
// full thread-creation cost is charged immediately.
func (s *Scheduler) Spawn(name string, fn func(*Thread)) *Thread {
	return s.SpawnOn(mmu.NoCPU, name, fn)
}

// spawnNear is Spawn with a placement hint: the new thread is
// unaffined (stealable, no pinned CPU) but its first placement rotates
// within origin's NUMA node. Thread.Spawn passes the spawner's CPU.
func (s *Scheduler) spawnNear(origin mmu.CPUID, name string, fn func(*Thread)) *Thread {
	node := int32(-1)
	if s.nnodes > 0 && origin >= 0 && int(origin) < len(s.cpus) {
		node = int32(int(origin) / s.cpusPerNode)
	}
	return s.spawn(mmu.NoCPU, node, name, fn)
}

// SpawnOn is Spawn with a CPU affinity: the thread is queued on (and
// keeps returning to) the given CPU's run queue, unless stolen.
// mmu.NoCPU means no affinity (round-robin placement; see the
// placement order in the package comment). The event service uses it
// to route pop-up threads to the CPU an interrupt was bound to.
func (s *Scheduler) SpawnOn(cpu mmu.CPUID, name string, fn func(*Thread)) *Thread {
	return s.spawn(cpu, -1, name, fn)
}

func (s *Scheduler) spawn(cpu mmu.CPUID, node int32, name string, fn func(*Thread)) *Thread {
	s.meter.Charge(clock.OpThreadCreate)
	t := s.newThread(name, false)
	if cpu >= 0 && int(cpu) < len(s.cpus) {
		t.cpu.Store(int32(cpu))
	}
	t.node.Store(node)
	go func() {
		<-t.resume
		t.setState(StateRunning)
		fn(t)
		s.finish(t)
	}()
	s.mu.Lock()
	t.setState(StateReady)
	s.ready(t)
	s.mu.Unlock()
	return t
}

// PopUpEager turns an event into a thread the expensive way: a full
// thread is created and scheduled for every event (the baseline the
// proto-thread optimization is measured against).
func (s *Scheduler) PopUpEager(name string, fn func(*Thread)) *Thread {
	return s.Spawn(name, fn)
}

// PopUpEagerOn is PopUpEager with a CPU affinity.
func (s *Scheduler) PopUpEagerOn(cpu mmu.CPUID, name string, fn func(*Thread)) *Thread {
	return s.SpawnOn(cpu, name, fn)
}

// PopUpProto runs fn as a proto-thread: it executes immediately on the
// caller's (interrupt) context for the cheap proto-thread cost. If fn
// runs to completion without blocking, no thread is ever created. The
// moment fn blocks, yields or sleeps, the proto-thread is promoted to
// a real thread (promotion + creation costs are charged) and PopUpProto
// returns while the new thread continues under the scheduler.
//
// The returned thread handle reports, via Promoted, which path was
// taken; ran is true when fn completed inline.
func (s *Scheduler) PopUpProto(name string, fn func(*Thread)) (t *Thread, ran bool) {
	return s.PopUpProtoOn(mmu.NoCPU, name, fn)
}

// PopUpProtoOn is PopUpProto with a CPU affinity for the promotion
// path: a proto-thread that blocks is queued on (and keeps returning
// to) the given CPU, so a promoted interrupt handler stays on the CPU
// its event was bound to — and its simulated memory traffic keeps
// charging that CPU's TLB. The inline fast path is unaffected.
// mmu.NoCPU means no affinity.
func (s *Scheduler) PopUpProtoOn(cpu mmu.CPUID, name string, fn func(*Thread)) (t *Thread, ran bool) {
	s.meter.Charge(clock.OpProtoThread)
	t = s.newThread(name, true)
	if cpu >= 0 && int(cpu) < len(s.cpus) {
		t.cpu.Store(int32(cpu))
	}
	t.setState(StateRunning)
	go func() {
		fn(t)
		s.finish(t)
	}()
	completed := <-t.protoDone
	return t, completed
}

// chargePromotion accounts for turning a proto-thread into a real
// thread. Callers hold s.mu.
func (s *Scheduler) chargePromotion() {
	s.meter.Charge(clock.OpPromote)
	s.meter.Charge(clock.OpThreadCreate)
}

// finish retires a thread.
func (s *Scheduler) finish(t *Thread) {
	s.mu.Lock()
	t.setState(StateDone)
	s.live--
	s.mu.Unlock()
	close(t.done)
	t.stop(true)
}

// ready queues t for dispatch: on its affine CPU when it has one, else
// round-robin. Thread-state transitions call it holding s.mu; the run
// queues have their own locks, so that nesting is the only ordering
// requirement. The enqueue is visible to a concurrent dispatcher the
// moment the queue lock drops — the thread may be popped (and its
// resume buffered) before it has even parked; the baton protocol
// absorbs this.
func (s *Scheduler) ready(t *Thread) {
	cpu := 0
	if n := len(s.cpus); n > 1 {
		if a := int(t.cpu.Load()); a >= 0 && a < n {
			cpu = a
		} else if s.nnodes > 0 {
			// Node-aware placement (order documented on Scheduler):
			// rotate within the hinted node; hint-less threads rotate
			// nodes first, then CPUs within the node they landed on.
			node := int(t.node.Load())
			if node < 0 || node >= s.nnodes {
				node = int(s.nodeRR.Add(1)-1) % s.nnodes
			}
			within := int(s.nodeCursor[node].c.Add(1)-1) % s.cpusPerNode
			cpu = node*s.cpusPerNode + within
		} else {
			cpu = int(s.rr.Add(1)-1) % n
		}
	}
	rq := &s.cpus[cpu]
	// Count before enqueueing: quiesce declares the run done only when
	// nready is zero under idleMu, so an enqueue in flight must be
	// visible in the counter before (never after) it is visible in a
	// queue — over-counting briefly just makes an idle CPU rescan;
	// under-counting would let the run end with a thread stranded.
	s.nready.Add(1)
	rq.mu.Lock()
	rq.q = append(rq.q, t)
	rq.mu.Unlock()
	// Wake a parked CPU — but skip the (global) idleMu entirely when
	// nobody is parked, so saturated enqueues stay on per-CPU locks.
	// No wakeup is lost: a parker bumps nparked before re-checking
	// nready under idleMu, and this enqueue bumped nready before
	// reading nparked; sequentially consistent atomics forbid both
	// sides observing the other's pre-update value.
	if len(s.cpus) > 1 && s.nparked.Load() > 0 {
		s.idleMu.Lock()
		s.idleCond.Signal()
		s.idleMu.Unlock()
	}
}

// Wake moves a blocked thread to the ready queue. Synchronization
// primitives call it with the scheduler lock held via wakeLocked; the
// exported form is for event sources living outside this package.
func (s *Scheduler) Wake(t *Thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wakeLocked(t)
}

func (s *Scheduler) wakeLocked(t *Thread) {
	t.setState(StateReady)
	if probe.Enabled() {
		s.meter.Emit(int(t.cpu.Load()), probe.KindWake, uint32(clock.KernelDomain), t.id, 0)
	}
	s.ready(t)
}

// RunUntilIdle dispatches ready threads until none remain. When every
// run queue drains but threads are sleeping on the virtual clock, the
// clock is advanced to the earliest deadline and the sleepers are
// woken. With one CPU it dispatches inline on the caller, round-robin,
// exactly as the original uniprocessor scheduler; with more it runs
// one dispatch loop per CPU, each popping its local queue, stealing
// from random victims when empty, and parking when there is nothing to
// steal. It returns the number of dispatches performed.
func (s *Scheduler) RunUntilIdle() int {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if len(s.cpus) == 1 {
		return s.runSequential()
	}
	return s.runParallel()
}

func (s *Scheduler) runSequential() int {
	dispatches := 0
	for {
		t := s.next()
		if t == nil {
			return dispatches
		}
		dispatches++
		s.dispatch(0, t)
	}
}

// dispatch hands the processor to t and waits for it to stop running.
func (s *Scheduler) dispatch(cpu int, t *Thread) {
	t.cpu.Store(int32(cpu))
	s.meter.Charge(clock.OpSchedule)
	t.resume <- struct{}{}
	<-t.parked // until the thread stops running again
}

// next pops the next ready thread for the single-CPU path, advancing
// virtual time over sleep gaps when necessary. It returns nil when the
// system is idle. Holding s.mu across the empty-queue check and the
// clock advance keeps them atomic against concurrent Spawns, exactly
// as the original single-runqueue scheduler behaved.
func (s *Scheduler) next() *Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.pop(0); t != nil {
			return t
		}
		if !s.advanceDueLocked() {
			return nil
		}
	}
}

// pop takes the oldest thread from one CPU's queue.
func (s *Scheduler) pop(cpu int) *Thread {
	rq := &s.cpus[cpu]
	rq.mu.Lock()
	if len(rq.q) == 0 {
		rq.mu.Unlock()
		return nil
	}
	t := rq.q[0]
	rq.q = rq.q[1:]
	rq.mu.Unlock()
	s.nready.Add(-1)
	return t
}

// stealFor scans other CPUs' queues and, at the first non-empty one,
// takes HALF the deque from the back (at least one thread; the owner
// keeps the front half and its FIFO order). With a NUMA topology the
// scan covers same-node victims first (random start within the node),
// then the rest of the machine (random start) — rebalancing prefers
// migrations that keep the migrated threads' frames local. The newest
// stolen thread is returned for immediate dispatch and the rest land
// on the thief's own queue, so a burst concentrated on one CPU — many
// pop-up threads from one interrupt line — spreads across the
// topology in O(log n) steal operations instead of O(n).
func (s *Scheduler) stealFor(me int, rng *clock.Rand) *Thread {
	if s.nnodes > 0 {
		base := (me / s.cpusPerNode) * s.cpusPerNode
		if t := s.stealScan(me, base, s.cpusPerNode, rng); t != nil {
			return t
		}
	}
	return s.stealScan(me, 0, len(s.cpus), rng)
}

// stealScan is one steal pass over the width CPUs starting at base,
// from a random start within the window, skipping the thief itself.
func (s *Scheduler) stealScan(me, base, width int, rng *clock.Rand) *Thread {
	start := rng.Intn(width)
	for i := 0; i < width; i++ {
		v := base + (start+i)%width
		if v == me {
			continue
		}
		rq := &s.cpus[v]
		rq.mu.Lock()
		ln := len(rq.q)
		if ln == 0 {
			rq.mu.Unlock()
			continue
		}
		take := (ln + 1) / 2
		batch := make([]*Thread, take)
		copy(batch, rq.q[ln-take:])
		// Clear the vacated tail so the victim's backing array does
		// not pin migrated threads.
		for j := ln - take; j < ln; j++ {
			rq.q[j] = nil
		}
		rq.q = rq.q[:ln-take]
		rq.mu.Unlock()
		// Threads before operations: a reader computing the batch factor
		// StolenThreads/Steals must never observe a steal whose threads
		// have not landed in the numerator yet (the ratio would dip below
		// one thread per operation, which is impossible).
		s.stolenThreads.Add(uint64(take))
		s.steals.Add(1)
		if probe.Enabled() {
			s.meter.Emit(me, probe.KindSteal, uint32(clock.KernelDomain), uint64(v), uint64(take))
		}

		// Run the newest now; park the remainder on our own queue.
		// Their nready counts are unchanged — they stay ready, only
		// homed elsewhere — except for the one we dispatch ourselves.
		t := batch[take-1]
		s.nready.Add(-1)
		if rest := batch[:take-1]; len(rest) > 0 {
			my := &s.cpus[me]
			my.mu.Lock()
			my.q = append(my.q, rest...)
			my.mu.Unlock()
			// The surplus is stealable work other idle CPUs should see:
			// wake them as an enqueue would. Broadcast, not Signal — a
			// half-deque can feed several parked CPUs at once.
			if s.nparked.Load() > 0 {
				s.idleMu.Lock()
				s.idleCond.Broadcast()
				s.idleMu.Unlock()
			}
		}
		return t
	}
	return nil
}

// advanceDueLocked advances the virtual clock to the earliest sleep
// deadline and wakes every due sleeper. It returns false when there is
// nothing to advance to (no sleepers). Callers hold s.mu.
func (s *Scheduler) advanceDueLocked() bool {
	if len(s.sleepers) == 0 {
		return false
	}
	earliest := s.sleepers[0].deadline
	for _, sl := range s.sleepers[1:] {
		if sl.deadline < earliest {
			earliest = sl.deadline
		}
	}
	now := s.meter.Clock.Now()
	if earliest > now {
		// Attributed so the ledger's total still equals the clock: the
		// idle fast-forward lands in the kernel row's idle pseudo-slot.
		s.meter.AdvanceAttributed(earliest - now)
	}
	now = s.meter.Clock.Now()
	var rest []sleeper
	for _, sl := range s.sleepers {
		if sl.deadline <= now {
			s.wakeLocked(sl.t)
		} else {
			rest = append(rest, sl)
		}
	}
	s.sleepers = rest
	return true
}

// runParallel pumps the persistent dispatcher pool through one run
// generation and waits for it to go idle: every queue empty, every
// CPU parked, and no sleepers left to advance the clock to. The pool
// — one parked host goroutine per CPU — is spawned once, on the first
// parallel run, and reused by every later pump: a long-running
// embedding that calls RunUntilIdle repeatedly pays no per-call
// goroutine creation, only a broadcast.
func (s *Scheduler) runParallel() int {
	s.idleMu.Lock()
	s.runDone = false
	s.parked = 0
	s.nparked.Store(0)
	s.idleMu.Unlock()
	s.dispatched.Store(0)
	s.genMu.Lock()
	if !s.workersUp {
		s.workersUp = true
		for i := range s.cpus {
			s.workerSpawns.Add(1)
			go s.dispatcher(i, s.poolID)
		}
	}
	s.runGen++
	s.genActive = len(s.cpus)
	s.genCond.Broadcast()
	for s.genActive > 0 {
		s.genCond.Wait()
	}
	s.genMu.Unlock()
	return int(s.dispatched.Load())
}

// dispatcher is one CPU's persistent host worker: it parks on the
// generation condvar between runs, runs its CPU's dispatch loop for
// each new generation, and — as the last worker out of a generation —
// wakes the pump. A worker that is slow re-parking cannot miss a
// generation: it compares the counter, not the broadcast. A worker
// whose pool has been shut down exits at the park point without ever
// touching a newer pool's generation accounting.
func (s *Scheduler) dispatcher(cpu int, pool uint64) {
	rng := clock.NewRand(uint64(cpu)*0x9e3779b9 + 1)
	var gen uint64
	for {
		s.genMu.Lock()
		for s.runGen == gen && s.poolID == pool {
			s.genCond.Wait()
		}
		if s.poolID != pool {
			s.genMu.Unlock()
			return
		}
		gen = s.runGen
		s.genMu.Unlock()
		s.dispatchLoop(cpu, rng)
		s.genMu.Lock()
		s.genActive--
		if s.genActive == 0 {
			s.genCond.Broadcast()
		}
		s.genMu.Unlock()
	}
}

// Shutdown releases the persistent dispatcher pool: every parked
// worker exits, so an embedding that discards a multi-CPU scheduler
// does not strand NumCPUs host goroutines for the process lifetime.
// It waits for any in-flight RunUntilIdle to finish first. The
// scheduler remains usable — the next RunUntilIdle simply spawns a
// fresh pool — so Shutdown is a release of idle resources, not a
// terminal state. Single-CPU schedulers have no pool and Shutdown is
// a no-op.
func (s *Scheduler) Shutdown() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.genMu.Lock()
	if s.workersUp {
		s.workersUp = false
		s.poolID++
		s.genCond.Broadcast()
	}
	s.genMu.Unlock()
}

func (s *Scheduler) dispatchLoop(cpu int, rng *clock.Rand) {
	for {
		t := s.pop(cpu)
		if t == nil {
			t = s.stealFor(cpu, rng)
		}
		if t != nil {
			s.dispatched.Add(1)
			s.dispatch(cpu, t)
			continue
		}
		if s.quiesce(cpu) {
			return
		}
	}
}

// quiesce parks an idle CPU until work appears, returning true when the
// run is over. The last CPU to park is responsible for the virtual
// clock: if every queue is empty and threads sleep on the clock, it
// advances time and wakes them; if there is nothing left at all, it
// declares the run done and releases everyone.
func (s *Scheduler) quiesce(cpu int) (done bool) {
	s.idleMu.Lock()
	s.parked++
	s.nparked.Add(1)
	if s.parked == len(s.cpus) && s.nready.Load() == 0 {
		// advanceDueLocked needs s.mu, which must never be acquired
		// under idleMu; drop and re-take. Another CPU waking in the
		// window only delays the done declaration, never corrupts it.
		s.idleMu.Unlock()
		s.mu.Lock()
		progressed := s.nready.Load() > 0 || s.advanceDueLocked()
		s.mu.Unlock()
		s.idleMu.Lock()
		if !progressed && s.nready.Load() == 0 && s.parked == len(s.cpus) && !s.runDone {
			s.runDone = true
			s.idleCond.Broadcast()
		}
	}
	for !s.runDone && s.nready.Load() == 0 {
		s.parks.Add(1)
		if probe.Enabled() {
			s.meter.Emit(cpu, probe.KindPark, uint32(clock.KernelDomain), 0, 0)
		}
		s.idleCond.Wait()
	}
	done = s.runDone
	s.parked--
	s.nparked.Add(-1)
	s.idleMu.Unlock()
	return done
}

// ReadyCount reports the number of threads waiting to run.
func (s *Scheduler) ReadyCount() int {
	return int(s.nready.Load())
}

// LiveCount reports spawned/promoted threads that have not finished.
func (s *Scheduler) LiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}
