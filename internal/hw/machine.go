// Package hw simulates the machine Paramecium runs on: N virtual CPUs
// (Config.CPUs; one by default) with trap and interrupt vectors, an MMU
// (package mmu) with per-CPU context registers and TLBs, physical
// memory, I/O spaces and a small set of devices.
//
// The machine is deliberately not an instruction-set simulator.
// Components execute as Go code (or as PVM bytecode, package sandbox),
// but every access to *simulated memory* goes through CPU.Load/Store and
// therefore through the MMU, and every privileged transition (trap,
// interrupt, context switch) is charged on the shared cycle meter. This
// is exactly the level of detail the paper's arguments live at: counts
// of protection-boundary crossings, faults and run-time checks.
package hw

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/probe"
)

// TrapVector identifies a synchronous processor event (trap).
type TrapVector int

// The trap vectors the nucleus knows about. User-defined vectors start
// at TrapUserBase.
const (
	TrapPageFault TrapVector = iota
	TrapSyscall
	TrapDivZero
	TrapIllegal
	TrapBreakpoint
	TrapUserBase TrapVector = 32
)

func (v TrapVector) String() string {
	switch v {
	case TrapPageFault:
		return "page-fault"
	case TrapSyscall:
		return "syscall"
	case TrapDivZero:
		return "div-zero"
	case TrapIllegal:
		return "illegal"
	case TrapBreakpoint:
		return "breakpoint"
	}
	return fmt.Sprintf("trap(%d)", int(v))
}

// IRQLine identifies an interrupt source.
type IRQLine int

// NumIRQLines is the number of interrupt lines on the simulated machine.
const NumIRQLines = 16

// TrapFrame carries the state delivered with a trap or interrupt.
type TrapFrame struct {
	Vector TrapVector
	IRQ    IRQLine
	Ctx    mmu.ContextID
	Addr   mmu.VAddr // faulting address, if any
	Access mmu.Access
	Fault  *mmu.Fault // populated for page-fault traps
	Arg    uint64     // syscall number or device-specific argument
	// Tag is a caller-supplied value threaded from CPU.TouchTagged
	// through to the fault handler. Reentrant handlers (the cross-domain
	// proxy) carry per-call state in it, so concurrent faults on one
	// page each reach their own call frame. Nil means "untagged access".
	Tag any
	// CPU is the virtual CPU the trap or interrupt was delivered on.
	// Handlers that switch contexts or charge TLB traffic use it to
	// operate on the right per-CPU MMU state.
	CPU mmu.CPUID
}

// TrapHandler handles a trap or interrupt. The handler for a page fault
// returns true if the fault was resolved and the access should be
// retried.
type TrapHandler func(*TrapFrame) bool

// ErrNoHandler is returned when an event fires with no registered
// handler. On real hardware this would be a fatal watchdog reset.
var ErrNoHandler = errors.New("hw: no handler for event")

// ErrBadIRQ is returned for out-of-range interrupt lines.
var ErrBadIRQ = errors.New("hw: bad IRQ line")

// Machine is the simulated computer.
type Machine struct {
	Meter *clock.Meter
	MMU   *mmu.MMU
	Phys  *mmu.PhysMem

	// cpus are the machine's virtual processors; cpuRR round-robins
	// lease acquisition so concurrent callers spread across them.
	cpus  []*CPU
	cpuRR atomic.Uint64

	// topo is the validated NUMA shape, nil on the default single-node
	// machine (in which case no access is ever charged as remote).
	topo *Topology

	// mu guards the handler tables, device list and IRQ state. The
	// trap hot path (RaiseTrap) only ever read-locks it, so concurrent
	// page faults dispatch in parallel.
	mu         sync.RWMutex
	trapTable  map[TrapVector]TrapHandler
	irqTable   [NumIRQLines]TrapHandler
	irqMasked  [NumIRQLines]bool
	irqPending [NumIRQLines]int
	devices    []Device
	iospaces   map[string]*IORegion

	// stats, atomic: counted on the concurrent fault path.
	trapsDelivered atomic.Uint64
	irqsDelivered  atomic.Uint64
	irqsDropped    atomic.Uint64
	sharedLeases   atomic.Uint64
}

// Config controls machine construction.
type Config struct {
	PhysFrames int        // number of physical frames (0 => 4096)
	MMU        mmu.Config // MMU configuration
	Costs      *clock.CostModel
	// CPUs is the virtual CPU count (0 => 1). It overrides MMU.CPUs:
	// the machine and its MMU always agree on the topology.
	CPUs int
	// Topology is the optional NUMA shape. When set it determines the
	// CPU count (Nodes × CPUsPerNode, overriding CPUs) and enables
	// remote-frame-access charging; a malformed topology panics at
	// construction. Nil is the classic flat machine.
	Topology *Topology
}

// New builds a machine.
func New(cfg Config) *Machine {
	frames := cfg.PhysFrames
	if frames <= 0 {
		frames = 4096
	}
	costs := clock.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	var topo *Topology
	if cfg.Topology != nil {
		var err error
		if topo, err = cfg.Topology.validate(); err != nil {
			panic(err)
		}
	}
	ncpu := cfg.CPUs
	if topo != nil {
		ncpu = topo.NumCPUs()
	}
	if ncpu <= 0 {
		ncpu = cfg.MMU.CPUs
	}
	if ncpu <= 0 {
		ncpu = 1
	}
	mmuCfg := cfg.MMU
	mmuCfg.CPUs = ncpu
	meter := clock.NewMeter(costs)
	m := &Machine{
		Meter:     meter,
		MMU:       mmu.New(meter, mmuCfg),
		Phys:      mmu.NewPhysMem(frames),
		topo:      topo,
		trapTable: make(map[TrapVector]TrapHandler),
		iospaces:  make(map[string]*IORegion),
	}
	m.cpus = make([]*CPU, ncpu)
	for i := range m.cpus {
		m.cpus[i] = &CPU{id: mmu.CPUID(i), m: m}
	}
	return m
}

// SetTrapHandler installs the handler for a trap vector, returning the
// previous handler (nil if none). Passing a nil handler uninstalls.
func (m *Machine) SetTrapHandler(v TrapVector, h TrapHandler) TrapHandler {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.trapTable[v]
	if h == nil {
		delete(m.trapTable, v)
	} else {
		m.trapTable[v] = h
	}
	return prev
}

// SetIRQHandler installs the handler for an interrupt line.
func (m *Machine) SetIRQHandler(line IRQLine, h TrapHandler) (TrapHandler, error) {
	if line < 0 || line >= NumIRQLines {
		return nil, fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.irqTable[line]
	m.irqTable[line] = h
	return prev, nil
}

// MaskIRQ disables delivery on a line; raised interrupts are counted as
// pending and delivered when the line is unmasked.
func (m *Machine) MaskIRQ(line IRQLine) error {
	if line < 0 || line >= NumIRQLines {
		return fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.irqMasked[line] = true
	return nil
}

// UnmaskIRQ re-enables a line and delivers any pending interrupts to
// the boot CPU.
func (m *Machine) UnmaskIRQ(line IRQLine) error {
	if line < 0 || line >= NumIRQLines {
		return fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	m.mu.Lock()
	pending := m.irqPending[line]
	m.irqPending[line] = 0
	m.irqMasked[line] = false
	m.mu.Unlock()
	for i := 0; i < pending; i++ {
		if err := m.RaiseIRQOn(line, mmu.BootCPU); err != nil {
			return err
		}
	}
	return nil
}

// RaiseTrap delivers a synchronous trap, charging trap entry and exit.
// It returns the handler's verdict (meaningful for page faults) or
// ErrNoHandler.
func (m *Machine) RaiseTrap(frame *TrapFrame) (bool, error) {
	if frame.CPU < 0 || int(frame.CPU) >= len(m.cpus) {
		// Rejected up front: handlers index per-CPU state (delivery
		// locks, context registers) by frame.CPU and would panic on a
		// CPU the machine does not have.
		return false, fmt.Errorf("hw: no CPU %d (machine has %d)", frame.CPU, len(m.cpus))
	}
	m.mu.RLock()
	h := m.trapTable[frame.Vector]
	m.mu.RUnlock()
	m.trapsDelivered.Add(1)
	m.cpus[frame.CPU].traps.Add(1)
	// The trapping context pays for both protection-boundary legs.
	m.Meter.ChargeFor(uint32(frame.Ctx), clock.OpTrapEnter)
	defer m.Meter.ChargeFor(uint32(frame.Ctx), clock.OpTrapExit)
	if probe.Enabled() {
		m.Meter.Emit(int(frame.CPU), probe.KindTrap, uint32(frame.Ctx), uint64(frame.Vector), uint64(frame.Arg))
	}
	if h == nil {
		return false, fmt.Errorf("%w: trap %v", ErrNoHandler, frame.Vector)
	}
	return h(frame), nil
}

// RaiseIRQOn delivers an interrupt on the given line to one CPU: the
// trap frame carries that CPU's ID and active context, so the handler
// runs against the interrupted CPU's MMU state. Concurrent interrupts
// on distinct CPUs dispatch in parallel.
func (m *Machine) RaiseIRQOn(line IRQLine, cpu mmu.CPUID) error {
	if line < 0 || line >= NumIRQLines {
		return fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	if cpu < 0 || int(cpu) >= len(m.cpus) {
		return fmt.Errorf("hw: no CPU %d (machine has %d)", cpu, len(m.cpus))
	}
	m.mu.Lock()
	if m.irqMasked[line] {
		m.irqPending[line]++
		m.mu.Unlock()
		return nil
	}
	h := m.irqTable[line]
	if h == nil {
		m.irqsDropped.Add(1)
		m.mu.Unlock()
		return fmt.Errorf("%w: irq %d", ErrNoHandler, line)
	}
	m.irqsDelivered.Add(1)
	m.cpus[cpu].irqs.Add(1)
	m.mu.Unlock()
	m.Meter.Charge(clock.OpInterrupt)
	frame := &TrapFrame{Vector: -1, IRQ: line, Ctx: m.MMU.CurrentOn(cpu), CPU: cpu}
	h(frame)
	return nil
}

// Stats reports delivery counters.
func (m *Machine) Stats() (traps, irqs, dropped uint64) {
	return m.trapsDelivered.Load(), m.irqsDelivered.Load(), m.irqsDropped.Load()
}

// accessOn moves buf through the MMU page by page on one CPU: the
// memory-access data plane under every CPU.Load/Store.
//
//paramecium:hotpath
func (m *Machine) accessOn(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, buf []byte, kind mmu.Access) error {
	for len(buf) > 0 {
		pa, err := m.translateWithFaults(cpu, ctx, va, kind, nil)
		if err != nil {
			return err
		}
		n := mmu.PageSize - int(va.Offset())
		if n > len(buf) {
			n = len(buf)
		}
		// Charge before touching DRAM: the cost model bills the copy
		// attempt, so the movement below is always pre-paid. The touching
		// context pays for its own memory traffic.
		m.Meter.ChargeNFor(uint32(ctx), clock.OpCopyWord, uint64((n+7)/8))
		if m.topo != nil {
			m.chargeRemote(cpu, ctx, pa)
		}
		if kind == mmu.AccessWrite {
			err = m.Phys.Write(pa, buf[:n])
		} else {
			err = m.Phys.Read(pa, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += mmu.VAddr(n)
	}
	return nil
}

// trapFramePool recycles the page-fault trap frames the access path
// delivers. Trap delivery is synchronous — "the faulting context is
// suspended until the handler returns" — so once RaiseTrap returns the
// frame is dead and can be reused; pooling it keeps the per-call frame
// allocation off the cross-domain invocation hot path. Handlers must
// not retain a fault frame past their return (asynchronous IRQ frames,
// which pop-up threads may outlive their delivery with, are allocated
// fresh and never pooled).
var trapFramePool = sync.Pool{New: func() any { return new(TrapFrame) }}

// translateWithFaults translates va on one CPU, delivering a
// page-fault trap on failure and retrying once if the handler reports
// the fault resolved. The trap frame carries the CPU, so the handler's
// own crossings and TLB traffic charge against the faulting CPU.
func (m *Machine) translateWithFaults(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, kind mmu.Access, tag any) (mmu.PAddr, error) {
	for attempt := 0; ; attempt++ {
		pa, err := m.MMU.TranslateOn(cpu, ctx, va, kind)
		if err == nil {
			return pa, nil
		}
		var f *mmu.Fault
		if !errors.As(err, &f) {
			return 0, err
		}
		if attempt > 0 {
			// The handler claimed resolution but the fault persists:
			// report it rather than spinning.
			return 0, fmt.Errorf("hw: fault persists after handler: %w", f)
		}
		m.Meter.ChargeFor(uint32(ctx), clock.OpPageFault)
		if probe.Enabled() {
			m.Meter.Emit(int(cpu), probe.KindFault, uint32(ctx), uint64(va), uint64(kind))
		}
		frame := trapFramePool.Get().(*TrapFrame)
		*frame = TrapFrame{
			Vector: TrapPageFault,
			Ctx:    ctx,
			Addr:   va,
			Access: kind,
			Fault:  f,
			Tag:    tag,
			CPU:    cpu,
		}
		resolved, herr := m.RaiseTrap(frame)
		*frame = TrapFrame{}
		trapFramePool.Put(frame)
		if herr != nil {
			return 0, fmt.Errorf("hw: unhandled page fault: %w", f)
		}
		if !resolved {
			return 0, f
		}
	}
}

// Syscall raises the syscall trap with the given argument, modelling a
// user-to-kernel protected entry. It returns the handler's verdict.
func (m *Machine) Syscall(ctx mmu.ContextID, arg uint64) (bool, error) {
	return m.RaiseTrap(&TrapFrame{Vector: TrapSyscall, Ctx: ctx, Arg: arg})
}

// AttachDevice registers a device and its I/O region, and wires the
// device to the machine for interrupt raising.
func (m *Machine) AttachDevice(d Device) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	region := d.IORegion()
	if region != nil {
		if _, dup := m.iospaces[region.Name]; dup {
			return fmt.Errorf("hw: duplicate I/O region %q", region.Name)
		}
		m.iospaces[region.Name] = region
	}
	m.devices = append(m.devices, d)
	d.attach(m)
	return nil
}

// Device returns an attached device by name, or nil.
func (m *Machine) Device(name string) Device {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, d := range m.devices {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// Devices returns the attached devices in attach order.
func (m *Machine) Devices() []Device {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Device, len(m.devices))
	copy(out, m.devices)
	return out
}

// IORegionByName returns a registered I/O region.
func (m *Machine) IORegionByName(name string) (*IORegion, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.iospaces[name]
	return r, ok
}
