package hw

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

func newTestMachine() *Machine {
	return New(Config{PhysFrames: 64})
}

func TestTrapDispatch(t *testing.T) {
	m := newTestMachine()
	var got *TrapFrame
	m.SetTrapHandler(TrapSyscall, func(f *TrapFrame) bool {
		got = f
		return true
	})
	ok, err := m.RaiseTrap(&TrapFrame{Vector: TrapSyscall, Ctx: mmu.KernelContext, Arg: 42, CPU: mmu.BootCPU})
	if err != nil || !ok {
		t.Fatalf("RaiseTrap(syscall) = %v, %v", ok, err)
	}
	if got == nil || got.Arg != 42 || got.Vector != TrapSyscall {
		t.Fatalf("handler saw %+v", got)
	}
	if m.Meter.Count(clock.OpTrapEnter) != 1 || m.Meter.Count(clock.OpTrapExit) != 1 {
		t.Fatal("trap entry/exit not charged")
	}
}

func TestTrapNoHandler(t *testing.T) {
	m := newTestMachine()
	_, err := m.RaiseTrap(&TrapFrame{Vector: TrapDivZero})
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestSetTrapHandlerReturnsPrevious(t *testing.T) {
	m := newTestMachine()
	h1 := func(*TrapFrame) bool { return true }
	if prev := m.SetTrapHandler(TrapSyscall, h1); prev != nil {
		t.Fatal("fresh vector had a previous handler")
	}
	if prev := m.SetTrapHandler(TrapSyscall, nil); prev == nil {
		t.Fatal("uninstall did not return previous handler")
	}
	if _, err := m.RaiseTrap(&TrapFrame{Vector: TrapSyscall, CPU: mmu.BootCPU}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("after uninstall: %v", err)
	}
}

func TestIRQDispatchAndMasking(t *testing.T) {
	m := newTestMachine()
	count := 0
	if _, err := m.SetIRQHandler(3, func(f *TrapFrame) bool {
		if f.IRQ != 3 {
			t.Errorf("frame IRQ = %d", f.IRQ)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(3, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if err := m.MaskIRQ(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.RaiseIRQOn(3, mmu.BootCPU); err != nil {
			t.Fatal(err)
		}
	}
	if count != 1 {
		t.Fatal("masked IRQ delivered")
	}
	if err := m.UnmaskIRQ(3); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("pending IRQs not delivered on unmask: count = %d", count)
	}
}

func TestIRQBadLine(t *testing.T) {
	m := newTestMachine()
	if err := m.RaiseIRQOn(-1, mmu.BootCPU); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("RaiseIRQOn(-1): %v", err)
	}
	if err := m.RaiseIRQOn(NumIRQLines, mmu.BootCPU); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("RaiseIRQOn(max): %v", err)
	}
	if _, err := m.SetIRQHandler(NumIRQLines, nil); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("SetIRQHandler: %v", err)
	}
	if err := m.MaskIRQ(-2); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("MaskIRQ: %v", err)
	}
	if err := m.UnmaskIRQ(99); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("UnmaskIRQ: %v", err)
	}
}

func TestIRQNoHandlerDropsAndCounts(t *testing.T) {
	m := newTestMachine()
	if err := m.RaiseIRQOn(5, mmu.BootCPU); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
	_, _, dropped := m.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestLoadStoreThroughMMU(t *testing.T) {
	m := newTestMachine()
	boot := m.CPUByID(mmu.BootCPU)
	ctx := m.MMU.NewContext()
	frame, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x10000, frame, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	msg := []byte("paramecium")
	if err := boot.Store(ctx, 0x10004, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := boot.Load(ctx, 0x10004, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestStoreToUnmappedFaults(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	err := m.CPUByID(mmu.BootCPU).Store(ctx, 0x2000, []byte{1})
	if !errors.Is(err, mmu.FaultNoMapping) {
		t.Fatalf("err = %v, want mmu.FaultNoMapping", err)
	}
	// The fault is a bare kind; the access path names where it hit.
	if msg := err.Error(); !strings.Contains(msg, "0x2000") || !strings.Contains(msg, fmt.Sprintf("context %d", ctx)) {
		t.Fatalf("err = %q, want the context and address named", msg)
	}
}

func TestPageFaultHandlerResolvesAndRetries(t *testing.T) {
	m := newTestMachine()
	boot := m.CPUByID(mmu.BootCPU)
	ctx := m.MMU.NewContext()
	faults := 0
	m.SetTrapHandler(TrapPageFault, func(f *TrapFrame) bool {
		faults++
		frame, err := m.Phys.AllocFrame()
		if err != nil {
			return false
		}
		if err := m.MMU.MapOn(mmu.BootCPU, f.Ctx, f.Addr, frame, mmu.PermRead|mmu.PermWrite); err != nil {
			return false
		}
		return true
	})
	if err := boot.Store(ctx, 0x5000, []byte("demand paged")); err != nil {
		t.Fatalf("store after resolving fault: %v", err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	// Second access must not fault again.
	if err := boot.Store(ctx, 0x5000, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d after warm access", faults)
	}
}

func TestPageFaultHandlerDeclines(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	m.SetTrapHandler(TrapPageFault, func(*TrapFrame) bool { return false })
	err := m.CPUByID(mmu.BootCPU).Load(ctx, 0x1000, make([]byte, 1))
	if !errors.Is(err, mmu.FaultNoMapping) {
		t.Fatalf("err = %v, want the fault", err)
	}
}

func TestPageFaultHandlerLiesDetected(t *testing.T) {
	// A handler that claims resolution without mapping the page must
	// not cause an infinite retry loop.
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	calls := 0
	m.SetTrapHandler(TrapPageFault, func(*TrapFrame) bool {
		calls++
		return true
	})
	err := m.CPUByID(mmu.BootCPU).Load(ctx, 0x1000, make([]byte, 1))
	if err == nil {
		t.Fatal("access succeeded without a mapping")
	}
	if calls != 1 {
		t.Fatalf("handler called %d times, want 1", calls)
	}
}

func TestAccessSpanningPages(t *testing.T) {
	m := newTestMachine()
	boot := m.CPUByID(mmu.BootCPU)
	ctx := m.MMU.NewContext()
	f1, _ := m.Phys.AllocFrame()
	f2, _ := m.Phys.AllocFrame()
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x1000, f1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x2000, f2, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	va := mmu.VAddr(0x2000 - 100)
	if err := boot.Store(ctx, va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := boot.Load(ctx, va, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestTouchExecRaisesProtectionFault(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	frame, _ := m.Phys.AllocFrame()
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x8000, frame, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	handled := false
	m.SetTrapHandler(TrapPageFault, func(f *TrapFrame) bool {
		handled = true
		if f.Access != mmu.AccessExec {
			t.Errorf("access = %v, want exec", f.Access)
		}
		return false
	})
	if err := m.CPUByID(mmu.BootCPU).Touch(ctx, 0x8000, mmu.AccessExec); err == nil {
		t.Fatal("exec touch on non-exec page succeeded")
	}
	if !handled {
		t.Fatal("fault handler not invoked")
	}
}

func TestDeviceAttachAndLookup(t *testing.T) {
	m := newTestMachine()
	nic := NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	if got := m.Device("net0"); got != nic {
		t.Fatal("Device lookup failed")
	}
	if got := m.Device("nope"); got != nil {
		t.Fatal("lookup of missing device returned non-nil")
	}
	if len(m.Devices()) != 1 {
		t.Fatal("Devices() wrong length")
	}
	if _, ok := m.IORegionByName("net0-regs"); !ok {
		t.Fatal("I/O region not registered")
	}
	dup := NewNIC("net0", 5) // same region name
	if err := m.AttachDevice(dup); err == nil {
		t.Fatal("duplicate I/O region accepted")
	}
}

func TestNICInjectReceiveTransmit(t *testing.T) {
	m := newTestMachine()
	nic := NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	irqs := 0
	if _, err := m.SetIRQHandler(4, func(*TrapFrame) bool { irqs++; return true }); err != nil {
		t.Fatal(err)
	}
	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := nic.Inject(frame); err != nil {
		t.Fatal(err)
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	regs := nic.IORegion()
	pending, _ := regs.ReadReg(NICRegRxPending)
	if pending != 1 {
		t.Fatalf("pending = %d", pending)
	}
	slot, _ := regs.ReadReg(NICRegRxSlot)
	length, _ := regs.ReadReg(NICRegRxLen)
	if length != uint64(len(frame)) {
		t.Fatalf("len = %d", length)
	}
	data, err := nic.SlotData(int(slot))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range frame {
		if data[i] != b {
			t.Fatalf("slot data mismatch at %d", i)
		}
	}
	// Retire and check ring empties.
	if err := regs.WriteReg(NICRegRxPop, 1); err != nil {
		t.Fatal(err)
	}
	pending, _ = regs.ReadReg(NICRegRxPending)
	if pending != 0 {
		t.Fatalf("pending after pop = %d", pending)
	}

	// Transmit path.
	var sent []byte
	nic.SetTxSink(func(f []byte) { sent = f })
	copy(data, []byte("xmit!"))
	if err := regs.WriteReg(NICRegTxSlot, slot); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxLen, 5); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxGo, 1); err != nil {
		t.Fatal(err)
	}
	if string(sent) != "xmit!" {
		t.Fatalf("sent %q", sent)
	}
	if nic.Transmitted() != 1 {
		t.Fatal("tx count wrong")
	}
}

func TestNICRingOverflow(t *testing.T) {
	nic := NewNIC("net0", 4)
	for i := 0; i < NICSlots; i++ {
		if err := nic.Inject([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nic.Inject([]byte{0xFF}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("overflow inject: %v", err)
	}
	if nic.Dropped() != 1 {
		t.Fatalf("dropped = %d", nic.Dropped())
	}
	reg, _ := nic.IORegion().ReadReg(NICRegRxDropped)
	if reg != 1 {
		t.Fatalf("dropped register = %d", reg)
	}
}

func TestNICFrameTooBig(t *testing.T) {
	nic := NewNIC("net0", 4)
	if err := nic.Inject(make([]byte, NICSlotSize+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestNICBadTransmitDescriptor(t *testing.T) {
	nic := NewNIC("net0", 4)
	regs := nic.IORegion()
	if err := regs.WriteReg(NICRegTxSlot, 999); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxGo, 1); err == nil {
		t.Fatal("bad descriptor accepted")
	}
}

func TestNICSlotDataRange(t *testing.T) {
	nic := NewNIC("net0", 4)
	if _, err := nic.SlotData(-1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := nic.SlotData(NICSlots); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestTimerProgramAndPoll(t *testing.T) {
	m := newTestMachine()
	timer := NewTimer("timer0", 1, m.Meter.Clock)
	if err := m.AttachDevice(timer); err != nil {
		t.Fatal(err)
	}
	fires := 0
	if _, err := m.SetIRQHandler(1, func(*TrapFrame) bool { fires++; return true }); err != nil {
		t.Fatal(err)
	}
	timer.Program(100)
	if n := timer.Poll(); n != 0 {
		t.Fatalf("timer fired %d times before deadline", n)
	}
	m.Meter.Clock.Advance(250)
	if n := timer.Poll(); n != 2 {
		t.Fatalf("Poll = %d, want 2", n)
	}
	if fires != 2 || timer.Fires() != 2 {
		t.Fatalf("fires = %d / %d", fires, timer.Fires())
	}
	// Disarm.
	timer.Program(0)
	m.Meter.Clock.Advance(1000)
	if n := timer.Poll(); n != 0 {
		t.Fatal("disarmed timer fired")
	}
}

func TestTimerRegisters(t *testing.T) {
	m := newTestMachine()
	timer := NewTimer("timer0", 1, m.Meter.Clock)
	if err := m.AttachDevice(timer); err != nil {
		t.Fatal(err)
	}
	regs := timer.IORegion()
	if err := regs.WriteReg(TimerRegInterval, 500); err != nil {
		t.Fatal(err)
	}
	v, err := regs.ReadReg(TimerRegInterval)
	if err != nil || v != 500 {
		t.Fatalf("interval = %d, %v", v, err)
	}
}

func TestConsoleOutput(t *testing.T) {
	m := newTestMachine()
	cons := NewConsole("cons0", 2)
	if err := m.AttachDevice(cons); err != nil {
		t.Fatal(err)
	}
	regs := cons.IORegion()
	for _, b := range []byte("boot: ok\n") {
		if err := regs.WriteReg(ConsoleRegPutc, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cons.Contents(); got != "boot: ok\n" {
		t.Fatalf("console = %q", got)
	}
	n, _ := regs.ReadReg(ConsoleRegWritten)
	if n != 9 {
		t.Fatalf("written = %d", n)
	}
	cons.ResetBuffer()
	if cons.Contents() != "" {
		t.Fatal("ResetBuffer did not clear")
	}
}

func TestIORegionBadRegister(t *testing.T) {
	r := NewIORegion("x", 2, nil, nil)
	if _, err := r.ReadReg(5); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("read: %v", err)
	}
	if err := r.WriteReg(-1, 0); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("write: %v", err)
	}
	// nil hooks are harmless
	if _, err := r.ReadReg(0); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReg(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrapVectorString(t *testing.T) {
	if TrapPageFault.String() != "page-fault" || TrapSyscall.String() != "syscall" {
		t.Fatal("trap names wrong")
	}
	if TrapVector(99).String() != "trap(99)" {
		t.Fatal("unknown trap name wrong")
	}
}
