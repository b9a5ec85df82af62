package event

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/threads"
)

func newService() (*Service, *hw.Machine, *threads.Scheduler) {
	m := hw.New(hw.Config{PhysFrames: 64})
	sched := threads.NewScheduler(m.Meter)
	return New(m, sched), m, sched
}

func TestRegisterIRQRawDispatch(t *testing.T) {
	s, m, _ := newService()
	count := 0
	if err := s.RegisterIRQOn(3, "net", mmu.KernelContext, DispatchRaw, mmu.BootCPU, func(f *hw.TrapFrame, th *threads.Thread) {
		if th != nil {
			t.Error("raw dispatch passed a thread")
		}
		count++
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(3, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	st, ok := s.IRQStats(3)
	if !ok || st.Delivered != 1 || st.Name != "net" || st.Dispatch != DispatchRaw {
		t.Fatalf("stats = %+v, %v", st, ok)
	}
}

func TestRegisterIRQDuplicate(t *testing.T) {
	s, _, _ := newService()
	h := func(*hw.TrapFrame, *threads.Thread) {}
	if err := s.RegisterIRQOn(1, "a", 0, DispatchRaw, mmu.BootCPU, h); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterIRQOn(1, "b", 0, DispatchRaw, mmu.BootCPU, h); !errors.Is(err, ErrBound) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := s.RegisterIRQOn(2, "c", 0, DispatchRaw, mmu.BootCPU, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestUnregisterIRQ(t *testing.T) {
	s, m, _ := newService()
	if err := s.RegisterIRQOn(1, "a", 0, DispatchRaw, mmu.BootCPU, func(*hw.TrapFrame, *threads.Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterIRQ(1); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterIRQ(1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("double unregister: %v", err)
	}
	if err := m.RaiseIRQOn(1, mmu.BootCPU); !errors.Is(err, hw.ErrNoHandler) {
		t.Fatalf("raise after unregister: %v", err)
	}
}

func TestProtoDispatchInlineCompletion(t *testing.T) {
	s, m, sched := newService()
	ran := false
	if err := s.RegisterIRQOn(2, "fast", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(f *hw.TrapFrame, th *threads.Thread) {
		if th == nil {
			t.Error("proto dispatch passed nil thread")
		}
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(2, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("handler did not run inline")
	}
	if m.Meter.Count(clock.OpThreadCreate) != 0 {
		t.Fatal("inline proto charged thread creation")
	}
	st, _ := s.IRQStats(2)
	if st.Inline != 1 || st.Promoted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	sched.RunUntilIdle()
}

func TestProtoDispatchPromotion(t *testing.T) {
	s, m, sched := newService()
	mtx := threads.NewMutex(sched)
	q, err := threads.NewQueue(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched.Spawn("holder", func(th *threads.Thread) {
		mtx.Lock(th)
		q.Pop(th)
		mtx.Unlock(th)
	})
	sched.RunUntilIdle()

	finished := false
	if err := s.RegisterIRQOn(2, "slow", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(f *hw.TrapFrame, th *threads.Thread) {
		mtx.Lock(th) // held by holder -> promotion
		finished = true
		mtx.Unlock(th)
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(2, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	st, _ := s.IRQStats(2)
	if st.Promoted != 1 || st.Inline != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if finished {
		t.Fatal("handler completed while mutex held elsewhere")
	}
	q.TryPush(struct{}{})
	sched.RunUntilIdle()
	if !finished {
		t.Fatal("promoted handler never finished")
	}
}

func TestEagerDispatchDefersToScheduler(t *testing.T) {
	s, m, sched := newService()
	ran := false
	if err := s.RegisterIRQOn(5, "eager", mmu.KernelContext, DispatchEager, mmu.BootCPU, func(*hw.TrapFrame, *threads.Thread) {
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(5, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("eager handler ran on the interrupt context")
	}
	if m.Meter.Count(clock.OpThreadCreate) != 1 {
		t.Fatal("eager dispatch did not create a thread")
	}
	sched.RunUntilIdle()
	if !ran {
		t.Fatal("eager handler never ran")
	}
}

func TestCrossContextDeliveryChargesSwitches(t *testing.T) {
	s, m, _ := newService()
	userCtx := m.MMU.NewContext()
	var seen mmu.ContextID
	if err := s.RegisterIRQOn(1, "user-handler", userCtx, DispatchRaw, mmu.BootCPU, func(*hw.TrapFrame, *threads.Thread) {
		seen = m.MMU.CurrentOn(mmu.BootCPU)
	}); err != nil {
		t.Fatal(err)
	}
	before := m.Meter.Count(clock.OpCtxSwitch)
	if err := m.RaiseIRQOn(1, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if seen != userCtx {
		t.Fatalf("handler ran in context %d, want %d", seen, userCtx)
	}
	if m.MMU.CurrentOn(mmu.BootCPU) != mmu.KernelContext {
		t.Fatal("context not restored after delivery")
	}
	if got := m.Meter.Count(clock.OpCtxSwitch) - before; got != 2 {
		t.Fatalf("context switches = %d, want 2", got)
	}
}

func TestSameContextDeliveryIsFree(t *testing.T) {
	s, m, _ := newService()
	if err := s.RegisterIRQOn(1, "kern", mmu.KernelContext, DispatchRaw, mmu.BootCPU, func(*hw.TrapFrame, *threads.Thread) {}); err != nil {
		t.Fatal(err)
	}
	before := m.Meter.Count(clock.OpCtxSwitch)
	if err := m.RaiseIRQOn(1, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if got := m.Meter.Count(clock.OpCtxSwitch) - before; got != 0 {
		t.Fatalf("context switches = %d, want 0", got)
	}
}

func TestDeadContextFallsBack(t *testing.T) {
	s, m, _ := newService()
	ctx := m.MMU.NewContext()
	ran := false
	if err := s.RegisterIRQOn(1, "zombie", ctx, DispatchRaw, mmu.BootCPU, func(*hw.TrapFrame, *threads.Thread) {
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.DestroyContextFrom(mmu.BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(1, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event dropped when context died")
	}
}

func TestRegisterTrap(t *testing.T) {
	s, m, _ := newService()
	if err := s.RegisterTrap(hw.TrapSyscall, "syscalls", mmu.KernelContext, func(f *hw.TrapFrame) bool {
		return f.Arg == 42
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := m.Syscall(mmu.KernelContext, 42)
	if err != nil || !ok {
		t.Fatalf("syscall(42) = %v, %v", ok, err)
	}
	ok, err = m.Syscall(mmu.KernelContext, 7)
	if err != nil || ok {
		t.Fatalf("syscall(7) = %v, %v", ok, err)
	}
	st, found := s.TrapStats(hw.TrapSyscall)
	if !found || st.Delivered != 2 {
		t.Fatalf("trap stats = %+v", st)
	}
	if err := s.RegisterTrap(hw.TrapSyscall, "dup", 0, func(*hw.TrapFrame) bool { return false }); !errors.Is(err, ErrBound) {
		t.Fatalf("duplicate trap: %v", err)
	}
	if err := s.RegisterTrap(hw.TrapDivZero, "nil", 0, nil); err == nil {
		t.Fatal("nil trap handler accepted")
	}
	if err := s.UnregisterTrap(hw.TrapSyscall); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterTrap(hw.TrapSyscall); !errors.Is(err, ErrNotBound) {
		t.Fatalf("double unregister: %v", err)
	}
}

func TestStatsOfUnboundEvent(t *testing.T) {
	s, _, _ := newService()
	if _, ok := s.IRQStats(9); ok {
		t.Fatal("stats for unbound IRQ")
	}
	if _, ok := s.TrapStats(hw.TrapDivZero); ok {
		t.Fatal("stats for unbound trap")
	}
}

func TestDispatchString(t *testing.T) {
	if DispatchRaw.String() != "raw" || DispatchProto.String() != "proto" || DispatchEager.String() != "eager" {
		t.Fatal("dispatch names")
	}
	if Dispatch(9).String() != "dispatch(9)" {
		t.Fatal("unknown dispatch name")
	}
}

func TestNICInterruptToProtoThreadPipeline(t *testing.T) {
	// Integration: a NIC frame arrival becomes a proto-thread that
	// drains the ring inline.
	s, m, sched := newService()
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := s.RegisterIRQOn(4, "net-rx", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(f *hw.TrapFrame, th *threads.Thread) {
		regs := nic.IORegion()
		slot, _ := regs.ReadReg(hw.NICRegRxSlot)
		length, _ := regs.ReadReg(hw.NICRegRxLen)
		data, err := nic.SlotData(int(slot))
		if err != nil {
			t.Error(err)
			return
		}
		got = append([]byte{}, data[:length]...)
		regs.WriteReg(hw.NICRegRxPop, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := nic.Inject([]byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "frame-1" {
		t.Fatalf("got %q", got)
	}
	if nic.Pending() != 0 {
		t.Fatal("ring not drained")
	}
	sched.RunUntilIdle()
}
