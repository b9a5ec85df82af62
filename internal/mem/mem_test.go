package mem

import (
	"errors"
	"testing"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
)

func newService(frames int) (*Service, *hw.Machine) {
	m := hw.New(hw.Config{PhysFrames: frames})
	return New(m), m
}

func TestAllocPageAndAccess(t *testing.T) {
	s, m := newService(16)
	boot := m.CPUByID(mmu.BootCPU)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x10000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(ctx, 0x10010, []byte("data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := boot.Load(ctx, 0x10010, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("read back %q", buf)
	}
}

func TestAllocPageDuplicate(t *testing.T) {
	s, _ := newService(16)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1800, mmu.PermRead); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("same page: %v", err) // 0x1800 is within the same page
	}
}

func TestAllocPageOutOfMemory(t *testing.T) {
	s, _ := newService(1)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x2000, mmu.PermRead); !errors.Is(err, mmu.ErrOutOfMemory) {
		t.Fatalf("OOM: %v", err)
	}
}

func TestAllocRange(t *testing.T) {
	s, m := newService(16)
	ctx := s.NewDomain()
	if err := s.AllocRange(ctx, 0x4000, 3, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	// Spanning write across the whole range.
	data := make([]byte, 3*mmu.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.CPUByID(mmu.BootCPU).Store(ctx, 0x4000, data); err != nil {
		t.Fatal(err)
	}
}

func TestSharePage(t *testing.T) {
	s, m := newService(16)
	boot := m.CPUByID(mmu.BootCPU)
	a := s.NewDomain()
	b := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x8000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	// Writes in a are visible in b.
	if err := boot.Store(a, 0x1000, []byte("shared!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := boot.Load(b, 0x8000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared!" {
		t.Fatalf("b sees %q", buf)
	}
	// b's mapping is read-only.
	if err := boot.Store(b, 0x8000, []byte("x")); err == nil {
		t.Fatal("read-only sharer could write")
	}
	// Frame is refcounted at 2.
	frame, ok := s.Frame(a, 0x1000)
	if !ok {
		t.Fatal("Frame lookup failed")
	}
	if got := m.Phys.RefCount(frame); got != 2 {
		t.Fatalf("refcount = %d", got)
	}
}

func TestSharePageErrors(t *testing.T) {
	s, _ := newService(16)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead); !errors.Is(err, ErrNoPage) {
		t.Fatalf("share unmanaged: %v", err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, b, 0x2000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("share onto busy: %v", err)
	}
}

func TestFreePage(t *testing.T) {
	s, m := newService(4)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	free := m.Phys.FreeFrames()
	if err := s.FreePageOn(mmu.BootCPU, ctx, 0x1000); err != nil {
		t.Fatal(err)
	}
	if m.Phys.FreeFrames() != free+1 {
		t.Fatal("frame not returned")
	}
	if err := m.CPUByID(mmu.BootCPU).Load(ctx, 0x1000, make([]byte, 1)); err == nil {
		t.Fatal("freed page still readable")
	}
	if err := s.FreePageOn(mmu.BootCPU, ctx, 0x1000); !errors.Is(err, ErrNoPage) {
		t.Fatalf("double free: %v", err)
	}
}

func TestFreeSharedPageKeepsFrame(t *testing.T) {
	s, m := newService(4)
	boot := m.CPUByID(mmu.BootCPU)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(a, 0x1000, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	if err := s.FreePageOn(mmu.BootCPU, a, 0x1000); err != nil {
		t.Fatal(err)
	}
	// b still reads the data; the frame survived.
	buf := make([]byte, 7)
	if err := boot.Load(b, 0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist" {
		t.Fatalf("b sees %q", buf)
	}
}

func TestProtect(t *testing.T) {
	s, m := newService(4)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.ProtectOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.CPUByID(mmu.BootCPU).Store(ctx, 0x1000, []byte("x")); err == nil {
		t.Fatal("write allowed after Protect")
	}
	if err := s.ProtectOn(mmu.BootCPU, ctx, 0x9000, mmu.PermRead); !errors.Is(err, ErrNoPage) {
		t.Fatalf("protect unmanaged: %v", err)
	}
}

func TestFaultHandlerDemandPaging(t *testing.T) {
	s, m := newService(8)
	boot := m.CPUByID(mmu.BootCPU)
	ctx := s.NewDomain()
	faults := 0
	if err := s.RegisterFaultHandler(ctx, 0x5000, func(f *hw.TrapFrame) bool {
		faults++
		if err := s.AllocPageOn(mmu.BootCPU, f.Ctx, f.Addr.PageBase(), mmu.PermRead|mmu.PermWrite); err != nil {
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(ctx, 0x5008, []byte("lazy")); err != nil {
		t.Fatalf("demand-paged store: %v", err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
	// Warm access: no new fault.
	if err := boot.Store(ctx, 0x5008, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults after warm access = %d", faults)
	}
	resolved, unknown := s.FaultStats()
	if resolved != 1 || unknown != 0 {
		t.Fatalf("stats = %d/%d", resolved, unknown)
	}
}

func TestFaultWithoutHandlerIsUnresolved(t *testing.T) {
	s, m := newService(8)
	ctx := s.NewDomain()
	if err := m.CPUByID(mmu.BootCPU).Load(ctx, 0x7000, make([]byte, 1)); err == nil {
		t.Fatal("unhandled fault did not error")
	}
	_, unknown := s.FaultStats()
	if unknown != 1 {
		t.Fatalf("unknown = %d", unknown)
	}
}

func TestFaultHandlerRegistration(t *testing.T) {
	s, _ := newService(8)
	ctx := s.NewDomain()
	h := func(*hw.TrapFrame) bool { return false }
	if err := s.RegisterFaultHandler(ctx, 0x1000, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := s.RegisterFaultHandler(ctx, 0x1000, h); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFaultHandler(ctx, 0x1800, h); !errors.Is(err, ErrHandlerBusy) {
		t.Fatalf("duplicate (same page): %v", err)
	}
	if err := s.UnregisterFaultHandler(ctx, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterFaultHandler(ctx, 0x1000); !errors.Is(err, ErrNoPage) {
		t.Fatalf("double unregister: %v", err)
	}
}

func TestDestroyDomainReclaimsEverything(t *testing.T) {
	s, m := newService(8)
	ctx := s.NewDomain()
	free := m.Phys.FreeFrames()
	if err := s.AllocRange(ctx, 0x1000, 3, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFaultHandler(ctx, 0x9000, func(*hw.TrapFrame) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Phys.FreeFrames() != free {
		t.Fatalf("frames leaked: %d != %d", m.Phys.FreeFrames(), free)
	}
	if m.MMU.HasContext(ctx) {
		t.Fatal("context survived destroy")
	}
}

func TestDestroyDomainKeepsSharedFrames(t *testing.T) {
	s, m := newService(8)
	boot := m.CPUByID(mmu.BootCPU)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(a, 0x1000, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := boot.Load(b, 0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "alive" {
		t.Fatalf("b sees %q after sharer died", buf)
	}
}

func TestIOSpaceExclusive(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	drv := s.NewDomain()
	other := s.NewDomain()
	g, err := s.AllocIOSpace(drv, "net0-regs", IOExclusive)
	if err != nil {
		t.Fatal(err)
	}
	if g.Region == nil || g.Mode != IOExclusive {
		t.Fatalf("grant = %+v", g)
	}
	// The grant's region is usable.
	if _, err := g.Region.ReadReg(hw.NICRegRxPending); err != nil {
		t.Fatal(err)
	}
	// No second grant of any kind while exclusive is held.
	if _, err := s.AllocIOSpace(other, "net0-regs", IOShared); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("shared over exclusive: %v", err)
	}
	if _, err := s.AllocIOSpace(other, "net0-regs", IOExclusive); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("double exclusive: %v", err)
	}
	if err := s.ReleaseIOSpace(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocIOSpace(other, "net0-regs", IOExclusive); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if err := s.ReleaseIOSpace(g); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("double release: %v", err)
	}
}

func TestIOSpaceShared(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	a, b := s.NewDomain(), s.NewDomain()
	if _, err := s.AllocIOSpace(a, "net0-regs", IOShared); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocIOSpace(b, "net0-regs", IOShared); err != nil {
		t.Fatal(err)
	}
	if got := s.GrantCount("net0-regs"); got != 2 {
		t.Fatalf("grants = %d", got)
	}
	// Exclusive now conflicts with the shared holders.
	if _, err := s.AllocIOSpace(a, "net0-regs", IOExclusive); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("exclusive over shared: %v", err)
	}
}

func TestIOSpaceUnknownRegion(t *testing.T) {
	s, _ := newService(8)
	if _, err := s.AllocIOSpace(0, "ghost", IOShared); !errors.Is(err, ErrNoIORegion) {
		t.Fatalf("unknown region: %v", err)
	}
}

func TestDestroyDomainReleasesGrants(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	ctx := s.NewDomain()
	if _, err := s.AllocIOSpace(ctx, "net0-regs", IOExclusive); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.GrantCount("net0-regs"); got != 0 {
		t.Fatalf("grants after destroy = %d", got)
	}
}

func TestIOModeString(t *testing.T) {
	if IOExclusive.String() != "exclusive" || IOShared.String() != "shared" {
		t.Fatal("mode strings")
	}
}

func TestReserveVAArena(t *testing.T) {
	s, _ := newService(16)
	a, b := s.NewDomain(), s.NewDomain()

	// Reservations within one context never overlap; contexts are
	// independent arenas starting at ShareBase.
	r1 := s.ReserveVA(a, 2)
	r2 := s.ReserveVA(a, 3)
	if r1 != ShareBase {
		t.Fatalf("first reservation at %#x, want ShareBase %#x", uint64(r1), uint64(ShareBase))
	}
	if r2 < r1+2*mmu.PageSize {
		t.Fatalf("reservations overlap: %#x then %#x", uint64(r1), uint64(r2))
	}
	if got := s.ReserveVA(b, 2); got != ShareBase {
		t.Fatalf("context b arena starts at %#x, want ShareBase", uint64(got))
	}

	// Released ranges are recycled exact-fit before the arena grows.
	s.ReleaseVA(a, r1, 2)
	if got := s.ReserveVA(a, 2); got != r1 {
		t.Fatalf("2-page reservation = %#x, want recycled %#x", uint64(got), uint64(r1))
	}
	// A different length does not steal the freed range.
	s.ReleaseVA(a, r2, 3)
	if got := s.ReserveVA(a, 1); got == r2 {
		t.Fatal("1-page reservation reused a 3-page range")
	}

	// DestroyDomain forgets the arena; a late release is a no-op.
	if err := s.DestroyDomain(a); err != nil {
		t.Fatal(err)
	}
	s.ReleaseVA(a, r2, 3)
}
