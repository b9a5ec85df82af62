package proxy

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

var calcDecl = obj.MustInterfaceDecl("test.calc.v1",
	obj.MethodDecl{Name: "add", NumIn: 2, NumOut: 1},
	obj.MethodDecl{Name: "total", NumIn: 0, NumOut: 1},
)

func newCalc(meter *clock.Meter) *obj.Object {
	o := obj.New("calc", meter)
	total := new(int)
	bi, err := o.AddInterface(calcDecl, total)
	if err != nil {
		panic(err)
	}
	bi.MustBind("add", func(args ...any) ([]any, error) {
		sum := args[0].(int) + args[1].(int)
		*total += sum
		return []any{sum}, nil
	}).MustBind("total", func(...any) ([]any, error) {
		return []any{*total}, nil
	})
	return o
}

func setup() (*Factory, *mem.Service, *hw.Machine) {
	m := hw.New(hw.Config{PhysFrames: 64})
	svc := mem.New(m)
	return NewFactory(svc, 0), svc, m
}

func TestProxyInvoke(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	calc := newCalc(m.Meter)
	p, err := f.New(clientCtx, serverCtx, calc)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := p.Iface("test.calc.v1")
	if !ok {
		t.Fatal("proxy hides interface")
	}
	res, err := iv.Invoke("add", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int) != 5 {
		t.Fatalf("add = %v", res)
	}
	res, err = iv.Invoke("total")
	if err != nil || res[0].(int) != 5 {
		t.Fatalf("total = %v, %v", res, err)
	}
	if p.Calls() != 2 {
		t.Fatalf("calls = %d", p.Calls())
	}
}

func TestProxyPresentsSameInterfaces(t *testing.T) {
	f, svc, m := setup()
	calc := newCalc(m.Meter)
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), calc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := calc.InterfaceNames(), p.InterfaceNames()
	if len(a) != len(b) {
		t.Fatalf("interface sets differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interface sets differ: %v vs %v", a, b)
		}
	}
	if p.Class() != calc.Class() {
		t.Fatalf("class = %q", p.Class())
	}
	if _, ok := p.Iface("phantom"); ok {
		t.Fatal("phantom interface")
	}
	iv, _ := p.Iface("test.calc.v1")
	if iv.Decl() != calcDecl {
		t.Fatal("decl not preserved")
	}
	if iv.State() != nil {
		t.Fatal("cross-domain state pointer leaked")
	}
}

func TestProxyChargesCrossDomainCosts(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	p, err := f.New(clientCtx, serverCtx, newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	m.Meter.ResetCounts()
	if _, err := iv.Invoke("add", 1, 2); err != nil {
		t.Fatal(err)
	}
	// One page fault trap, two context switches (there and back).
	if got := m.Meter.Count(clock.OpTrapEnter); got != 1 {
		t.Errorf("trap entries = %d, want 1", got)
	}
	if got := m.Meter.Count(clock.OpPageFault); got != 1 {
		t.Errorf("page faults = %d, want 1", got)
	}
	if got := m.Meter.Count(clock.OpCtxSwitch); got != 2 {
		t.Errorf("context switches = %d, want 2", got)
	}
	if got := m.Meter.Count(clock.OpCopyWord); got == 0 {
		t.Error("no argument copy charged")
	}
}

func TestProxyEveryCallFaults(t *testing.T) {
	// The entry page must stay unmapped: each invocation pays the
	// fault (this is the design's cost model, not an optimization
	// bug).
	f, svc, m := setup()
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	m.Meter.ResetCounts()
	for i := 0; i < 5; i++ {
		if _, err := iv.Invoke("total"); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Meter.Count(clock.OpPageFault); got != 5 {
		t.Fatalf("page faults = %d, want 5", got)
	}
}

func TestProxyMethodErrors(t *testing.T) {
	f, svc, m := setup()
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	if _, err := iv.Invoke("missing"); !errors.Is(err, obj.ErrNoMethod) {
		t.Fatalf("missing method: %v", err)
	}
	if _, err := iv.Invoke("add", 1); !errors.Is(err, obj.ErrArity) {
		t.Fatalf("bad arity: %v", err)
	}
}

func TestProxyPropagatesTargetError(t *testing.T) {
	f, svc, _ := setup()
	o := obj.New("failer", nil)
	decl := obj.MustInterfaceDecl("f.v1", obj.MethodDecl{Name: "boom", NumIn: 0, NumOut: 0})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("kaboom")
	bi.MustBind("boom", func(...any) ([]any, error) { return nil, sentinel })
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), o)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("f.v1")
	if _, err := iv.Invoke("boom"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxyClose(t *testing.T) {
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	p, err := f.New(clientCtx, svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := iv.Invoke("total"); !errors.Is(err, ErrClosed) {
		t.Fatalf("invoke after close: %v", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	// The entry page handler is gone; a new proxy can be built for
	// the same client context.
	if _, err := f.New(clientCtx, svc.NewDomain(), newCalc(m.Meter)); err != nil {
		t.Fatal(err)
	}
}

func TestProxyTargetDomainDies(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	p, err := f.New(clientCtx, serverCtx, newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.DestroyDomain(serverCtx); err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	if _, err := iv.Invoke("total"); err == nil {
		t.Fatal("call into dead domain succeeded")
	}
}

func TestProxySameDomainSkipsSwitch(t *testing.T) {
	// A proxy whose target lives in the caller's own context pays the
	// fault but not the context switches.
	f, svc, m := setup()
	ctx := svc.NewDomain()
	if err := m.MMU.SwitchOn(mmu.BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	p, err := f.New(ctx, ctx, newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.calc.v1")
	m.Meter.ResetCounts()
	if _, err := iv.Invoke("total"); err != nil {
		t.Fatal(err)
	}
	if got := m.Meter.Count(clock.OpCtxSwitch); got != 0 {
		t.Fatalf("context switches = %d, want 0", got)
	}
}

func TestProxyDistinctEntryPages(t *testing.T) {
	// Two proxies in the same client context must not collide.
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	p1, err := f.New(clientCtx, svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.New(clientCtx, svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	iv1, _ := p1.Iface("test.calc.v1")
	iv2, _ := p2.Iface("test.calc.v1")
	if _, err := iv1.Invoke("add", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := iv2.Invoke("add", 2, 2); err != nil {
		t.Fatal(err)
	}
	r1, _ := iv1.Invoke("total")
	r2, _ := iv2.Invoke("total")
	if r1[0].(int) != 2 || r2[0].(int) != 4 {
		t.Fatalf("totals = %v, %v (state mixed up)", r1, r2)
	}
}

func TestProxyNilTarget(t *testing.T) {
	f, svc, _ := setup()
	if _, err := f.New(svc.NewDomain(), svc.NewDomain(), nil); err == nil {
		t.Fatal("nil target accepted")
	}
}

func TestWordsOf(t *testing.T) {
	cases := []struct {
		vals []any
		want uint64
	}{
		{nil, 0},
		{[]any{1, 2}, 2},
		{[]any{"hello"}, 2},              // 5 bytes + 8 header = 13 -> 2 words
		{[]any{[]byte("0123456789")}, 3}, // 10 + 8 = 18 -> 3 words
		{[]any{nil}, 1},
		{[]any{[]any{1, 2, 3}}, 3},
	}
	for _, c := range cases {
		if got := wordsOf(c.vals); got != c.want {
			t.Errorf("wordsOf(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestCrossDomainVsLocalCostGap(t *testing.T) {
	// The experiment T2 premise: a cross-domain call costs far more
	// than a local interface call.
	f, svc, m := setup()
	calc := newCalc(m.Meter)
	p, err := f.New(svc.NewDomain(), svc.NewDomain(), calc)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := calc.Iface("test.calc.v1")
	remote, _ := p.Iface("test.calc.v1")

	w := m.Meter.Clock.StartWatch()
	for i := 0; i < 100; i++ {
		if _, err := local.Invoke("total"); err != nil {
			t.Fatal(err)
		}
	}
	localCycles := w.Elapsed()

	w = m.Meter.Clock.StartWatch()
	for i := 0; i < 100; i++ {
		if _, err := remote.Invoke("total"); err != nil {
			t.Fatal(err)
		}
	}
	remoteCycles := w.Elapsed()

	if remoteCycles < localCycles*10 {
		t.Fatalf("cross-domain (%d) not clearly costlier than local (%d)", remoteCycles, localCycles)
	}
}

// TestStrayEntryTouchIsUnresolved: a touch of an entry slot whose trap
// frame carries no call frame — untagged, or tagged with some other
// value — is not a proxy call. The fault stays unresolved, no target
// method runs and no crossing is charged, and the proxy keeps serving
// real calls afterwards.
func TestStrayEntryTouchIsUnresolved(t *testing.T) {
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	p, err := f.New(clientCtx, svc.NewDomain(), newCalc(m.Meter))
	if err != nil {
		t.Fatal(err)
	}
	md, _ := calcDecl.Method("add")
	slot := p.ifaces["test.calc.v1"].pageVA + mmu.VAddr(md.Slot()*8)
	cpu := m.CPUByID(mmu.BootCPU)
	for _, tag := range []any{nil, uint64(7), new(int)} {
		m.Meter.ResetCounts()
		if err := cpu.TouchTagged(clientCtx, slot, mmu.AccessExec, tag); err == nil {
			t.Fatalf("stray touch tagged %v resolved", tag)
		}
		if got := m.Meter.Count(clock.OpCtxSwitch); got != 0 {
			t.Fatalf("stray touch tagged %v charged %d context switches", tag, got)
		}
		if got := m.Meter.Count(clock.OpCopyWord); got != 0 {
			t.Fatalf("stray touch tagged %v charged %d word copies", tag, got)
		}
	}
	iv, _ := p.Iface("test.calc.v1")
	res, err := iv.Invoke("total")
	if err != nil || res[0].(int) != 0 {
		t.Fatalf("total after stray touches = %v, %v; want 0 (add never ran)", res, err)
	}
}
