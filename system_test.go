// End-to-end integration tests exercising whole-system scenarios that
// span most packages: multi-tenant filtering on a shared stack, the
// full device-to-endpoint receive pipeline, virtual memory as a
// nucleus-external component, and repository round trips with
// certification.
package paramecium_test

import (
	"errors"
	"fmt"
	"testing"

	"paramecium/internal/bench"
	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/drivers"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/repoz"
	"paramecium/internal/sandbox"
	"paramecium/internal/trace"
	"paramecium/internal/vmm"
)

func frameTo(port uint16, payload string) []byte {
	return netstack.BuildUDPFrame(
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2},
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
		700, port, []byte(payload))
}

// TestFullReceivePipeline drives a frame from the simulated wire
// through NIC DMA, interrupt, proto-thread, driver ring drain, shared
// stack, certified filter, and UDP demux to an endpoint.
func TestFullReceivePipeline(t *testing.T) {
	w := bench.NewWorld()
	k := w.K
	nic := hw.NewNIC("net0", 4)
	if err := k.Machine.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	drv, err := drivers.NewNetDriver("netdrv", nic, k.Mem, k.Events, drivers.NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOShared,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Register("/devices/net0", drv, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}
	drvIv, err := k.RootView.BindInterface("/devices/net0", drivers.NetDevIface)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := netstack.NewStack("ipstack", k.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	lf, err := k.LoadFilter("portfilter", core.PlaceKernelCertified)
	if err != nil {
		t.Fatal(err)
	}
	stack.AttachFilter(lf)
	ep, err := stack.Bind(7)
	if err != nil {
		t.Fatal(err)
	}

	if err := nic.Inject(frameTo(7, "for us")); err != nil {
		t.Fatal(err)
	}
	if err := nic.Inject(frameTo(9, "for someone else")); err != nil {
		t.Fatal(err)
	}
	if n := stack.Pump(); n != 2 {
		t.Fatalf("pumped %d frames", n)
	}
	got, ok := ep.Recv()
	if !ok || string(got.Payload) != "for us" {
		t.Fatalf("endpoint recv = %+v, %v", got, ok)
	}
	if _, ok := ep.Recv(); ok {
		t.Fatal("filtered frame leaked through")
	}
	st := stack.Stats()
	if st.Delivered != 1 || st.Filtered != 1 {
		t.Fatalf("stack stats = %+v", st)
	}
	k.Sched.RunUntilIdle()
}

// TestMultiTenantIsolation runs two tenants' filters on one shared
// stack: each tenant's filter only admits its own port, and a
// malicious wild-reading filter in the SFI sandbox is contained.
func TestMultiTenantIsolation(t *testing.T) {
	w := bench.NewWorld()
	k := w.K
	drvObj := obj.New("nulldrv", k.Meter)
	bi, err := drvObj.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	drvIv, _ := drvObj.Iface("paramecium.netdev.v1")

	stackA, err := netstack.NewStack("stackA", k.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant A: certified filter for port 7.
	w.AddPVM("tenantA", netstack.PortFilterProgram(7), true)
	lfA, err := k.LoadFilter("tenantA", core.PlaceKernelCertified)
	if err != nil {
		t.Fatal(err)
	}
	stackA.AttachFilter(lfA)
	epA, err := stackA.Bind(7)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant B: an uncertified filter that tries to read far outside
	// its segment. The kernel only admits it sandboxed.
	wild := `
        loadi r1, 1000000
        ld8   r0, [r1+0]
        loadi r0, 1
        halt  r0
`
	w.AddPVM("tenantB", wild, false)
	if _, err := k.LoadFilter("tenantB", core.PlaceKernelCertified); !errors.Is(err, core.ErrNotCertified) {
		t.Fatalf("uncertified kernel load: %v", err)
	}
	lfB, err := k.LoadFilter("tenantB", core.PlaceKernelSandboxed)
	if err != nil {
		t.Fatal(err)
	}
	// The wild read is masked by SFI, not fatal.
	if _, err := lfB.Accept(frameTo(7, "probe")); err != nil {
		t.Fatalf("sandboxed wild filter crashed: %v", err)
	}

	stackA.Deliver(frameTo(7, "tenant A data"))
	stackA.Deliver(frameTo(8, "not tenant A"))
	if epA.Len() != 1 {
		t.Fatalf("tenant A got %d datagrams", epA.Len())
	}
}

// TestVMMAsExtensionComponent checks that virtual memory — demand
// paging plus COW — composes with a booted kernel purely through the
// memory service.
func TestVMMAsExtensionComponent(t *testing.T) {
	w := bench.NewWorld()
	k := w.K
	boot := k.Machine.CPUByID(mmu.BootCPU)
	mgr := vmm.New(k.Mem)
	parent := k.NewDomain("parent")
	child := k.NewDomain("child")

	if err := mgr.DemandRegion(parent.Ctx, 0x40000, 4, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(parent.Ctx, 0x40000, []byte("genesis")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Clone(parent.Ctx, 0x40000, child.Ctx, 0x40000, 4); err != nil {
		t.Fatal(err)
	}
	if err := boot.Store(child.Ctx, 0x40000, []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := boot.Load(parent.Ctx, 0x40000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "genesis" {
		t.Fatalf("parent sees %q after child COW write", buf)
	}
	demand, cow, _, _ := mgr.Stats()
	if demand == 0 || cow == 0 {
		t.Fatalf("vmm stats: demand=%d cow=%d", demand, cow)
	}
}

// TestRepositoryManifestWorkflow mirrors cmd/certify: build a
// repository, sign an image, serialize, reload, and load the
// component into a fresh kernel that trusts the same authority.
func TestRepositoryManifestWorkflow(t *testing.T) {
	auth := cert.NewAuthority(9001)
	admin := cert.NewKeyCertifier("sysadmin", cert.GenerateKey(9002), cert.PrivKernelResident)

	repo := repoz.New()
	prog := sandbox.MustAssemble(netstack.PortFilterProgram(53))
	img := &repoz.Image{Name: "dnsfilter", Kind: repoz.KindPVM, Data: prog.Encode()}
	if err := repo.Add(img); err != nil {
		t.Fatal(err)
	}
	c, err := admin.Certify("dnsfilter", img.Data, cert.PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Certify("dnsfilter", c); err != nil {
		t.Fatal(err)
	}
	blob, err := repo.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// A different machine, same root of trust.
	k, err := core.Boot(core.Config{AuthorityKey: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validator.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub, cert.PrivKernelResident)); err != nil {
		t.Fatal(err)
	}
	restored, err := repoz.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Get("dnsfilter")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repo.Add(got); err != nil {
		t.Fatal(err)
	}
	lf, err := k.LoadFilter("dnsfilter", core.PlaceKernelCertified)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := lf.Accept(frameTo(53, "query"))
	if err != nil || !ok {
		t.Fatalf("accept = %v, %v", ok, err)
	}
}

// TestMonitoringSharedService interposes a tracer on a shared stack
// and verifies observations flow while untraced references bypass it.
func TestMonitoringSharedService(t *testing.T) {
	w := bench.NewWorld()
	k := w.K
	drvObj := obj.New("nulldrv", k.Meter)
	bi, err := drvObj.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	drvIv, _ := drvObj.Iface("paramecium.netdev.v1")
	stack, err := netstack.NewStack("ipstack", k.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Register("/shared/network", stack, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}
	tracer, err := trace.NewTracer(stack, k.Meter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Interpose("/shared/network", func(obj.Instance) (obj.Instance, error) {
		return tracer.Agent(), nil
	}); err != nil {
		t.Fatal(err)
	}

	iv, err := k.RootView.BindInterface("/shared/network", netstack.StackIface)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := iv.Invoke("pump"); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := tracer.Stats("paramecium.netstack.v1.pump")
	if !ok || st.Calls != 3 {
		t.Fatalf("tracer stats = %+v, %v", st, ok)
	}
}

// TestCostModelSweepChangesShape verifies experiments respond to the
// cost model: with free traps and switches, the proxy path collapses
// toward the copy cost.
func TestCostModelSweepChangesShape(t *testing.T) {
	costs := clock.DefaultCosts().
		WithCost(clock.OpTrapEnter, 0).
		WithCost(clock.OpTrapExit, 0).
		WithCost(clock.OpCtxSwitch, 0).
		WithCost(clock.OpPageFault, 0)
	auth := cert.NewAuthority(1)
	k, err := core.Boot(core.Config{AuthorityKey: auth.PublicKey(), Machine: hw.Config{Costs: &costs}})
	if err != nil {
		t.Fatal(err)
	}
	decl := obj.MustInterfaceDecl("x.v1", obj.MethodDecl{Name: "f", NumIn: 0, NumOut: 0})
	server := obj.New("srv", k.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("f", func(...any) ([]any, error) { return nil, nil })
	sd := k.NewDomain("s")
	cd := k.NewDomain("c")
	if err := k.Register("/services/srv", server, sd.Ctx); err != nil {
		t.Fatal(err)
	}
	iv, err := cd.BindInterface("/services/srv", "x.v1")
	if err != nil {
		t.Fatal(err)
	}
	watch := k.Meter.Clock.StartWatch()
	if _, err := iv.Invoke("f"); err != nil {
		t.Fatal(err)
	}
	if got := watch.Elapsed(); got > 60 {
		t.Fatalf("free-hardware proxy call still costs %d cycles", got)
	}
}

// TestManyDomainsStress creates many domains each binding the same
// kernel service; proxies stay isolated and the system tears down
// cleanly.
func TestManyDomainsStress(t *testing.T) {
	w := bench.NewWorld()
	k := w.K
	decl := obj.MustInterfaceDecl("ctr.v1", obj.MethodDecl{Name: "hit", NumIn: 0, NumOut: 1})
	server := obj.New("ctr", k.Meter)
	hits := 0
	bi, err := server.AddInterface(decl, &hits)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("hit", func(...any) ([]any, error) { hits++; return []any{hits}, nil })
	if err := k.Register("/services/ctr", server, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}

	const domains = 20
	var doms []*core.Domain
	for i := 0; i < domains; i++ {
		d := k.NewDomain(fmt.Sprintf("app%d", i))
		doms = append(doms, d)
		iv, err := d.BindInterface("/services/ctr", "ctr.v1")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if _, err := iv.Invoke("hit"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits != domains*5 {
		t.Fatalf("hits = %d", hits)
	}
	for _, d := range doms {
		if err := k.DestroyDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Machine.CPUByID(mmu.BootCPU).Load(doms[0].Ctx, 0x1000, make([]byte, 1)); err == nil {
		t.Fatal("destroyed domain still accessible")
	}
}
