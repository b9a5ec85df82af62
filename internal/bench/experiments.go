package bench

import (
	"fmt"

	"paramecium/internal/baseline"
	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/threads"
)

const iters = 200

// counterDecl is a minimal interface used by the invocation
// experiments.
var counterDecl = obj.MustInterfaceDecl("bench.counter.v1",
	obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1},
)

func newCounter(w *World) (*obj.Object, *int) {
	o := obj.New("counter", w.K.Meter)
	n := new(int)
	bi, err := o.AddInterface(counterDecl, n)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) {
		*n++
		return []any{*n}, nil
	})
	return o, n
}

// T1Invocation measures method invocation overhead: direct procedure
// call, object interface call, delegated call, and interposer chains
// of depth 1–4.
func T1Invocation() Table {
	t := Table{
		ID:     "T1",
		Title:  "Method invocation overhead (cycles/call)",
		Claim:  `"a method invocation is usually just a procedure call ... we expect the overhead to be relatively low" (§2)`,
		Header: []string{"variant", "cycles/call", "vs direct"},
	}
	w := NewWorld()

	// Direct procedure call: the compiler-level baseline.
	n := 0
	direct := perOp(w, iters, func() {
		w.K.Meter.Charge(clock.OpCall)
		n++
	})

	o, _ := newCounter(w)
	iv, _ := o.Iface("bench.counter.v1")
	ifaceCall := perOp(w, iters, func() { iv.Invoke("inc") })

	// Pre-resolved handle: same virtual cost as string invocation (the
	// cost model charges the indirect call, not the lookup), but the
	// host-machine lookup and lock disappear — see BenchmarkInvoke*.
	inc, err := iv.Resolve("inc")
	if err != nil {
		panic(err)
	}
	handleCall := perOp(w, iters, func() { inc.Call() })

	// Delegated: front object forwards to the backend through a handle
	// resolved at delegation time.
	front := obj.New("front", w.K.Meter)
	if _, err := front.AddInterface(counterDecl, nil); err != nil {
		panic(err)
	}
	if err := front.Delegate("bench.counter.v1", o); err != nil {
		panic(err)
	}
	fv, _ := front.Iface("bench.counter.v1")
	finc, err := fv.Resolve("inc")
	if err != nil {
		panic(err)
	}
	delegated := perOp(w, iters, func() { finc.Call() })

	t.AddRow("direct procedure call", direct, "1.0x")
	t.AddRow("interface invocation", ifaceCall, ratio(ifaceCall, direct))
	t.AddRow("pre-resolved handle", handleCall, ratio(handleCall, direct))
	t.AddRow("delegated invocation", delegated, ratio(delegated, direct))

	// Interposer chains, each depth calling through a fresh handle.
	var target obj.Instance = o
	for depth := 1; depth <= 4; depth++ {
		ip := obj.NewInterposer(fmt.Sprintf("mon%d", depth), target)
		ip.SetMeter(w.K.Meter)
		if err := ip.Wrap("bench.counter.v1", "inc", func(next obj.Method, args ...any) ([]any, error) {
			return next(args...)
		}); err != nil {
			panic(err)
		}
		target = ip
		tv, _ := target.Iface("bench.counter.v1")
		tinc, err := tv.Resolve("inc")
		if err != nil {
			panic(err)
		}
		c := perOp(w, iters, func() { tinc.Call() })
		t.AddRow(fmt.Sprintf("interposed depth %d", depth), c, ratio(c, direct))
	}
	return t
}

func ratio(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// T2CrossDomain compares invocation across protection regimes for a
// range of argument sizes: same-domain interface call, Paramecium
// fault-driven proxy, and the monolithic kernel's trap-per-call path.
func T2CrossDomain() Table {
	t := Table{
		ID:     "T2",
		Title:  "Cross-domain invocation (cycles/call)",
		Claim:  `cross-domain calls are "implemented using per page fault-handlers" (§3)`,
		Header: []string{"arg bytes", "same-domain", "proxy cross-domain", "monolith syscall"},
	}
	w := NewWorld()

	echoDecl := obj.MustInterfaceDecl("bench.echo.v1",
		obj.MethodDecl{Name: "echo", NumIn: 1, NumOut: 1})
	server := obj.New("echo", w.K.Meter)
	bi, err := server.AddInterface(echoDecl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("echo", func(args ...any) ([]any, error) { return []any{args[0]}, nil })

	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	if err := w.K.Register("/services/echo", server, serverDom.Ctx); err != nil {
		panic(err)
	}
	remote, err := clientDom.BindInterface("/services/echo", "bench.echo.v1")
	if err != nil {
		panic(err)
	}
	local, _ := server.Iface("bench.echo.v1")

	mono := baseline.New(w.K.Machine)
	if err := mono.AddService("echo", func(args ...any) ([]any, error) {
		return []any{args[0]}, nil
	}); err != nil {
		panic(err)
	}
	mono.Seal()

	lecho, err := local.Resolve("echo")
	if err != nil {
		panic(err)
	}
	recho, err := remote.Resolve("echo")
	if err != nil {
		panic(err)
	}
	for _, size := range []int{0, 64, 1024, 4096} {
		arg := make([]byte, size)
		lc := perOp(w, iters, func() { lecho.Call(arg) })
		pc := perOp(w, iters, func() { recho.Call(arg) })
		mc := perOp(w, iters, func() { mono.Syscall("echo", arg) })
		t.AddRow(size, lc, pc, mc)
	}
	t.Notes = append(t.Notes,
		"proxy pays trap + fault decode + 2 context switches + arg/result copy; the monolith pays trap + copy only, but cannot relocate the service")
	return t
}

// interruptRig builds a machine + scheduler + event service with a
// registered handler under the given dispatch policy.
type interruptRig struct {
	machine *hw.Machine
	sched   *threads.Scheduler
	events  *event.Service
	mtx     *threads.Mutex
	q       *threads.Queue
}

// newInterruptRig builds a one-CPU machine whose interrupt line 3 is
// bound, on the boot CPU, to a handler that optionally blocks.
func newInterruptRig(d event.Dispatch, blockers bool) *interruptRig {
	machine := hw.New(hw.Config{PhysFrames: 16})
	sched := threads.NewScheduler(machine.Meter)
	events := event.New(machine, sched)
	r := &interruptRig{machine: machine, sched: sched, events: events}
	r.mtx = threads.NewMutex(sched)
	var err error
	r.q, err = threads.NewQueue(sched, 1)
	if err != nil {
		panic(err)
	}
	handler := func(f *hw.TrapFrame, th *threads.Thread) {
		if blockers && th != nil {
			r.mtx.Lock(th)
			r.mtx.Unlock(th)
		}
	}
	if err := events.RegisterIRQOn(3, "bench", mmu.KernelContext, d, mmu.BootCPU, handler); err != nil {
		panic(err)
	}
	return r
}

// fire delivers one interrupt to the boot CPU and runs the system to
// idle, returning the cycles consumed.
func (r *interruptRig) fire() uint64 {
	watch := r.machine.Meter.Clock.StartWatch()
	if err := r.machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
		panic(err)
	}
	r.sched.RunUntilIdle()
	return watch.Elapsed()
}

// holdMutex parks a thread holding the rig's mutex (so the next
// proto-thread handler must block and promote); release lets it go.
func (r *interruptRig) holdMutex() {
	r.sched.Spawn("holder", func(th *threads.Thread) {
		r.mtx.Lock(th)
		r.q.Pop(th)
		r.mtx.Unlock(th)
	})
	r.sched.RunUntilIdle()
}

func (r *interruptRig) release() {
	r.q.TryPush(struct{}{})
	r.sched.RunUntilIdle()
}

// T3Interrupt measures interrupt-to-completion cost per dispatch
// policy, including the promotion path; interrupts go to the boot CPU.
func T3Interrupt() Table {
	t := Table{
		ID:     "T3",
		Title:  "Interrupt handling cost (cycles/event)",
		Claim:  `proto-threads give "fast interrupt processing of user code with proper thread semantics" (§3)`,
		Header: []string{"dispatch", "handler", "cycles/event"},
	}
	measure := func(d event.Dispatch, blocking bool) uint64 {
		r := newInterruptRig(d, blocking)
		var total uint64
		for i := 0; i < iters; i++ {
			if blocking && d == event.DispatchProto {
				r.holdMutex()
				watch := r.machine.Meter.Clock.StartWatch()
				if err := r.machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
					panic(err)
				}
				r.release()
				total += watch.Elapsed()
				continue
			}
			total += r.fire()
		}
		return total / uint64(iters)
	}
	t.AddRow("raw call-back", "non-blocking", measure(event.DispatchRaw, false))
	t.AddRow("proto-thread", "non-blocking (runs inline)", measure(event.DispatchProto, false))
	t.AddRow("proto-thread", "blocking (promoted)", measure(event.DispatchProto, true))
	t.AddRow("eager pop-up thread", "non-blocking", measure(event.DispatchEager, false))
	t.Notes = append(t.Notes,
		"proto non-blocking ~ raw + proto-thread cost; promotion pays thread creation only when the handler actually blocks")
	return t
}

// T4Certification measures load-time validation: image size sweep,
// cache effect, and delegation chain registration by depth.
func T4Certification() Table {
	t := Table{
		ID:     "T4",
		Title:  "Certificate validation cost (cycles)",
		Claim:  `"certificates include a message digest of the component ... validated by the kernel" (§3, §4); cached: "it does not require any further software checks" (§4)`,
		Header: []string{"case", "parameter", "cycles"},
	}
	w := NewWorld()
	meter := w.K.Meter

	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		image := make([]byte, size)
		clock.NewRand(uint64(size)).Bytes(image)
		c, err := w.Admin.Certify("img", image, cert.PrivKernelResident)
		if err != nil {
			panic(err)
		}
		watch := meter.Clock.StartWatch()
		if err := w.K.Validator.Validate(image, c, cert.PrivKernelResident); err != nil {
			panic(err)
		}
		cold := watch.Elapsed()
		watch = meter.Clock.StartWatch()
		if err := w.K.Validator.Validate(image, c, cert.PrivKernelResident); err != nil {
			panic(err)
		}
		warm := watch.Elapsed()
		t.AddRow("validate (cold)", fmt.Sprintf("%d KiB image", size/1024), cold)
		t.AddRow("validate (cached)", fmt.Sprintf("%d KiB image", size/1024), warm)
	}

	// Delegation chains: registration cost by depth.
	for depth := 1; depth <= 4; depth++ {
		w2 := NewWorld()
		keys := make([]cert.KeyPair, depth)
		for i := range keys {
			keys[i] = cert.GenerateKey(uint64(4000 + i))
		}
		watch := w2.K.Meter.Clock.StartWatch()
		parent := w2.Auth.Delegate("d0", keys[0].Pub, cert.PrivKernelResident)
		if err := w2.K.Validator.AddDelegation(parent); err != nil {
			panic(err)
		}
		for i := 1; i < depth; i++ {
			d := cert.SubDelegate(parent, keys[i-1], fmt.Sprintf("d%d", i), keys[i].Pub, cert.PrivKernelResident)
			if err := w2.K.Validator.AddDelegation(d); err != nil {
				panic(err)
			}
			parent = d
		}
		t.AddRow("register delegation chain", fmt.Sprintf("depth %d", depth), watch.Elapsed())
	}
	return t
}

// T5FilterPlacement measures per-packet filter cost across the three
// Paramecium placements and the monolith's fixed path.
func T5FilterPlacement() Table {
	t := Table{
		ID:     "T5",
		Title:  "Packet filter placement (cycles/packet)",
		Claim:  `"verifying a certificate at load-time obviates the need for run time fault checks thus allowing components to be more efficient" (§5)`,
		Header: []string{"placement", "cycles/packet", "vs certified"},
	}
	w := NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	frame := Frame(7, 256)

	costs := map[string]uint64{}
	for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
		lf, err := w.K.LoadFilter("portfilter", p)
		if err != nil {
			panic(err)
		}
		costs[p.String()] = perOp(w, iters, func() {
			if _, err := lf.Accept(frame); err != nil {
				panic(err)
			}
		})
	}

	mono := baseline.New(w.K.Machine)
	mono.Seal()
	path := baseline.NewNetPath(mono, 7)
	costs["monolith fixed path"] = perOp(w, iters, func() { path.Deliver(frame) })

	certified := costs[core.PlaceKernelCertified.String()]
	for _, name := range []string{
		core.PlaceKernelCertified.String(),
		core.PlaceKernelSandboxed.String(),
		"monolith fixed path",
		core.PlaceUser.String(),
	} {
		t.AddRow(name, costs[name], ratio(costs[name], certified))
	}
	t.Notes = append(t.Notes,
		"the monolith's path is native (no interpretation) but admits no application filters; Paramecium certified matches its structure while staying extensible")
	return t
}

// T6Reconfiguration measures the dynamic-configuration primitives.
func T6Reconfiguration() Table {
	t := Table{
		ID:     "T6",
		Title:  "Reconfiguration primitives (cycles/op)",
		Claim:  `"late binding and dynamic loading to instantiate components at run time" (§1); interposition "is trivial" (§2)`,
		Header: []string{"operation", "cycles"},
	}
	w := NewWorld()
	w.AddPVM("f", netstack.PortFilterProgram(7), true)

	watch := w.K.Meter.Clock.StartWatch()
	lf, err := w.K.LoadFilter("f", core.PlaceKernelCertified)
	if err != nil {
		panic(err)
	}
	t.AddRow("dynamic load (cold, incl. validation)", watch.Elapsed())
	if err := w.K.Unload(lf); err == nil {
		watch = w.K.Meter.Clock.StartWatch()
		if _, err := w.K.LoadFilter("f", core.PlaceKernelCertified); err != nil {
			panic(err)
		}
		t.AddRow("dynamic load (warm, cached validation)", watch.Elapsed())
	}

	path := "/services/f." + core.PlaceKernelCertified.String()
	bindCost := perOp(w, iters, func() {
		if _, err := w.K.RootView.Bind(path); err != nil {
			panic(err)
		}
	})
	t.AddRow("name-space bind", bindCost)

	watch = w.K.Meter.Clock.StartWatch()
	if _, err := w.K.Interpose(path, func(target obj.Instance) (obj.Instance, error) {
		return obj.NewInterposer("monitor", target), nil
	}); err != nil {
		panic(err)
	}
	t.AddRow("interpose (handle replacement)", watch.Elapsed())

	watch = w.K.Meter.Clock.StartWatch()
	if err := w.K.Unwrap(path); err != nil {
		panic(err)
	}
	t.AddRow("unwrap interposer", watch.Elapsed())

	dom := w.K.NewDomain("app")
	mock := obj.New("mock", w.K.Meter)
	watch = w.K.Meter.Clock.StartWatch()
	if err := dom.View.Override(path, mock); err != nil {
		panic(err)
	}
	t.AddRow("install per-domain override", watch.Elapsed())
	return t
}

// F1Throughput derives delivered-vs-offered curves for the three
// filter placements from measured per-packet full-path cost
// (filter + stack parse + demux).
func F1Throughput() Table {
	t := Table{
		ID:     "F1",
		Title:  "Delivered throughput vs offered load (packets per Mcycle)",
		Claim:  `shared-driver motivation: application filters in a shared network driver (§1)`,
		Header: []string{"offered", "certified", "sandboxed", "user-level"},
	}
	w := NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	frame := Frame(7, 256)

	// Measure the full receive path per placement: filter + parse.
	perPacket := map[core.Placement]uint64{}
	for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
		lf, err := w.K.LoadFilter("portfilter", p)
		if err != nil {
			panic(err)
		}
		drv := nullDriver(w)
		stack, err := netstack.NewStack("stack-"+p.String(), w.K.Meter, drv,
			netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
		if err != nil {
			panic(err)
		}
		stack.AttachFilter(lf)
		if _, err := stack.Bind(7); err != nil {
			panic(err)
		}
		perPacket[p] = perOp(w, iters, func() { stack.Deliver(frame) })
	}

	// Saturation curve: delivered = min(offered, capacity). Offered
	// rates span from below the slowest placement's capacity (all
	// keep up) to beyond the fastest's (all saturated).
	capacity := func(p core.Placement) float64 { return 1e6 / float64(perPacket[p]) }
	userCap := capacity(core.PlaceUser)
	certCap := capacity(core.PlaceKernelCertified)
	offeredRates := []float64{
		0.5 * userCap, 0.9 * userCap, 1.5 * userCap,
		0.9 * capacity(core.PlaceKernelSandboxed),
		0.9 * certCap, 1.2 * certCap,
	}
	for _, offered := range offeredRates {
		row := []any{offered}
		for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
			row = append(row, min2(offered, capacity(p)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured per-packet cycles: certified=%d sandboxed=%d user=%d",
			perPacket[core.PlaceKernelCertified], perPacket[core.PlaceKernelSandboxed], perPacket[core.PlaceUser]),
		"delivered = min(offered, 1e6/per-packet): each placement saturates at its measured capacity")
	return t
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// nullDriver builds an empty netdev object (the F1 stack is fed via
// Deliver, not the driver).
func nullDriver(w *World) obj.Invoker {
	drv := obj.New("nulldrv", w.K.Meter)
	bi, err := drv.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3},
	), nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	iv, _ := drv.Iface("paramecium.netdev.v1")
	return iv
}

// F2BreakEven computes the invocation count at which paying the
// one-time certification validation beats per-call SFI overhead, as a
// function of filter complexity.
func F2BreakEven() Table {
	t := Table{
		ID:     "F2",
		Title:  "Certification break-even vs filter complexity",
		Claim:  `certification "is efficient ... all run time checks can then be omitted" (§4)`,
		Header: []string{"filter work (bytes summed)", "validate cycles", "cert cycles/pkt", "sfi cycles/pkt", "break-even packets"},
	}
	frame := Frame(7, 1024)
	for _, work := range []int{0, 64, 256, 1024} {
		w := NewWorld()
		src := netstack.PortFilterProgram(7)
		if work > 0 {
			src = netstack.WorkFilterProgram(7, work)
		}
		w.AddPVM("f", src, true)

		img, err := w.K.Repo.Get("f")
		if err != nil {
			panic(err)
		}
		watch := w.K.Meter.Clock.StartWatch()
		if err := w.K.Validator.Validate(img.Data, img.Cert, cert.PrivKernelResident); err != nil {
			panic(err)
		}
		validate := watch.Elapsed()
		w.K.Validator.InvalidateCache()

		lfC, err := w.K.LoadFilter("f", core.PlaceKernelCertified)
		if err != nil {
			panic(err)
		}
		lfS, err := w.K.LoadFilter("f", core.PlaceKernelSandboxed)
		if err != nil {
			panic(err)
		}
		certCost := perOp(w, iters, func() { lfC.Accept(frame) })
		sfiCost := perOp(w, iters, func() { lfS.Accept(frame) })

		breakEven := "never"
		if sfiCost > certCost {
			breakEven = fmt.Sprint(validate/(sfiCost-certCost) + 1)
		}
		t.AddRow(work, validate, certCost, sfiCost, breakEven)
	}
	t.Notes = append(t.Notes,
		"break-even = validation cycles / per-packet saving; more filter work per packet amortizes certification sooner")
	return t
}

// F3BlockingFraction measures interrupt cost for proto vs eager
// dispatch as the fraction of handlers that block varies.
func F3BlockingFraction() Table {
	t := Table{
		ID:     "F3",
		Title:  "Interrupt cost vs blocking fraction (cycles/event)",
		Claim:  `"only when the proto-thread is about to block or be rescheduled do we turn it into a real thread" (§3)`,
		Header: []string{"% handlers blocking", "proto-thread", "eager pop-up", "proto saving"},
	}
	const events = 100
	for _, pct := range []int{0, 25, 50, 75, 100} {
		proto := runBlockingMix(event.DispatchProto, pct, events)
		eager := runBlockingMix(event.DispatchEager, pct, events)
		saving := "-"
		if eager > proto {
			saving = fmt.Sprintf("%.0f%%", 100*float64(eager-proto)/float64(eager))
		}
		t.AddRow(pct, proto, eager, saving)
	}
	t.Notes = append(t.Notes,
		"proto wins by the full thread-creation cost on non-blocking events and converges toward eager as every handler blocks")
	return t
}

// runBlockingMix delivers events of which pct% block on a held mutex,
// returning average cycles per event. Interrupts go to the boot CPU.
func runBlockingMix(d event.Dispatch, pct, events int) uint64 {
	machine := hw.New(hw.Config{PhysFrames: 16})
	sched := threads.NewScheduler(machine.Meter)
	evts := event.New(machine, sched)
	mtx := threads.NewMutex(sched)
	q, err := threads.NewQueue(sched, 1)
	if err != nil {
		panic(err)
	}
	shouldBlock := false
	if err := evts.RegisterIRQOn(3, "mix", mmu.KernelContext, d, mmu.BootCPU, func(f *hw.TrapFrame, th *threads.Thread) {
		if shouldBlock && th != nil {
			mtx.Lock(th)
			mtx.Unlock(th)
		}
	}); err != nil {
		panic(err)
	}
	rand := clock.NewRand(42)
	watch := machine.Meter.Clock.StartWatch()
	for i := 0; i < events; i++ {
		shouldBlock = rand.Intn(100) < pct
		if shouldBlock {
			// Park a holder so a blocking handler really blocks.
			sched.Spawn("holder", func(th *threads.Thread) {
				mtx.Lock(th)
				q.Pop(th)
				mtx.Unlock(th)
			})
			sched.RunUntilIdle()
			if err := machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
				panic(err)
			}
			q.TryPush(struct{}{})
			sched.RunUntilIdle()
			continue
		}
		if err := machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
			panic(err)
		}
		sched.RunUntilIdle()
	}
	return watch.Elapsed() / uint64(events)
}

// F4Namespace measures lookup cost vs path depth and override/alias
// configurations.
func F4Namespace() Table {
	t := Table{
		ID:     "F4",
		Title:  "Name-space lookup cost (cycles/bind)",
		Claim:  `instance naming and overrides make reconfiguration cheap (§2)`,
		Header: []string{"case", "cycles/bind"},
	}
	w := NewWorld()
	target := obj.New("leaf", w.K.Meter)

	// pathAt builds a non-overlapping path of the given depth:
	// /n<depth>/c0/c1/... (depth components total).
	pathAt := func(depth int) string {
		path := fmt.Sprintf("/n%d", depth)
		for i := 1; i < depth; i++ {
			path += fmt.Sprintf("/c%d", i)
		}
		return path
	}
	for _, depth := range []int{1, 2, 4, 8} {
		path := pathAt(depth)
		if err := w.K.Space.Register(path, target); err != nil {
			panic(err)
		}
		c := perOp(w, iters, func() {
			if _, err := w.K.RootView.Bind(path); err != nil {
				panic(err)
			}
		})
		t.AddRow(fmt.Sprintf("depth %d, direct", depth), c)
	}

	// Override hit: constant cost regardless of path depth.
	deep := pathAt(8)
	v := w.K.RootView.Child()
	if err := v.Override(deep, target); err != nil {
		panic(err)
	}
	c := perOp(w, iters, func() {
		if _, err := v.Bind(deep); err != nil {
			panic(err)
		}
	})
	t.AddRow("depth 8, override hit", c)

	// Alias chain: one redirect then the real lookup.
	v2 := w.K.RootView.Child()
	if err := v2.Alias("/short", pathAt(1)); err != nil {
		panic(err)
	}
	c = perOp(w, iters, func() {
		if _, err := v2.Bind("/short"); err != nil {
			panic(err)
		}
	})
	t.AddRow("alias -> depth 1", c)
	return t
}

// F5TrapCostSweep is the ablation: cross-domain proxy call cost as the
// hardware trap and context-switch costs vary, plus the
// TLB-flush-on-switch configuration.
func F5TrapCostSweep() Table {
	t := Table{
		ID:     "F5",
		Title:  "Proxy call cost vs hardware cost model (cycles/call)",
		Claim:  `fault-driven proxies inherit the hardware's trap/switch costs (§3, ablation)`,
		Header: []string{"trap cost", "ctx-switch cost", "tlb", "cycles/call"},
	}
	for _, trapCost := range []uint64{60, 120, 300, 600} {
		for _, switchCost := range []uint64{100, 200, 400} {
			for _, flush := range []bool{false, true} {
				costs := clock.DefaultCosts().
					WithCost(clock.OpTrapEnter, trapCost).
					WithCost(clock.OpCtxSwitch, switchCost)
				c := measureProxyCall(costs, flush)
				tlb := "asid"
				if flush {
					tlb = "flush"
				}
				t.AddRow(trapCost, switchCost, tlb, c)
			}
		}
	}
	t.Notes = append(t.Notes,
		"rows sweep the simulated SPARC's privileged-operation costs; flush = TLB flushed on every context switch (no ASIDs), which adds refill misses to every call that touches domain memory")
	return t
}

// measureProxyCall builds a two-domain echo service under the given
// cost model and measures one cross-domain call that also touches a
// page of domain memory (so TLB policy matters). The server's touch
// goes through the boot CPU deliberately: this single-CPU experiment
// sweeps trap/switch/TLB costs, and one fixed TLB keeps the refill
// pattern comparable across cost models.
func measureProxyCall(costs clock.CostModel, flushOnSwitch bool) uint64 {
	auth := cert.NewAuthority(0xB007)
	k, err := core.Boot(core.Config{
		AuthorityKey: auth.PublicKey(),
		Machine: hw.Config{
			PhysFrames: 64,
			Costs:      &costs,
			MMU:        mmu.Config{FlushOnSwitch: flushOnSwitch, TLBSize: 16},
		},
	})
	if err != nil {
		panic(err)
	}
	serverDom := k.NewDomain("server")
	clientDom := k.NewDomain("client")

	// Server touches its own memory per call (a page of state).
	if err := k.Mem.AllocPageOn(mmu.BootCPU, serverDom.Ctx, 0x10000, mmu.PermRead|mmu.PermWrite); err != nil {
		panic(err)
	}
	decl := obj.MustInterfaceDecl("bench.touch.v1", obj.MethodDecl{Name: "touch", NumIn: 0, NumOut: 0})
	server := obj.New("toucher", k.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 64)
	bi.MustBind("touch", func(...any) ([]any, error) {
		return nil, k.Machine.CPUByID(mmu.BootCPU).Load(serverDom.Ctx, 0x10000, buf)
	})
	if err := k.Register("/services/touch", server, serverDom.Ctx); err != nil {
		panic(err)
	}
	touch, err := clientDom.ResolveMethod("/services/touch", "bench.touch.v1", "touch")
	if err != nil {
		panic(err)
	}
	// Warm up, then measure.
	if _, err := touch.Call(); err != nil {
		panic(err)
	}
	watch := k.Meter.Clock.StartWatch()
	for i := 0; i < iters; i++ {
		if _, err := touch.Call(); err != nil {
			panic(err)
		}
	}
	return watch.Elapsed() / uint64(iters)
}
