// Package core is the Paramecium nucleus: "a protected and trusted
// component which implements only those services that cannot be moved
// into the application without jeopardizing the system's integrity."
//
// The kernel is itself a static (link-time) composition of the four
// nucleus services — processor event management, memory management,
// the directory service and the certification service — assembled at
// Boot. Everything else (thread package, drivers, protocol stacks,
// virtual memory) is an ordinary component loaded from the repository
// into whichever protection domain its certificate allows.
package core

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/names"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/proxy"
	"paramecium/internal/repoz"
	"paramecium/internal/shm"
	"paramecium/internal/threads"
)

// Well-known name-space paths.
const (
	PathNucleus  = "/nucleus"
	PathServices = "/services"
	PathDevices  = "/devices"
)

// Errors.
var (
	ErrNotCertified = errors.New("core: component not certified for requested placement")
	ErrNoSuchDomain = errors.New("core: no such domain")
)

// Config controls kernel construction.
type Config struct {
	// Machine configures the simulated hardware (defaults apply).
	Machine hw.Config
	// AuthorityKey is the certification authority's public key the
	// kernel trusts. Zero-length means certification is disabled and
	// every kernel placement request fails closed.
	AuthorityKey []byte
	// CPUs is the virtual CPU count (0 => 1). It sets the machine
	// topology and sizes the thread scheduler to match: per-CPU
	// context registers and TLBs in the MMU, one run queue per CPU in
	// the scheduler. The default of one CPU preserves every
	// single-processor semantic exactly.
	CPUs int
	// Trace enables the kernel flight recorder from boot: per-CPU event
	// rings plus the per-domain cycle ledger, both reachable through the
	// meter. Off by default; the disabled emit path is a single atomic
	// load, so untraced systems pay nothing.
	Trace bool
	// TraceRingCapacity sizes each per-CPU event ring (0 selects
	// probe.DefaultRingCapacity). Older events are overwritten; the
	// ledger is exact regardless.
	TraceRingCapacity int
}

// Kernel is a booted Paramecium system.
type Kernel struct {
	Machine   *hw.Machine
	Meter     *clock.Meter
	Mem       *mem.Service
	Events    *event.Service
	Sched     *threads.Scheduler
	Space     *names.Space
	RootView  *names.View
	Validator *cert.Validator
	Repo      *repoz.Repository
	Proxies   *proxy.Factory
	// Shm is the shared-memory segment registry: the zero-copy bulk
	// data plane the memory service brokers between protection domains.
	// Grants are capabilities (unforgeable refs), validated by the
	// proxy factory when passed across calls and condemned on
	// DestroyDomain through the same sweep that kills names and
	// proxies.
	Shm *shm.Registry
	// Nucleus is the static composition holding the four services.
	Nucleus *obj.Composition

	// mu guards placement and domains. Bind — the hot lookup path —
	// only read-locks it.
	mu        sync.RWMutex
	placement map[obj.Instance]mmu.ContextID // where each registered instance lives
	domains   map[mmu.ContextID]*Domain

	// regMu serializes name-space publication with placement recording
	// (Register, Interpose), so a failed publication's placement
	// rollback cannot clobber a concurrent publication of the same
	// instance. Lookups never take it.
	regMu sync.Mutex

	// kprox is KernelBind's bind cache — the kernel-resident mirror of
	// Domain.prox, so repeated kernel binds of one instance share one
	// proxy instead of leaking entry pages per call.
	kprox proxyCache
}

// proxyCache is a bind cache of live proxies keyed by instance, shared
// by Domain.Bind (per-domain) and KernelBind (kernel-wide) so the two
// cannot drift: one staleness rule, one eviction path.
type proxyCache struct {
	mu sync.Mutex
	m  map[obj.Instance]*proxy.Proxy // nil once destroyed
}

// bind resolves inst for a caller in ctx caller: the instance itself
// if it lives there, else a cached-or-fresh proxy. homeOf reads the
// instance's current placement; it is re-read at every decision point
// rather than snapshotted once, so a bind that was delayed after an
// early read cannot act on stale placement. Stale cache entries —
// closed (the target domain died), or targeting a context other than
// the instance's home (re-homed) — are evicted; an evicted open proxy
// is Closed only if a placement re-read at that moment still says it
// is orphaned (closing is destructive to every handle resolved
// through it, so when in doubt the proxy is left open: a bounded leak
// under placement flapping, never a wrongly killed live route). The
// Close happens OUTSIDE the cache lock: it drains in-flight calls,
// which may themselves need this cache.
func (c *proxyCache) bind(inst obj.Instance, caller mmu.ContextID, homeOf func() mmu.ContextID, f *proxy.Factory) (obj.Instance, error) {
	for {
		home := homeOf()
		if home == caller {
			// No proxy needed. Drop a proxy cached before inst was
			// re-homed into the caller's own context, closing it only
			// if the placement still says so.
			c.mu.Lock()
			var stale *proxy.Proxy
			if c.m != nil {
				if p, ok := c.m[inst]; ok {
					delete(c.m, inst)
					stale = p
				}
			}
			c.mu.Unlock()
			if stale != nil && !stale.Closed() && homeOf() == caller {
				_ = stale.Close()
			}
			return inst, nil
		}
		c.mu.Lock()
		if c.m == nil {
			c.mu.Unlock()
			return nil, ErrNoSuchDomain
		}
		p, ok := c.m[inst]
		if !ok {
			np, err := f.New(caller, home, inst)
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			c.m[inst] = np
			c.mu.Unlock()
			return np, nil
		}
		if !p.Closed() && p.TargetContext() == home {
			c.mu.Unlock()
			return p, nil
		}
		delete(c.m, inst)
		c.mu.Unlock()
		if !p.Closed() && p.TargetContext() != homeOf() {
			// Still orphaned on re-read: drain and release it.
			_ = p.Close()
		}
		// Loop: rebuild against fresh placement, or adopt a proxy a
		// concurrent bind installed.
	}
}

// destroy empties the cache permanently and returns its proxies for
// the caller to close (outside the cache lock).
func (c *proxyCache) destroy() map[obj.Instance]*proxy.Proxy {
	c.mu.Lock()
	m := c.m
	c.m = nil
	c.mu.Unlock()
	return m
}

// Boot assembles a kernel: machine, the four nucleus services, the
// root of the name space, and an empty repository. A domain teardown's
// shared-memory sweep initiates from the boot CPU, where the nucleus
// runs DestroyDomain.
func Boot(cfg Config) (*Kernel, error) {
	machineCfg := cfg.Machine
	if cfg.CPUs > 0 {
		machineCfg.CPUs = cfg.CPUs
	}
	machine := hw.New(machineCfg)
	meter := machine.Meter
	if cfg.Trace {
		meter.EnableTracing(
			probe.NewRecorder(machine.NumCPUs(), cfg.TraceRingCapacity),
			probe.NewLedger(clock.LedgerSlots),
		)
	}
	memSvc := mem.New(machine)
	sched := threads.NewSchedulerCPUs(meter, machine.NumCPUs())
	// Scheduler CPU k and machine CPU k are one identity: thread
	// bodies run their simulated memory traffic through the machine on
	// their dispatching CPU, and placement learns the NUMA shape.
	sched.AttachMachine(machine)
	if topo := machine.Topology(); topo != nil {
		sched.SetTopology(topo.Nodes, topo.CPUsPerNode)
	}
	events := event.New(machine, sched)
	space := names.NewSpace(meter)
	validator := cert.NewValidator(meter, cfg.AuthorityKey)

	k := &Kernel{
		Machine:   machine,
		Meter:     meter,
		Mem:       memSvc,
		Events:    events,
		Sched:     sched,
		Space:     space,
		RootView:  names.RootView(space),
		Validator: validator,
		Repo:      repoz.New(),
		Proxies:   proxy.NewFactory(memSvc, 0),
		Shm:       shm.NewRegistry(memSvc),
		placement: make(map[obj.Instance]mmu.ContextID),
		domains:   make(map[mmu.ContextID]*Domain),
		kprox:     proxyCache{m: make(map[obj.Instance]*proxy.Proxy)},
	}
	// Grant capabilities passed across calls are validated by the
	// proxy before any crossing cost is paid, and a domain teardown's
	// CloseTarget condemns the domain's segments through the same
	// sweep that condemns its proxies — no fresh mapping (or call)
	// appears after DestroyDomain returns.
	k.Proxies.SetGrantRegistry(k.Shm)
	k.Proxies.OnCloseTarget(func(ctx mmu.ContextID) { k.Shm.CondemnDomainFrom(mmu.BootCPU, ctx) })

	// The nucleus is the only static composition in the system.
	nucleus := obj.NewStaticComposition("paramecium.nucleus", meter)
	for role, inst := range map[string]obj.Instance{
		"events":    nucleusFacade("nucleus.events", meter),
		"memory":    nucleusFacade("nucleus.memory", meter),
		"directory": nucleusFacade("nucleus.directory", meter),
		"certify":   nucleusFacade("nucleus.certify", meter),
	} {
		if err := nucleus.AddChild(role, inst); err != nil {
			return nil, err
		}
		if err := space.Register(names.Join(PathNucleus, role), inst); err != nil {
			return nil, err
		}
	}
	k.Nucleus = nucleus
	return k, nil
}

// nucleusFacade builds the name-space face of one nucleus service. The
// actual service logic lives in the typed Go APIs (k.Mem, k.Events,
// ...); the facade object is what shows up in /nucleus so components
// can late-bind and interpose on it like on anything else.
func nucleusFacade(class string, meter *clock.Meter) obj.Instance {
	o := obj.NewStatic(class, meter)
	decl := obj.MustInterfaceDecl(class+".v1",
		obj.MethodDecl{Name: "describe", NumIn: 0, NumOut: 1},
	)
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		panic(err) // static construction; cannot fail at run time
	}
	bi.MustBind("describe", func(...any) ([]any, error) {
		return []any{class}, nil
	})
	return o
}

// Domain is an application protection domain with its own view of the
// name space (inherited from the root view, reconfigurable with
// overrides).
type Domain struct {
	Name string
	Ctx  mmu.ContextID
	View *names.View

	kernel *Kernel
	prox   proxyCache
	// destroyed is closed (via destroyOnce, since a failed teardown
	// can be retried) once DestroyDomain has quiesced the domain —
	// drains and condemn done — so a DestroyDomain losing the race to
	// a concurrent destroyer can still wait for quiescence before
	// reporting ErrNoSuchDomain.
	destroyed   chan struct{}
	destroyOnce sync.Once
}

// NewDomain creates an application protection domain.
func (k *Kernel) NewDomain(name string) *Domain {
	ctx := k.Mem.NewDomain()
	d := &Domain{
		Name:      name,
		Ctx:       ctx,
		View:      k.RootView.Child(),
		kernel:    k,
		prox:      proxyCache{m: make(map[obj.Instance]*proxy.Proxy)},
		destroyed: make(chan struct{}),
	}
	k.mu.Lock()
	k.domains[ctx] = d
	k.mu.Unlock()
	return d
}

// DestroyDomain tears a domain down. When it returns — including with
// ErrNoSuchDomain after losing the race to a concurrent destroyer —
// no cross-domain call is executing in the domain. Like Proxy.Close,
// it must not be called from inside a method served by the domain
// being destroyed (the drain could never finish).
func (k *Kernel) DestroyDomain(d *Domain) error {
	k.mu.Lock()
	if _, ok := k.domains[d.Ctx]; !ok {
		k.mu.Unlock()
		// Lost to a concurrent destroyer: wait out its teardown so
		// ErrNoSuchDomain still implies quiescence.
		<-d.destroyed
		return ErrNoSuchDomain
	}
	delete(k.domains, d.Ctx)
	k.mu.Unlock()
	// Close outside the cache lock: Close blocks until in-flight
	// calls drain, and an in-flight call's target method may itself
	// bind through this domain — closing under the lock would
	// deadlock.
	for _, p := range d.prox.destroy() {
		_ = p.Close()
	}
	// Quiesce inbound calls too: proxies targeting this domain live in
	// other domains' bind caches (and in kernel-resident callers), not
	// in d.prox. Closing them drains every call still executing in
	// this domain before its context is destroyed. This runs BEFORE
	// the placement entries are removed: a Bind racing teardown either
	// reads the old placement and fails on the condemned target, or
	// (after the removal below) no placement at all — it can never
	// build a live route into the dying context. The CloseTarget
	// condemn also sweeps the shared-memory registry (via the hook
	// registered at Boot): grants to the domain are revoked, segments
	// it owns destroyed, and pending attaches fail — no fresh mapping
	// appears after this call, just as no fresh proxy route does.
	k.Proxies.CloseTarget(d.Ctx)
	// The sweep holds regMu so it cannot interleave with a
	// publishPlaced between its placement write and its publication —
	// a racing Register into the dying context either lands entirely
	// before the sweep (and is unregistered below like any other name
	// of the dead domain) or entirely after (and its binds fail on the
	// condemned target).
	k.regMu.Lock()
	k.mu.Lock()
	doomed := make(map[obj.Instance]bool)
	for inst, ctx := range k.placement {
		if ctx == d.Ctx {
			doomed[inst] = true
			delete(k.placement, inst)
		}
	}
	k.mu.Unlock()
	// Sweep the dead domain's names out of the name space. Without
	// this, a later bind of such a name would resolve placement-less —
	// PlacementOf's zero value is the kernel context — and reach the
	// orphaned object directly instead of failing; dead services must
	// fail lookups. regMu is still held, so no concurrent publication
	// interleaves with the walk-and-unregister.
	var dead []string
	_ = k.Space.Walk(func(path string, inst obj.Instance) error {
		if doomed[inst] {
			dead = append(dead, path)
		}
		return nil
	})
	for _, path := range dead {
		_ = k.Space.Unregister(path)
	}
	// View overrides can pin a doomed instance too — and resolve it
	// placement-less, bypassing both the space sweep and the proxy
	// condemn. Sweep every live domain's view (and the root view) of
	// overrides on the dead domain's instances.
	isDoomed := func(inst obj.Instance) bool { return doomed[inst] }
	k.mu.Lock()
	views := make([]*names.View, 0, len(k.domains)+1)
	views = append(views, k.RootView)
	for _, dom := range k.domains {
		views = append(views, dom.View)
	}
	k.mu.Unlock()
	for _, v := range views {
		v.SweepInstances(isDoomed)
	}
	k.regMu.Unlock()
	// Freeze the domain's ledger row while it is quiescent: its bill
	// stays readable after death instead of being dropped with the
	// domain. Context ids are never reused, so frozen is final.
	if led := k.Meter.Ledger(); led != nil {
		led.Freeze(uint32(d.Ctx))
	}
	// Quiescent: drains, condemn and sweep are done. Release waiters
	// now, whether or not the context destruction below succeeds.
	d.destroyOnce.Do(func() { close(d.destroyed) })
	if err := k.Mem.DestroyDomain(d.Ctx); err != nil {
		// The context survived (e.g. it is the machine's current
		// context). Keep it condemned, and re-register the domain so
		// the teardown can be retried — the drains above are all
		// idempotent.
		k.mu.Lock()
		k.domains[d.Ctx] = d
		k.mu.Unlock()
		return err
	}
	// The context is gone: the MMU now rejects every crossing into it,
	// so the condemn entries — the proxy factory's and the segment
	// registry's alike — are redundant and can be dropped (bounding
	// the condemned sets under domain churn).
	k.Proxies.Absolve(d.Ctx)
	k.Shm.AbsolveDomain(d.Ctx)
	return nil
}

// registerPlacement records which context an instance lives in
// WITHOUT publishing a name for it. Production code must go through
// publishPlaced (Register, Interpose), which keeps placement and
// publication consistent under regMu; this exists for instances made
// reachable by other means (per-domain view overrides, tests).
func (k *Kernel) registerPlacement(inst obj.Instance, ctx mmu.ContextID) {
	k.regMu.Lock()
	defer k.regMu.Unlock()
	k.mu.Lock()
	k.placement[inst] = ctx
	k.mu.Unlock()
}

// PlacementOf reports the context an instance was registered under
// (kernel context if never registered).
func (k *Kernel) PlacementOf(inst obj.Instance) mmu.ContextID {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.placement[inst]
}

// publishPlaced records inst's placement and runs publish (a
// name-space mutation making inst reachable), keeping the pair
// consistent for concurrent lock-free Binds: an instance never
// becomes reachable before its placement is known (a racing Bind
// would otherwise cache a proxy targeting the kernel context,
// PlacementOf's zero value), and an instance that is already placed
// keeps its old home until publication succeeds, so a failed
// publication never exposes even a transient wrong placement for
// names already published. regMu serializes publications, so the
// rollback cannot clobber a concurrent publication of inst.
func (k *Kernel) publishPlaced(inst obj.Instance, ctx mmu.ContextID, publish func() error) error {
	k.regMu.Lock()
	defer k.regMu.Unlock()
	return k.publishPlacedLocked(inst, ctx, publish)
}

// publishPlacedLocked is publishPlaced for callers already holding
// regMu (Interpose, which must read the target's placement inside the
// same critical section it publishes the agent under).
func (k *Kernel) publishPlacedLocked(inst obj.Instance, ctx mmu.ContextID, publish func() error) error {
	k.mu.Lock()
	prev, had := k.placement[inst]
	if !had {
		k.placement[inst] = ctx
	}
	k.mu.Unlock()
	if err := publish(); err != nil {
		if !had {
			// inst was reachable through no name (regMu excludes
			// concurrent publications), so nothing observed this.
			k.mu.Lock()
			delete(k.placement, inst)
			k.mu.Unlock()
		}
		return err
	}
	if had && prev != ctx {
		// Re-homing an already-published instance: last-write-wins,
		// applied only once the new name is live.
		k.mu.Lock()
		k.placement[inst] = ctx
		k.mu.Unlock()
	}
	return nil
}

// Register places an instance in the name space, recording its
// protection domain.
func (k *Kernel) Register(path string, inst obj.Instance, ctx mmu.ContextID) error {
	return k.publishPlaced(inst, ctx, func() error {
		return k.Space.Register(path, inst)
	})
}

// Bind resolves path in the domain's view. If the instance lives in
// another protection domain, a proxy appears — "importing an object
// from another protection domain, by means of the directory service,
// causes a proxy to appear." Binds from the kernel domain to kernel
// instances (and within the same domain) are direct.
func (d *Domain) Bind(path string) (obj.Instance, error) {
	inst, err := d.View.Bind(path)
	if err != nil {
		return nil, err
	}
	return d.prox.bind(inst, d.Ctx,
		func() mmu.ContextID { return d.kernel.PlacementOf(inst) },
		d.kernel.Proxies)
}

// BindInterface is Bind followed by interface selection.
func (d *Domain) BindInterface(path, iface string) (obj.Invoker, error) {
	inst, err := d.Bind(path)
	if err != nil {
		return nil, err
	}
	iv, ok := inst.Iface(iface)
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", obj.ErrNoInterface, iface, path)
	}
	return iv, nil
}

// ResolveMethod binds path in the domain's view, selects an
// interface, and pre-resolves one method. Cross-domain targets
// resolve to a handle over the proxy's entry slot, so even the
// fault-driven path skips its per-call method lookup.
func (d *Domain) ResolveMethod(path, iface, method string) (obj.MethodHandle, error) {
	iv, err := d.BindInterface(path, iface)
	if err != nil {
		return obj.MethodHandle{}, err
	}
	return iv.Resolve(method)
}

// CallBatch executes a batch of pre-resolved invocations. Consecutive
// entries resolved through one cross-domain proxy vector across the
// boundary in a single crossing — one trap, one context-switch pair,
// N slot dispatches — with per-entry results and errors; see
// obj.Batch. Routing is carried entirely by each entry's resolved
// handle (a proxy handle is bound to its caller context at Resolve
// time), so the receiver is the natural call site, not a routing
// input: CallBatch here and on Kernel run an identical batch
// identically.
func (d *Domain) CallBatch(b *obj.Batch) error { return b.Run() }

// CallBatch executes a batch of pre-resolved invocations for a
// kernel-resident call site; routing is carried by each entry's
// resolved handle — see Domain.CallBatch.
func (k *Kernel) CallBatch(b *obj.Batch) error { return b.Run() }

// KernelBind resolves a path for kernel-resident callers: instances in
// the kernel context are returned directly; instances in application
// domains are reached through a proxy owned by the kernel context,
// cached per instance exactly as Domain.Bind caches its proxies.
func (k *Kernel) KernelBind(path string) (obj.Instance, error) {
	inst, err := k.RootView.Bind(path)
	if err != nil {
		return nil, err
	}
	return k.kprox.bind(inst, mmu.KernelContext,
		func() mmu.ContextID { return k.PlacementOf(inst) },
		k.Proxies)
}

// Interpose replaces the instance at path with an interposing agent
// wrapping it, returning the agent. All future binds resolve to the
// agent; existing direct references are unaffected (exactly the
// semantics of handle replacement in the paper).
func (k *Kernel) Interpose(path string, build func(target obj.Instance) (obj.Instance, error)) (obj.Instance, error) {
	target, err := k.RootView.Bind(path)
	if err != nil {
		return nil, err
	}
	agent, err := build(target)
	if err != nil {
		return nil, err
	}
	// The target's placement is read under regMu, so a concurrent
	// re-registration of the target cannot slip between the read and
	// the agent's publication.
	k.regMu.Lock()
	defer k.regMu.Unlock()
	if err := k.publishPlacedLocked(agent, k.PlacementOf(target), func() error {
		_, err := k.Space.Replace(path, agent)
		return err
	}); err != nil {
		return nil, err
	}
	return agent, nil
}

// Unwrap undoes an interposition by restoring the wrapped target.
func (k *Kernel) Unwrap(path string) error {
	cur, err := k.RootView.Bind(path)
	if err != nil {
		return err
	}
	ip, ok := cur.(*obj.Interposer)
	if !ok {
		return fmt.Errorf("core: %q is not interposed", path)
	}
	_, err = k.Space.Replace(path, ip.Target())
	return err
}
