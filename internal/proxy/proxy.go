// Package proxy implements Paramecium's cross-domain invocation:
// "Importing an object from another protection domain, by means of the
// directory service, causes a proxy to appear. This proxy provides
// exactly the same set of interfaces as the original object, but each
// interface entry will cause a page fault when referenced. Control is
// then transferred to a per page fault handler which will map in
// arguments into the object's protection domain, switch context, and
// invoke the actual method. Return values are handled similarly."
//
// A Proxy satisfies obj.Instance, so the directory service can hand it
// out exactly where a local object would appear; callers cannot tell
// the difference except in cycles.
//
// Every cross-domain call goes through that one handler. A vectored
// group (obj.Batch via Proxy.DispatchBatch) crosses once for all its
// entries; a single call (MethodHandle.Call/CallInto or Invoke) is a
// group of one through the same handler. Only groups
// formed by obj.Batch pay the per-entry clock.OpBatchEntry decode
// charge and emit probe.KindBatchDispatch, so a single call costs
// exactly one crossing. The handler switches into the target just
// before the first entry that passes decode (routing key and grant
// capabilities) and back only if it switched, so a call rejected at
// decode pays no switch and no copy.
//
// The invocation plane is fully concurrent: every crossing carries its
// own pooled call frame as the trap frame's tag, so any number of
// goroutines may call through one proxy — even the same method of the
// same interface — without serializing on anything wider than the
// MMU's own short critical sections.
package proxy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/shm"
)

// Errors.
var (
	ErrClosed     = errors.New("proxy: proxy closed")
	ErrNoDelivery = errors.New("proxy: fault did not reach the call handler")
)

// DefaultEntryBase is where proxy entry pages are placed in the
// caller's address space when the factory is built with base 0.
const DefaultEntryBase mmu.VAddr = 0x7000_0000

// callFrame carries one crossing: a group of calls executed in the
// target's context behind a single fault. A single call is a group of
// one whose entry lives in the frame itself, so it takes exactly the
// path a vectored group does and allocates nothing for the call
// machinery. The kernel half (the fault handler) records each entry's
// results and writes err and done; the caller half owns the frame
// before and after the fault. Frames are pooled — steady-state
// invocation allocates nothing for the call machinery itself.
type callFrame struct {
	batch []obj.BatchCall  // the group; aliases one for a single call
	one   [1]obj.BatchCall // a single call's entry
	// grouped marks a group formed by obj.Batch: only those charge
	// OpBatchEntry per entry and emit KindBatchDispatch, so a single
	// call costs exactly one crossing and nothing more.
	grouped bool
	mode    obj.BatchMode // dispatch mode that formed the group (telemetry)
	err     error         // group-level error: the route or a switch leg failed
	done    bool
}

var framePool = sync.Pool{New: func() any { return new(callFrame) }}

func putFrame(fr *callFrame) {
	// Drop value references so pooled frames do not pin caller data.
	*fr = callFrame{}
	framePool.Put(fr)
}

// errForeignEntry fails a group entry whose handle was not resolved
// through the dispatching proxy.
var errForeignEntry = errors.New("proxy: batch entry not resolved through this proxy")

// Factory creates proxies, managing the entry-page address space of
// each client context.
type Factory struct {
	svc  *mem.Service
	base mmu.VAddr

	// grants, when set, validates shared-memory grant capabilities
	// passed as call arguments; see SetGrantRegistry. Written once at
	// boot, before the factory serves calls.
	grants *shm.Registry

	mu        sync.Mutex
	nextVA    map[mmu.ContextID]mmu.VAddr
	live      map[*Proxy]struct{}        // open proxies, for CloseTarget
	condemned map[mmu.ContextID]struct{} // targets being torn down
	// closeHooks run inside CloseTarget, right after the target is
	// condemned: subsystems whose per-domain teardown must be atomic
	// with the proxy condemn (the shared-memory registry) register
	// here, so one CloseTarget quiesces calls and mappings together.
	closeHooks []func(mmu.ContextID)
}

// NewFactory builds a factory allocating entry pages from base.
func NewFactory(svc *mem.Service, base mmu.VAddr) *Factory {
	if base == 0 {
		base = DefaultEntryBase
	}
	return &Factory{
		svc:       svc,
		base:      base,
		nextVA:    make(map[mmu.ContextID]mmu.VAddr),
		live:      make(map[*Proxy]struct{}),
		condemned: make(map[mmu.ContextID]struct{}),
	}
}

// CloseTarget closes every live proxy of this factory whose target
// lives in ctx, draining their in-flight calls, and condemns the
// context so the factory refuses to build new proxies onto it: when
// CloseTarget returns, no cross-domain call is executing in ctx
// through any of this factory's proxies, and none ever will again.
// Destroying a protection domain uses this to quiesce inbound calls —
// proxies held by other domains (or built by kernel-resident callers)
// that the dying domain's own bind cache knows nothing about. The
// condemn closes the remaining window, a racing New that would
// register its proxy after the snapshot below.
func (f *Factory) CloseTarget(ctx mmu.ContextID) {
	f.mu.Lock()
	f.condemned[ctx] = struct{}{}
	hooks := make([]func(mmu.ContextID), len(f.closeHooks))
	copy(hooks, f.closeHooks)
	var closing []*Proxy
	for p := range f.live {
		if p.targetCtx == ctx {
			closing = append(closing, p)
		}
	}
	f.mu.Unlock()
	// The hooks run after the condemn is visible but before the drain:
	// a pending segment attach into the dying domain either completed
	// before its registry's condemn (and was revoked by it) or fails
	// from here on — no fresh mapping appears after CloseTarget, just
	// as no fresh proxy route does.
	for _, h := range hooks {
		h(ctx)
	}
	for _, p := range closing {
		_ = p.Close()
	}
}

// OnCloseTarget registers a hook to run inside every future
// CloseTarget, after the target context is condemned. The kernel wires
// the shared-memory registry's CondemnDomainFrom here, so destroying a
// domain fails pending segment attaches through the same sweep that
// condemns its proxies.
func (f *Factory) OnCloseTarget(h func(mmu.ContextID)) {
	f.mu.Lock()
	f.closeHooks = append(f.closeHooks, h)
	f.mu.Unlock()
}

// SetGrantRegistry teaches the factory to validate shared-memory grant
// capabilities (shm.GrantRef arguments) before carrying a call across
// the boundary: a ref that is forged, revoked, or addressed to a
// domain other than the call's target fails the call up front, before
// any crossing cost is paid — the kernel validates capability words
// while decoding, not after delivering. Call once at boot, before the
// factory serves calls.
func (f *Factory) SetGrantRegistry(reg *shm.Registry) { f.grants = reg }

// checkGrantArgs validates any grant capabilities among a call's
// arguments for delivery to the target context. The scan is a type
// assertion per argument — no charge, exactly like arity validation.
func (p *Proxy) checkGrantArgs(args []any) error {
	reg := p.factory.grants
	if reg == nil {
		return nil
	}
	for _, a := range args {
		if ref, ok := a.(shm.GrantRef); ok {
			if err := reg.CheckDeliverable(ref, p.targetCtx); err != nil {
				return fmt.Errorf("proxy: grant argument: %w", err)
			}
		}
	}
	return nil
}

// Absolve forgets a condemned target context, bounding the condemned
// set for kernels that churn domains. Only safe once the context
// itself no longer exists (its MMU context destroyed): from then on
// every crossing into it fails at the MMU, so the condemn gate is
// redundant. A proxy built in the narrow absolved window is inert —
// its calls all fail "target domain gone" — and is evicted by the
// bind caches' staleness check.
func (f *Factory) Absolve(ctx mmu.ContextID) {
	f.mu.Lock()
	delete(f.condemned, ctx)
	f.mu.Unlock()
}

// allocEntryPage reserves one (never-mapped) page of entry slots in
// callerCtx.
func (f *Factory) allocEntryPage(callerCtx mmu.ContextID) mmu.VAddr {
	f.mu.Lock()
	defer f.mu.Unlock()
	va, ok := f.nextVA[callerCtx]
	if !ok {
		va = f.base
	}
	f.nextVA[callerCtx] = va + mmu.PageSize
	return va
}

// New builds a proxy in callerCtx for target living in targetCtx. One
// entry page per exported interface is reserved; each method occupies
// an 8-byte slot on its page.
func (f *Factory) New(callerCtx, targetCtx mmu.ContextID, target obj.Instance) (*Proxy, error) {
	if target == nil {
		return nil, errors.New("proxy: nil target")
	}
	p := &Proxy{
		factory:   f,
		class:     target.Class(),
		callerCtx: callerCtx,
		targetCtx: targetCtx,
		target:    target,
		ifaces:    make(map[string]*entryIface),
	}
	p.drainCv = sync.NewCond(&p.drainMu)
	for _, name := range target.InterfaceNames() {
		iv, ok := target.Iface(name)
		if !ok {
			continue
		}
		pageVA := f.allocEntryPage(callerCtx)
		// Entry slots are laid out by the declaration's slot indices,
		// the same numbering every bound interface dispatches by.
		ei := &entryIface{proxy: p, target: iv, pageVA: pageVA}
		if err := f.svc.RegisterFaultHandler(callerCtx, pageVA, p.handleFault); err != nil {
			_ = p.Close()
			return nil, fmt.Errorf("proxy: entry page for %q: %w", name, err)
		}
		p.ifaces[name] = ei
	}
	// The condemned check is atomic with the live-registration, so a
	// CloseTarget cannot slip between them: a proxy either lands in
	// the snapshot CloseTarget closes, or fails here.
	f.mu.Lock()
	if _, dead := f.condemned[targetCtx]; dead {
		f.mu.Unlock()
		_ = p.Close()
		return nil, fmt.Errorf("proxy: target domain %d destroyed", targetCtx)
	}
	f.live[p] = struct{}{}
	f.mu.Unlock()
	return p, nil
}

// Proxy is a cross-domain stand-in for an object in another protection
// domain. A proxy is safe for unbounded concurrent use: the interface
// map is immutable after construction, the call path keeps its state
// in per-call frames, and close/call coordination is a single atomic
// flag.
type Proxy struct {
	factory   *Factory
	class     string
	callerCtx mmu.ContextID
	targetCtx mmu.ContextID
	target    obj.Instance

	closed    atomic.Bool
	calls     atomic.Uint64
	crossings atomic.Uint64
	inflight  atomic.Int64 // fault handlers currently executing
	// drainMu/drainCv let any number of Close callers wait for
	// inflight to hit zero; the last handler out broadcasts.
	drainMu sync.Mutex
	drainCv *sync.Cond
	ifaces  map[string]*entryIface // immutable after New
}

// Class implements obj.Instance. Proxies are transparent: they present
// the target's class name.
func (p *Proxy) Class() string { return p.class }

// InterfaceNames implements obj.Instance.
func (p *Proxy) InterfaceNames() []string {
	out := make([]string, 0, len(p.ifaces))
	for n := range p.ifaces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Iface implements obj.Instance.
func (p *Proxy) Iface(name string) (obj.Invoker, bool) {
	ei, ok := p.ifaces[name]
	if !ok {
		return nil, false
	}
	return ei, true
}

// Calls reports the number of cross-domain invocations performed
// (every entry of a vectored call counts).
func (p *Proxy) Calls() uint64 {
	return p.calls.Load()
}

// Crossings reports the number of protection crossings this proxy has
// actually paid: a single call is one, a vectored group of N calls is
// also one. Calls/Crossings is therefore the amortization achieved —
// 1.0 for unbatched traffic, the batch size for perfectly vectored
// traffic. The mixed-target P8 tests pin grouped dispatch to exactly
// one crossing per distinct target with this counter.
func (p *Proxy) Crossings() uint64 {
	return p.crossings.Load()
}

// DispatchBatch implements obj.Batcher: it carries a group of calls
// resolved through this proxy across the domain boundary in a single
// crossing — one CPU lease, one page fault (the trap cost charged
// once), one context-switch pair — executing each entry in the
// target's context with per-entry results and errors. Error semantics
// match a run of single calls: a closed proxy fails every entry with
// ErrClosed, a dead target context fails them with "target domain
// gone", and a failing method or bad grant fails only its own entry.
// The group-level error, if any, is returned as well so Batch.Run can
// surface it. mode is recorded in the flight recorder's batch-dispatch
// event.
//
//paramecium:hotpath
func (p *Proxy) DispatchBatch(calls []obj.BatchCall, mode obj.BatchMode) error {
	if len(calls) == 0 {
		return nil
	}
	fr := framePool.Get().(*callFrame)
	fr.batch, fr.grouped, fr.mode = calls, true, mode
	err := p.cross(fr)
	putFrame(fr)
	return err
}

// call carries one call through h across the boundary as a group of
// one: the crossing a Batch takes, minus the batch's per-entry decode
// charge and dispatch event.
//
//paramecium:hotpath
func (p *Proxy) call(h obj.MethodHandle, out, args []any) ([]any, error) {
	fr := framePool.Get().(*callFrame)
	fr.one[0] = obj.NewBatchCall(h, out, args...)
	fr.batch = fr.one[:]
	gerr := p.cross(fr)
	res, err := fr.one[0].Results()
	putFrame(fr)
	if gerr != nil && gerr != err {
		// The call ran but its return leg failed: report both.
		err = errors.Join(err, gerr)
	}
	return res, err
}

// cross performs one crossing for the frame's group: it references the
// first entry's slot, taking the page fault that drives the kernel's
// call handler. The call frame itself rides in the trap frame's tag, so
// the handler finds this group's frame no matter how many calls are in
// flight on the same page; the remaining entries cross without
// faulting again.
//
//paramecium:hotpath
func (p *Proxy) cross(fr *callFrame) error {
	calls := fr.batch
	if p.closed.Load() {
		return failAll(calls, ErrClosed)
	}
	// The key is checked, not asserted: a handle built by hand against
	// this proxy as Batcher (possible through the public
	// NewBatchableHandle) must fail its group, not panic the fault path.
	key, ok := calls[0].Key().(batchKey)
	if !ok {
		return failAll(calls, errForeignEntry)
	}
	// Touch the entry slot: unmapped, so this page-faults into the
	// kernel, whose per-page handler performs the actual invocation.
	// The crossing claims a virtual CPU for its duration: its
	// entry-page translation, crossing charges and any flush-on-switch
	// TLB loss all land on that CPU, so concurrent calls on distinct
	// CPUs keep disjoint TLB state — per-CPU locality is measurable,
	// not just switch counts.
	lease := p.factory.svc.Machine().AcquireCPU()
	_ = lease.CPU().TouchTagged(p.callerCtx, key.slotVA, mmu.AccessExec, fr)
	lease.Release()

	if !fr.done {
		// The handler never saw the group. Either the proxy was closed
		// (its fault handler unregistered) between the closed check and
		// the touch, or the fault genuinely went astray.
		if p.closed.Load() {
			return failAll(calls, ErrClosed)
		}
		return failAll(calls, fmt.Errorf("%w: %s, group of %d", ErrNoDelivery, calls[0].Decl().Name, len(calls)))
	}
	p.calls.Add(uint64(len(calls)))
	p.crossings.Add(1)
	return fr.err
}

// failAll fails every entry of a group with err and returns it.
func failAll(calls []obj.BatchCall, err error) error {
	for i := range calls {
		calls[i].SetResult(nil, err)
	}
	return err
}

// TargetContext reports the protection domain of the real object.
func (p *Proxy) TargetContext() mmu.ContextID { return p.targetCtx }

// Closed reports whether the proxy has been closed. Bind caches use it
// to evict dead entries (a proxy closed by CloseTarget when its target
// domain died) instead of handing them out forever.
func (p *Proxy) Closed() bool { return p.closed.Load() }

// Close releases the proxy's entry pages and fault handlers, then
// waits for in-flight cross-domain calls to drain: when Close returns,
// no call is executing in the target's domain, so the caller may
// safely destroy the target context and free target state. Calls
// racing with Close either complete normally or fail with ErrClosed.
//
// A Close that loses the race to a concurrent closer still waits for
// the drain before returning ErrClosed, so teardown sequenced after
// any returned Close — winner or loser — is safe.
//
// Close must not be called from inside a target method of this same
// proxy: the fault handler runs on the calling goroutine, so its own
// in-flight count could never drain — the same rule as
// sync.WaitGroup.Wait from inside a worker. Likewise anything Close
// transitively blocks on (core.Kernel.DestroyDomain closes proxies
// outside the domain lock for exactly this reason).
func (p *Proxy) Close() error {
	won := p.closed.CompareAndSwap(false, true)
	if won {
		p.factory.mu.Lock()
		delete(p.factory.live, p)
		p.factory.mu.Unlock()
		for _, ei := range p.ifaces {
			_ = p.factory.svc.UnregisterFaultHandler(p.callerCtx, ei.pageVA)
		}
	}
	// Quiesce. Handlers that entered before closed was set are counted
	// in inflight; handlers entering after will observe closed and do
	// no target-side work, so once the counter drains no call is (or
	// will be) executing in the target domain. The last handler out
	// broadcasts under drainMu, so any number of Close callers block
	// here without spinning or losing wakeups.
	p.drainMu.Lock()
	for p.inflight.Load() != 0 {
		p.drainCv.Wait()
	}
	p.drainMu.Unlock()
	if !won {
		return ErrClosed
	}
	return nil
}

// entryIface is one interface's entry page. It holds no per-call
// state: every invocation's frame travels in its own trap frame for
// exactly the duration of its fault, so concurrent calls through
// the same interface — or the same method — never serialize here.
type entryIface struct {
	proxy  *Proxy
	target obj.Invoker
	pageVA mmu.VAddr
}

// Decl implements obj.Invoker.
func (e *entryIface) Decl() *obj.InterfaceDecl { return e.target.Decl() }

// State implements obj.Invoker. Cross-domain state pointers are not
// addressable from the caller's domain; proxies return nil, exactly as
// a hardware implementation would have to.
func (e *entryIface) State() any { return nil }

// batchKey is the proxy's private routing key carried by each of its
// resolved handles (obj.NewBatchableHandle): the pre-resolved dispatch
// into the target and the entry slot a vectored group faults on.
type batchKey struct {
	th     obj.MethodHandle
	slotVA mmu.VAddr
}

// Invoke implements obj.Invoker: it resolves the method and calls it
// through the resolved handle, taking the page fault that drives the
// cross-domain call.
func (e *entryIface) Invoke(method string, args ...any) ([]any, error) {
	h, err := e.Resolve(method)
	if err != nil {
		return nil, err
	}
	return h.Call(args...)
}

// Resolve implements obj.Invoker: the entry slot's address and the
// dispatch into the target are computed once, and the returned handle
// faults straight into the kernel on every Call with no per-call
// method lookup on either side of the boundary. One handle may be
// shared by any number of goroutines. A call through the handle is a
// group of one; a Batch groups consecutive calls through this proxy
// into a single crossing (Proxy.DispatchBatch).
func (e *entryIface) Resolve(method string) (obj.MethodHandle, error) {
	md, ok := e.target.Decl().Method(method)
	if !ok {
		return obj.MethodHandle{}, fmt.Errorf("%w: %q.%s", obj.ErrNoMethod, e.target.Decl().Name, method)
	}
	th, err := e.target.Resolve(method)
	if err != nil {
		return obj.MethodHandle{}, err
	}
	key := batchKey{th: th, slotVA: e.pageVA + mmu.VAddr(md.Slot()*8)}
	// The handle carries itself into its group-of-one entry, so a
	// single call routes exactly like a Batch entry would.
	var h obj.MethodHandle
	h = obj.NewBatchableHandle(md, nil, func(out []any, args ...any) ([]any, error) {
		return e.proxy.call(h, out, args)
	}, e.proxy, key)
	return h, nil
}

// handleFault is the per-page fault handler: the kernel half of every
// cross-domain call, single or vectored. For each entry of the frame's
// group it decodes the entry (its routing key and any grant
// capabilities), maps in the arguments (charged as word copies),
// invokes the real method through the entry's pre-resolved handle and
// copies out the results. It switches to the target's context just
// before the first entry that passes decode and back once after the
// last, so a group rejected at decode pays no switch and no copy. A
// failing entry records its error and the rest still run; only a dead
// target context fails the remaining entries as a whole. The handler
// is reentrant: concurrent faults on the same entry page dispatch
// independently, each finding its own frame in the trap frame's tag.
//
//paramecium:hotpath
func (p *Proxy) handleFault(f *hw.TrapFrame) bool {
	// Entered before the closed-check so Close can quiesce: if closed
	// is observed set here, the handler touches nothing of the target.
	p.inflight.Add(1)
	defer p.exitHandler()
	if p.closed.Load() {
		return false
	}
	fr, _ := f.Tag.(*callFrame)
	if fr == nil {
		// A stray touch of the entry page (untagged, or tagged with
		// something other than a call frame): not a proxy call, so
		// leave the fault unresolved.
		return false
	}
	machine := p.factory.svc.Machine()
	meter := machine.Meter
	caller := uint32(p.callerCtx)
	if fr.grouped && probe.Enabled() {
		meter.Emit(int(f.CPU), probe.KindBatchDispatch, caller, uint64(len(fr.batch)), uint64(fr.mode))
	}
	// The call runs in the caller's domain and crosses into the
	// target's: one switch there, one back. Each leg is validated and
	// charged by CrossSwitchOn against the calling CPU (the one the
	// fault was taken on, carried in the trap frame) without touching
	// any CPU's context register — every in-flight crossing is its own
	// virtual processor, so concurrent calls never observe each other's
	// transient context and the switch charges are deterministic.
	crossing := p.callerCtx != p.targetCtx
	switched := false
	for i := range fr.batch {
		bc := &fr.batch[i]
		key, ok := bc.Key().(batchKey)
		if !ok {
			// A hand-built handle smuggled into the group: fail the
			// entry, never panic inside the fault handler.
			bc.SetResult(nil, errForeignEntry)
			continue
		}
		// A grant capability that is forged, revoked, or not addressed
		// to the target fails its entry before anything is paid — the
		// kernel rejects bad capability words at decode.
		if err := p.checkGrantArgs(bc.Args()); err != nil {
			bc.SetResult(nil, err)
			continue
		}
		if crossing && !switched {
			if probe.Enabled() {
				meter.Emit(int(f.CPU), probe.KindCrossingBegin, caller, uint64(p.targetCtx), uint64(len(fr.batch)))
			}
			if err := machine.MMU.CrossSwitchOn(f.CPU, p.targetCtx); err != nil {
				fr.err = failAll(fr.batch[i:], fmt.Errorf("proxy: target domain gone: %w", err))
				break
			}
			switched = true
		}
		if fr.grouped {
			meter.ChargeFor(caller, clock.OpBatchEntry)
		}
		// Map in arguments. A shared-memory grant crosses as a single
		// capability word (wordsOf charges its 8 bytes like any
		// scalar): the segment's payload never touches the invocation
		// plane. The caller pays every charge of its own crossing.
		meter.ChargeNFor(caller, clock.OpCopyWord, wordsOf(bc.Args()))
		// Dispatch through the entry's result buffer, if any: the
		// target's results land in caller-owned storage without an
		// allocation. Return values are handled similarly to
		// arguments, and only the appended results crossed the
		// boundary, so only they are charged (on error res is nil).
		out := bc.Out()
		res, err := key.th.CallInto(out, bc.Args()...)
		if len(res) >= len(out) {
			meter.ChargeNFor(caller, clock.OpCopyWord, wordsOf(res[len(out):]))
		}
		bc.SetResult(res, err)
	}
	if switched {
		if err := machine.MMU.CrossSwitchOn(f.CPU, p.callerCtx); err != nil {
			// The caller's domain was destroyed while the group was in
			// flight; there is no context to return to. The per-entry
			// results stand, and the group-level error reports the lost
			// return leg.
			fr.err = fmt.Errorf("proxy: caller domain gone: %w", err)
		}
		if probe.Enabled() {
			meter.Emit(int(f.CPU), probe.KindCrossingEnd, caller, uint64(p.targetCtx), uint64(len(fr.batch)))
		}
	}
	fr.done = true
	// The entry page stays unmapped (the next call must fault again),
	// so the fault is reported as unresolved; the caller picks the
	// results out of the frame.
	return false
}

// exitHandler decrements the in-flight handler count, waking Close
// callers draining the proxy when the last handler leaves. Taking
// drainMu around the broadcast pairs with the counter re-check under
// the same mutex in Close, so a wakeup cannot slip between a waiter's
// check and its wait.
func (p *Proxy) exitHandler() {
	if p.inflight.Add(-1) == 0 && p.closed.Load() {
		p.drainMu.Lock()
		p.drainCv.Broadcast()
		p.drainMu.Unlock()
	}
}

// wordsOf estimates the 8-byte words needed to carry a value list
// across domains.
func wordsOf(vals []any) uint64 {
	var bytes uint64
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			bytes += 8
		case string:
			bytes += uint64(len(x)) + 8
		case []byte:
			bytes += uint64(len(x)) + 8
		case []any:
			bytes += 8 * uint64(len(x))
		default:
			bytes += 8
		}
	}
	return (bytes + 7) / 8
}

var _ obj.Instance = (*Proxy)(nil)
var _ obj.Invoker = (*entryIface)(nil)
var _ obj.Batcher = (*Proxy)(nil)
