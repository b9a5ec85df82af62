// Package mem implements the nucleus' memory management service: "the
// management of virtual and physical pages, and MMU contexts ... Pages
// can be allocated exclusively or shared among different protection
// domains. Individual virtual pages can have fault call-backs
// associated with them." The service also provides I/O space
// allocation for device drivers: register regions can be granted
// exclusively (private device registers) or shared (on-device buffers
// visible to several contexts).
//
// The per-page fault call-back is the load-bearing primitive: the
// cross-domain proxy mechanism (package proxy), demand paging and
// copy-on-write (package vmm) are all built on it.
package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
)

// FaultHandler resolves a fault on a registered page. Returning true
// retries the faulting access.
type FaultHandler func(f *hw.TrapFrame) bool

// IOMode selects exclusive or shared I/O space allocation.
type IOMode int

// I/O allocation modes.
const (
	IOExclusive IOMode = iota
	IOShared
)

func (m IOMode) String() string {
	if m == IOExclusive {
		return "exclusive"
	}
	return "shared"
}

// Errors.
var (
	ErrPageBusy    = errors.New("mem: page already mapped")
	ErrNoPage      = errors.New("mem: page not managed by this service")
	ErrIOConflict  = errors.New("mem: conflicting I/O space allocation")
	ErrNoIORegion  = errors.New("mem: no such I/O region")
	ErrNoGrant     = errors.New("mem: grant not active")
	ErrHandlerBusy = errors.New("mem: page already has a fault handler")
)

type pageKey struct {
	ctx mmu.ContextID
	vpn uint64
}

// Service is the memory management service.
type Service struct {
	machine *hw.Machine

	// mu guards the page, handler and grant tables. Fault dispatch —
	// the cross-domain invocation hot path — only read-locks it, and
	// the registered call-back runs outside the lock entirely, so any
	// number of faults (including on the same page) dispatch
	// concurrently and handlers may re-enter the service.
	mu       sync.RWMutex
	pages    map[pageKey]uint64 // mapped page -> frame
	handlers map[pageKey]FaultHandler
	grants   map[string][]*IOGrant // region name -> active grants
	arenas   map[mmu.ContextID]*vaArena

	faultsResolved atomic.Uint64
	faultsUnknown  atomic.Uint64
}

// New builds the service and installs it as the machine's page-fault
// trap handler.
func New(machine *hw.Machine) *Service {
	s := &Service{
		machine:  machine,
		pages:    make(map[pageKey]uint64),
		handlers: make(map[pageKey]FaultHandler),
		grants:   make(map[string][]*IOGrant),
		arenas:   make(map[mmu.ContextID]*vaArena),
	}
	machine.SetTrapHandler(hw.TrapPageFault, s.handleFault)
	return s
}

// Machine exposes the underlying machine (used by higher layers).
func (s *Service) Machine() *hw.Machine { return s.machine }

// handleFault dispatches a page fault to the per-page call-back, if
// one is registered.
func (s *Service) handleFault(f *hw.TrapFrame) bool {
	key := pageKey{ctx: f.Ctx, vpn: f.Addr.VPN()}
	s.mu.RLock()
	h := s.handlers[key]
	s.mu.RUnlock()
	if h == nil {
		s.faultsUnknown.Add(1)
		return false
	}
	resolved := h(f)
	if resolved {
		s.faultsResolved.Add(1)
	}
	return resolved
}

// NewDomain creates a fresh protection domain (MMU context).
func (s *Service) NewDomain() mmu.ContextID {
	return s.machine.MMU.NewContext()
}

// DestroyDomain tears down a protection domain: every page it owns is
// unmapped and unreferenced, its fault handlers are dropped, its I/O
// grants are released, and the MMU context is destroyed. Teardown
// initiates from the boot CPU, where the nucleus runs; remote CPUs
// whose TLBs still hold the domain's entries are charged shootdowns by
// the MMU.
func (s *Service) DestroyDomain(ctx mmu.ContextID) error {
	s.mu.Lock()
	var keys []pageKey
	for k := range s.pages {
		if k.ctx == ctx {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		frame := s.pages[k]
		delete(s.pages, k)
		delete(s.handlers, k)
		_ = s.machine.MMU.UnmapOn(mmu.BootCPU, ctx, mmu.VAddr(k.vpn<<mmu.PageShift))
		_, _ = s.machine.Phys.Unref(frame)
	}
	for k := range s.handlers {
		if k.ctx == ctx {
			delete(s.handlers, k)
		}
	}
	for name, gs := range s.grants {
		kept := gs[:0]
		for _, g := range gs {
			if g.Ctx != ctx {
				kept = append(kept, g)
			}
		}
		s.grants[name] = kept
	}
	delete(s.arenas, ctx)
	s.mu.Unlock()
	return s.machine.MMU.DestroyContextFrom(mmu.BootCPU, ctx)
}

// ShareBase is where kernel-brokered mappings — shared-memory segments
// and their grantee-side attachments — are placed in a context's
// address space when the caller does not pick addresses itself. It sits
// well below the proxy entry-page arena (0x7000_0000), so brokered
// data mappings and invocation entry slots never collide.
const ShareBase mmu.VAddr = 0x5000_0000

// vaArena is one context's reservation state: a bump pointer plus a
// free list of released ranges keyed by length, so churn (segments and
// attachments granted and revoked over and over) recycles address
// space instead of marching the bump pointer toward the proxy arena.
type vaArena struct {
	next mmu.VAddr
	free map[int][]mmu.VAddr // npages -> released bases
}

// ReserveVA reserves a contiguous range of n pages in ctx's address
// space, starting at ShareBase, and returns its base address. Nothing
// is mapped: reservation only guarantees that no other outstanding
// reservation in the same context overlaps the range. Released ranges
// (ReleaseVA) of the same length are reused exact-fit before the
// arena grows. The arena is forgotten when the domain is destroyed.
func (s *Service) ReserveVA(ctx mmu.ContextID, npages int) mmu.VAddr {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arenas[ctx]
	if a == nil {
		a = &vaArena{next: ShareBase, free: make(map[int][]mmu.VAddr)}
		s.arenas[ctx] = a
	}
	if bases := a.free[npages]; len(bases) > 0 {
		va := bases[len(bases)-1]
		a.free[npages] = bases[:len(bases)-1]
		return va
	}
	va := a.next
	a.next += mmu.VAddr(npages * mmu.PageSize)
	return va
}

// ReleaseVA returns a range previously obtained from ReserveVA to the
// context's free list for reuse. The caller must have unmapped the
// range first; double releases and foreign ranges are the caller's
// bug, exactly like a heap free.
func (s *Service) ReleaseVA(ctx mmu.ContextID, base mmu.VAddr, npages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arenas[ctx]
	if a == nil {
		return // domain already torn down; its whole arena is gone
	}
	a.free[npages] = append(a.free[npages], base)
}

// AllocPageOn allocates a fresh exclusive page at va in ctx, initiated
// from the given CPU, so shootdown cycles are charged from the true
// initiator's perspective. On a NUMA machine the fresh frame's home
// node follows first-touch policy: the page is homed on the initiating
// CPU's node, so the allocator's own accesses are local and everyone
// else's pay the node distance.
func (s *Service) AllocPageOn(initiator mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, perm mmu.Perm) error {
	node := int32(mmu.NoNode)
	if s.machine.Topology() != nil {
		node = s.machine.NodeOfCPU(initiator)
	}
	return s.allocPage(initiator, node, ctx, va, perm)
}

// AllocPageOnNode is AllocPageOn with an explicit home node: the frame
// is homed on the named NUMA node regardless of who allocates it, the
// policy for services that place producer/consumer buffers
// deliberately. Node -1 (mmu.NoNode) leaves the frame untagged, so
// no access to it is ever charged as remote. The map itself initiates
// from the boot CPU.
func (s *Service) AllocPageOnNode(node int32, ctx mmu.ContextID, va mmu.VAddr, perm mmu.Perm) error {
	if t := s.machine.Topology(); t != nil && (node < -1 || int(node) >= t.Nodes) {
		return fmt.Errorf("mem: no NUMA node %d (machine has %d)", node, t.Nodes)
	}
	return s.allocPage(mmu.BootCPU, node, ctx, va, perm)
}

// allocPage is the shared allocation path: fresh frame, map from the
// initiator, home-node tag.
func (s *Service) allocPage(initiator mmu.CPUID, node int32, ctx mmu.ContextID, va mmu.VAddr, perm mmu.Perm) error {
	key := pageKey{ctx: ctx, vpn: va.VPN()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.pages[key]; busy {
		return fmt.Errorf("%w: ctx %d va %#x", ErrPageBusy, ctx, uint64(va))
	}
	frame, err := s.machine.Phys.AllocFrame()
	if err != nil {
		return err
	}
	if err := s.machine.MMU.MapOn(initiator, ctx, va, frame, perm); err != nil {
		_, _ = s.machine.Phys.Unref(frame)
		return err
	}
	if node != mmu.NoNode {
		_ = s.machine.Phys.SetFrameNode(frame, node)
	}
	s.pages[key] = frame
	return nil
}

// AllocRange allocates n consecutive exclusive pages starting at va,
// initiated from the boot CPU.
func (s *Service) AllocRange(ctx mmu.ContextID, va mmu.VAddr, n int, perm mmu.Perm) error {
	for i := 0; i < n; i++ {
		if err := s.AllocPageOn(mmu.BootCPU, ctx, va+mmu.VAddr(i*mmu.PageSize), perm); err != nil {
			return fmt.Errorf("mem: page %d of %d: %w", i, n, err)
		}
	}
	return nil
}

// SharePageOn maps the page at fromVA in fromCtx into toCtx at toVA
// with the given permissions, sharing the underlying frame, initiated
// from the given CPU so shootdown cycles are charged from the true
// initiator's perspective. "Pages can be allocated exclusively or
// shared among different protection domains."
func (s *Service) SharePageOn(initiator mmu.CPUID, fromCtx mmu.ContextID, fromVA mmu.VAddr, toCtx mmu.ContextID, toVA mmu.VAddr, perm mmu.Perm) error {
	fromKey := pageKey{ctx: fromCtx, vpn: fromVA.VPN()}
	toKey := pageKey{ctx: toCtx, vpn: toVA.VPN()}
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, ok := s.pages[fromKey]
	if !ok {
		return fmt.Errorf("%w: ctx %d va %#x", ErrNoPage, fromCtx, uint64(fromVA))
	}
	if _, busy := s.pages[toKey]; busy {
		return fmt.Errorf("%w: ctx %d va %#x", ErrPageBusy, toCtx, uint64(toVA))
	}
	if err := s.machine.Phys.Ref(frame); err != nil {
		return err
	}
	if err := s.machine.MMU.MapOn(initiator, toCtx, toVA, frame, perm); err != nil {
		_, _ = s.machine.Phys.Unref(frame)
		return err
	}
	s.pages[toKey] = frame
	return nil
}

// FreePageOn unmaps va from ctx and drops the frame reference,
// initiated from the given CPU so shootdown cycles are charged from
// the true initiator's perspective.
func (s *Service) FreePageOn(initiator mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr) error {
	key := pageKey{ctx: ctx, vpn: va.VPN()}
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, ok := s.pages[key]
	if !ok {
		return fmt.Errorf("%w: ctx %d va %#x", ErrNoPage, ctx, uint64(va))
	}
	delete(s.pages, key)
	delete(s.handlers, key)
	if err := s.machine.MMU.UnmapOn(initiator, ctx, va); err != nil {
		return err
	}
	_, err := s.machine.Phys.Unref(frame)
	return err
}

// ProtectOn changes the permissions of a managed page, initiated from
// the given CPU so shootdown cycles are charged from the true
// initiator's perspective.
func (s *Service) ProtectOn(initiator mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, perm mmu.Perm) error {
	key := pageKey{ctx: ctx, vpn: va.VPN()}
	s.mu.Lock()
	_, ok := s.pages[key]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: ctx %d va %#x", ErrNoPage, ctx, uint64(va))
	}
	return s.machine.MMU.ProtectOn(initiator, ctx, va, perm)
}

// Frame reports the frame backing a managed page.
func (s *Service) Frame(ctx mmu.ContextID, va mmu.VAddr) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.pages[pageKey{ctx: ctx, vpn: va.VPN()}]
	return f, ok
}

// RegisterFaultHandler attaches a fault call-back to the page at va in
// ctx. The page need not be mapped — registering a handler on an
// unmapped page is exactly how demand paging and proxies work.
func (s *Service) RegisterFaultHandler(ctx mmu.ContextID, va mmu.VAddr, h FaultHandler) error {
	if h == nil {
		return errors.New("mem: nil fault handler")
	}
	key := pageKey{ctx: ctx, vpn: va.VPN()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[key]; dup {
		return fmt.Errorf("%w: ctx %d va %#x", ErrHandlerBusy, ctx, uint64(va))
	}
	s.handlers[key] = h
	return nil
}

// UnregisterFaultHandler removes a page's fault call-back. It prevents
// new dispatches but does not wait for call-backs already dispatched:
// fault dispatch runs the handler outside the service's lock, so a
// handler may still be executing when Unregister returns. A caller
// that needs quiescence before tearing down handler-owned state must
// track its own in-flight calls — as proxy.Proxy.Close does with its
// in-flight counter.
func (s *Service) UnregisterFaultHandler(ctx mmu.ContextID, va mmu.VAddr) error {
	key := pageKey{ctx: ctx, vpn: va.VPN()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[key]; !ok {
		return fmt.Errorf("%w: ctx %d va %#x", ErrNoPage, ctx, uint64(va))
	}
	delete(s.handlers, key)
	return nil
}

// FaultStats reports resolved and unresolved fault counts.
func (s *Service) FaultStats() (resolved, unknown uint64) {
	return s.faultsResolved.Load(), s.faultsUnknown.Load()
}

// IOGrant is an active I/O space allocation: the right of a context to
// drive a device register region.
type IOGrant struct {
	Region *hw.IORegion
	Ctx    mmu.ContextID
	Mode   IOMode
	name   string
	active bool
}

// AllocIOSpace grants ctx access to the named register region.
// Exclusive grants conflict with any other grant on the region; shared
// grants coexist with other shared grants.
func (s *Service) AllocIOSpace(ctx mmu.ContextID, regionName string, mode IOMode) (*IOGrant, error) {
	region, ok := s.machine.IORegionByName(regionName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoIORegion, regionName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	existing := s.grants[regionName]
	for _, g := range existing {
		if mode == IOExclusive || g.Mode == IOExclusive {
			return nil, fmt.Errorf("%w: %q already granted %s to ctx %d",
				ErrIOConflict, regionName, g.Mode, g.Ctx)
		}
	}
	grant := &IOGrant{Region: region, Ctx: ctx, Mode: mode, name: regionName, active: true}
	s.grants[regionName] = append(existing, grant)
	return grant, nil
}

// ReleaseIOSpace returns a grant.
func (s *Service) ReleaseIOSpace(g *IOGrant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g == nil || !g.active {
		return ErrNoGrant
	}
	gs := s.grants[g.name]
	for i, cur := range gs {
		if cur == g {
			s.grants[g.name] = append(gs[:i], gs[i+1:]...)
			g.active = false
			return nil
		}
	}
	return ErrNoGrant
}

// GrantCount reports the number of active grants on a region.
func (s *Service) GrantCount(regionName string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.grants[regionName])
}
