// Package shm is the shared-memory segment subsystem: the zero-copy
// bulk data plane between protection domains. Paramecium's contexts
// "communicate through shared memory and events"; the invocation plane
// (package proxy) carries control transfers and small argument lists,
// while this package carries the bulk bytes — a domain creates a
// segment of refcounted physical frames, grants it to another domain
// with rights, the grantee maps it into its own MMU context, and the
// data never crosses the invocation plane at all.
//
// The capability discipline mirrors the paper's memory service:
//
//   - A grant is an unforgeable 64-bit reference (GrantRef) addressed
//     to one grantee context with RO or RW rights. Refs are drawn from
//     a 64-bit space, so they can cross the invocation plane as a
//     single capability word and cannot be guessed by enumeration.
//   - Attaching maps the segment's frames into the grantee's context
//     through the memory service's refcounted share path; the cost
//     model charges the mapping machinery (page-table writes, later
//     TLB fills and shootdowns), never the payload bytes.
//   - Revocation unmaps the segment from the grantee's context,
//     paying the per-remote-CPU TLB shootdown charge for every page a
//     remote CPU still held cached, and leaves a tombstone so later
//     attaches and accesses fail with the distinct ErrRevoked rather
//     than a generic lookup error.
//   - Destroying a protection domain condemns it here via the same
//     teardown sweep that kills its names and proxies: grants TO the
//     dying domain are revoked, segments it OWNS are destroyed
//     (revoking their grants in every other domain), and no fresh
//     mapping can appear once the sweep has run.
package shm

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/clock"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/probe"
)

// Rights is the access a grant confers on a segment.
type Rights uint8

// Grant rights. RO maps the segment read-only in the grantee; RW maps
// it read-write. The owner always has read-write access.
const (
	RO Rights = iota
	RW
)

func (r Rights) String() string {
	if r == RO {
		return "ro"
	}
	return "rw"
}

// perm translates grant rights into MMU page protections.
func (r Rights) perm() mmu.Perm {
	if r == RW {
		return mmu.PermRead | mmu.PermWrite
	}
	return mmu.PermRead
}

// Errors.
var (
	// ErrNoGrant reports a reference that names no grant this registry
	// ever issued — a forged or mistyped capability.
	ErrNoGrant = errors.New("shm: no such grant")
	// ErrRevoked reports an operation on a revoked grant: the segment
	// was unmapped from the grantee (or its owner destroyed it, or a
	// domain teardown swept it). Distinct from ErrNoGrant so a grantee
	// can tell "my access was withdrawn" from "this ref was never real".
	ErrRevoked = errors.New("shm: grant revoked")
	// ErrWrongDomain reports a grant presented by (or delivered to) a
	// domain other than its grantee. Grants are not transferable.
	ErrWrongDomain = errors.New("shm: grant addressed to another domain")
	// ErrCondemned reports an attach into a domain that is being
	// destroyed: no fresh mapping may appear once teardown has begun.
	ErrCondemned = errors.New("shm: domain being destroyed")
	// ErrDestroyed reports an operation on a destroyed segment.
	ErrDestroyed = errors.New("shm: segment destroyed")
	// ErrReadOnly reports a store through a read-only grant.
	ErrReadOnly = errors.New("shm: grant is read-only")
	// ErrBounds reports an access outside the segment.
	ErrBounds = errors.New("shm: access outside segment")
)

// SegmentID names a segment within its registry.
type SegmentID uint64

// GrantRef is the unforgeable capability naming one grant. It is a
// plain 64-bit word, so it crosses the invocation plane as a single
// copied word — the whole point of the zero-copy path: the capability
// crosses, the data does not. The zero ref is never issued.
type GrantRef uint64

// Registry brokers segments and grants over one memory service. All
// methods are safe for concurrent use; one mutex serializes the
// control plane (create/grant/attach/revoke — none of which are
// per-byte operations). The data plane (Attachment and Segment
// Load/Store) never touches the registry lock: each grant and each
// segment carries its own access lock, held shared for the duration
// of a copy — pinning the mapping so a racing revoke cannot free the
// frames out from under it — and exclusively by revocation. Bulk
// transfers over unrelated grants proceed fully in parallel.
type Registry struct {
	svc *mem.Service

	mu        sync.Mutex
	rnd       *clock.Rand
	segs      map[SegmentID]*Segment
	grants    map[GrantRef]*Grant
	condemned map[mmu.ContextID]struct{}
	nextSeg   uint64
	// tombs lists revoked grants still held in the grants map so later
	// presentations of their refs fail ErrRevoked rather than ErrNoGrant,
	// oldest first. Retention is bounded: a tombstone is dropped when its
	// segment is destroyed (the whole object is gone) or when the list
	// exceeds maxTombs (the oldest is evicted). A dropped tombstone's ref
	// reports ErrNoGrant — indistinguishable from a forged ref, the same
	// degradation a real capability system accepts when it recycles
	// revocation state.
	tombs    []GrantRef
	maxTombs int
}

// DefaultMaxTombstones bounds how many revoked-grant tombstones a
// registry retains for better error reporting before evicting the
// oldest.
const DefaultMaxTombstones = 1024

// NewRegistry builds a segment registry brokering over svc.
func NewRegistry(svc *mem.Service) *Registry {
	return &Registry{
		svc:       svc,
		rnd:       clock.NewRand(0x5E6_4EF5),
		segs:      make(map[SegmentID]*Segment),
		grants:    make(map[GrantRef]*Grant),
		condemned: make(map[mmu.ContextID]struct{}),
		maxTombs:  DefaultMaxTombstones,
	}
}

// SetMaxTombstones adjusts the tombstone retention cap. A cap of zero
// retains nothing: revoked refs immediately report ErrNoGrant.
func (r *Registry) SetMaxTombstones(n int) {
	if n < 0 {
		n = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxTombs = n
	r.evictTombsLocked()
}

// Tombstones reports how many revoked-grant tombstones the registry
// currently retains.
func (r *Registry) Tombstones() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tombs)
}

// Grants reports the total number of grant records the registry holds:
// live grants plus retained tombstones. Bounded churn keeps this from
// growing monotonically.
func (r *Registry) Grants() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.grants)
}

// Segment is N pages of refcounted shared frames owned by one
// protection domain. The owner reads and writes it directly (Load and
// Store below); other domains reach it only through grants.
type Segment struct {
	reg   *Registry
	id    SegmentID
	owner mmu.ContextID
	base  mmu.VAddr
	pages int

	// accessMu pins the owner-side mapping during Load/Store (held
	// shared) against Destroy (held exclusive, under reg.mu), so a
	// teardown cannot release frames under an in-flight copy.
	// destroyed is written under both locks, readable under either.
	accessMu  sync.RWMutex
	destroyed bool

	// Guarded by reg.mu.
	grants map[GrantRef]*Grant
}

// Grant is the right of one grantee context to map one segment. It is
// named by an unforgeable GrantRef; the struct itself stays inside the
// registry — only the ref crosses domains.
type Grant struct {
	reg    *Registry
	ref    GrantRef
	seg    *Segment
	to     mmu.ContextID
	rights Rights

	// accessMu pins the grantee-side mapping during Attachment
	// Load/Store (held shared) against revocation (held exclusive,
	// under reg.mu): an in-flight copy completes before the frames are
	// unmapped and unreferenced, so a racing revoke can never expose a
	// recycled frame to a stale copy. revoked is written under both
	// locks, readable under either.
	accessMu sync.RWMutex
	revoked  bool

	// Guarded by reg.mu.
	mapped bool
	base   mmu.VAddr // grantee-side base when mapped
	att    *Attachment
}

// Attachment is a grantee's live mapping of a segment. Load and Store
// access the shared frames through the grantee's own MMU context —
// translations, TLB traffic and protection faults are all charged on
// the grantee's side, exactly as if the grantee touched the memory
// itself (it is).
type Attachment struct {
	g *Grant
}

// NewSegment creates a segment of n pages owned by ctx: fresh zeroed
// frames, mapped read-write at a kernel-chosen base in the owner's
// address space, initiated from the boot CPU.
func (r *Registry) NewSegment(owner mmu.ContextID, pages int) (*Segment, error) {
	if pages <= 0 {
		return nil, errors.New("shm: segment needs at least one page")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dead := r.condemned[owner]; dead {
		return nil, fmt.Errorf("%w: context %d", ErrCondemned, owner)
	}
	base := r.svc.ReserveVA(owner, pages)
	for i := 0; i < pages; i++ {
		va := base + mmu.VAddr(i*mmu.PageSize)
		if err := r.svc.AllocPageOn(mmu.BootCPU, owner, va, mmu.PermRead|mmu.PermWrite); err != nil {
			for j := 0; j < i; j++ {
				_ = r.svc.FreePageOn(mmu.BootCPU, owner, base+mmu.VAddr(j*mmu.PageSize))
			}
			r.svc.ReleaseVA(owner, base, pages)
			return nil, fmt.Errorf("shm: segment page %d of %d: %w", i, pages, err)
		}
	}
	r.nextSeg++
	s := &Segment{
		reg:    r,
		id:     SegmentID(r.nextSeg),
		owner:  owner,
		base:   base,
		pages:  pages,
		grants: make(map[GrantRef]*Grant),
	}
	r.segs[s.id] = s
	return s, nil
}

// ID reports the segment's identifier.
func (s *Segment) ID() SegmentID { return s.id }

// Owner reports the owning protection domain.
func (s *Segment) Owner() mmu.ContextID { return s.owner }

// Base reports the owner-side base address.
func (s *Segment) Base() mmu.VAddr { return s.base }

// Pages reports the segment's length in pages.
func (s *Segment) Pages() int { return s.pages }

// Size reports the segment's length in bytes.
func (s *Segment) Size() int { return s.pages * mmu.PageSize }

// Grant issues a new grant of the segment to a grantee context with
// the given rights, returning the grant. Pass Grant.Ref() across the
// invocation plane (one capability word); the grantee attaches with
// Registry.Attach.
func (s *Segment) Grant(to mmu.ContextID, rights Rights) (*Grant, error) {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.destroyed {
		return nil, ErrDestroyed
	}
	if _, dead := r.condemned[to]; dead {
		return nil, fmt.Errorf("%w: context %d", ErrCondemned, to)
	}
	var ref GrantRef
	for {
		ref = GrantRef(r.rnd.Uint64())
		if ref != 0 && r.grants[ref] == nil {
			break
		}
	}
	g := &Grant{reg: r, ref: ref, seg: s, to: to, rights: rights}
	r.grants[ref] = g
	s.grants[ref] = g
	return g, nil
}

// Ref returns the grant's unforgeable capability reference.
func (g *Grant) Ref() GrantRef { return g.ref }

// Grantee reports the context the grant is addressed to.
func (g *Grant) Grantee() mmu.ContextID { return g.to }

// Rights reports the access the grant confers.
func (g *Grant) Rights() Rights { return g.rights }

// Revoked reports whether the grant has been withdrawn (including by a
// CondemnDomainFrom sweep of the grantee). The granting side polls this to
// learn the grantee is gone — the ring protocol reads it as hangup.
func (g *Grant) Revoked() bool {
	g.accessMu.RLock()
	defer g.accessMu.RUnlock()
	return g.revoked
}

// RevokeFrom withdraws the grant, initiating shootdowns from the given
// CPU; see Registry.RevokeFrom.
func (g *Grant) RevokeFrom(initiator mmu.CPUID) error { return g.reg.RevokeFrom(initiator, g.ref) }

// Attach maps the granted segment into the grantee's MMU context and
// returns the attachment. The mapping shares the segment's refcounted
// frames — no byte is copied; the cost model charges the map machinery
// and later TLB traffic, not the payload. Attaching an already-mapped
// grant returns the existing attachment. Attaching into a domain being
// destroyed fails with ErrCondemned, a revoked grant with ErrRevoked,
// and a ref the registry never issued with ErrNoGrant.
func (r *Registry) Attach(ref GrantRef) (*Attachment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.grants[ref]
	if g == nil {
		return nil, ErrNoGrant
	}
	return r.attachLocked(g)
}

// attachLocked maps one validated grant. Caller holds r.mu. The
// grant-attach flight-recorder event is stamped on the boot CPU:
// attach runs on the nucleus' control plane, not a particular CPU.
func (r *Registry) attachLocked(g *Grant) (*Attachment, error) {
	if g.revoked {
		return nil, ErrRevoked
	}
	if _, dead := r.condemned[g.to]; dead {
		return nil, fmt.Errorf("%w: context %d", ErrCondemned, g.to)
	}
	if g.mapped {
		return g.att, nil
	}
	base := r.svc.ReserveVA(g.to, g.seg.pages)
	for i := 0; i < g.seg.pages; i++ {
		off := mmu.VAddr(i * mmu.PageSize)
		if err := r.svc.SharePageOn(mmu.BootCPU, g.seg.owner, g.seg.base+off, g.to, base+off, g.rights.perm()); err != nil {
			for j := 0; j < i; j++ {
				_ = r.svc.FreePageOn(mmu.BootCPU, g.to, base+mmu.VAddr(j*mmu.PageSize))
			}
			r.svc.ReleaseVA(g.to, base, g.seg.pages)
			return nil, fmt.Errorf("shm: attach page %d of %d: %w", i, g.seg.pages, err)
		}
	}
	g.mapped, g.base = true, base
	g.att = &Attachment{g: g}
	if probe.Enabled() {
		m := r.svc.Machine().Meter
		m.Emit(int(mmu.BootCPU), probe.KindGrantAttach, uint32(g.to), uint64(g.seg.id), uint64(g.seg.pages))
	}
	return g.att, nil
}

// Attach is Registry.Attach scoped to this segment: a ref naming
// another segment's grant is rejected with ErrNoGrant, so a caller
// holding several segments cannot map the wrong one through a
// mixed-up ref.
func (s *Segment) Attach(ref GrantRef) (*Attachment, error) {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.grants[ref]
	if g == nil || g.seg != s {
		return nil, ErrNoGrant
	}
	return r.attachLocked(g)
}

// RevokeFrom is Registry.RevokeFrom scoped to this segment: a ref
// naming another segment's grant is rejected with ErrNoGrant rather
// than silently revoking a grant the caller never meant to touch.
func (s *Segment) RevokeFrom(initiator mmu.CPUID, ref GrantRef) error {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.grants[ref]
	if g == nil || g.seg != s {
		return ErrNoGrant
	}
	if g.revoked {
		return ErrRevoked
	}
	r.revokeLocked(initiator, g)
	return nil
}

// CheckDeliverable reports whether ref names a live grant addressed to
// the given context — the validation the cross-domain proxy applies to
// grant capability words before paying for the crossing: a forged ref
// fails ErrNoGrant, a withdrawn one ErrRevoked, and a grant addressed
// to some other domain ErrWrongDomain (grants are not transferable, so
// delivering one to the wrong domain is always a caller bug).
func (r *Registry) CheckDeliverable(ref GrantRef, to mmu.ContextID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.grants[ref]
	switch {
	case g == nil:
		return ErrNoGrant
	case g.revoked:
		return ErrRevoked
	case g.to != to:
		return fmt.Errorf("%w: granted to context %d, delivered to %d", ErrWrongDomain, g.to, to)
	}
	return nil
}

// RevokeFrom withdraws a grant: the segment is unmapped from the
// grantee's context, its frames are unreferenced, and the grant becomes
// a tombstone — later attaches and accesses fail with ErrRevoked.
// Revoking an already-revoked grant reports ErrRevoked; an unknown ref,
// ErrNoGrant. The unmap sweep initiates from the given CPU: it charges
// TLB shootdowns only for OTHER CPUs that still held the grantee-side
// pages cached, exactly as if the revoking domain's thread ran the
// unmaps on its own processor.
func (r *Registry) RevokeFrom(initiator mmu.CPUID, ref GrantRef) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.grants[ref]
	if g == nil {
		return ErrNoGrant
	}
	if g.revoked {
		return ErrRevoked
	}
	r.revokeLocked(initiator, g)
	return nil
}

// revokeLocked unmaps and tombstones one grant. Caller holds r.mu.
// The grant's access lock is taken exclusively around the unmap, so an
// in-flight Attachment copy (which holds it shared) finishes against
// the still-live mapping before the frames are released — the revoke
// waits out at most one copy, never exposes a recycled frame.
func (r *Registry) revokeLocked(initiator mmu.CPUID, g *Grant) {
	g.accessMu.Lock()
	if g.mapped {
		for i := 0; i < g.seg.pages; i++ {
			// FreePageOn unmaps (charging shootdowns for pages other CPUs
			// still held cached) and drops the frame reference. Errors are
			// ignored: during domain teardown the grantee context may
			// already be partially gone, and the tombstone below is what
			// matters.
			_ = r.svc.FreePageOn(initiator, g.to, g.base+mmu.VAddr(i*mmu.PageSize))
		}
		r.svc.ReleaseVA(g.to, g.base, g.seg.pages)
	}
	g.mapped = false
	g.revoked = true
	g.accessMu.Unlock()
	delete(g.seg.grants, g.ref)
	r.tombLocked(g.ref)
	if probe.Enabled() {
		m := r.svc.Machine().Meter
		m.Emit(int(initiator), probe.KindGrantRevoke, uint32(g.to), uint64(g.seg.id), uint64(g.seg.pages))
	}
}

// tombLocked records a fresh tombstone and evicts the oldest past the
// retention cap. Caller holds r.mu.
func (r *Registry) tombLocked(ref GrantRef) {
	r.tombs = append(r.tombs, ref)
	r.evictTombsLocked()
}

// evictTombsLocked drops the oldest tombstones until the retention cap
// is respected. Caller holds r.mu.
func (r *Registry) evictTombsLocked() {
	for len(r.tombs) > r.maxTombs {
		old := r.tombs[0]
		r.tombs = r.tombs[1:]
		// Only drop the record if it is still a tombstone (never a live
		// reissued ref — refs are unique, but stay defensive).
		if g, ok := r.grants[old]; ok && g.revoked {
			delete(r.grants, old)
		}
	}
}

// DestroyFrom revokes every grant of the segment (unmapping it from
// every grantee), unmaps and unreferences the owner's pages, and
// tombstones the segment. Every unmap in the sweep initiates from the
// given CPU, charging TLB shootdowns only for OTHER CPUs that still
// held the pages cached.
func (s *Segment) DestroyFrom(initiator mmu.CPUID) error {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.destroyed {
		return ErrDestroyed
	}
	r.destroyLocked(initiator, s)
	return nil
}

// destroyLocked tears one segment down. Caller holds r.mu. The
// segment's access lock excludes in-flight owner-side copies exactly
// as revokeLocked excludes grantee-side ones. The segment's retained
// grant tombstones are swept with it: once the segment object is gone
// its refs report ErrNoGrant, and the registry stops paying for them.
func (r *Registry) destroyLocked(initiator mmu.CPUID, s *Segment) {
	for _, g := range s.grants {
		r.revokeLocked(initiator, g)
	}
	s.accessMu.Lock()
	for i := 0; i < s.pages; i++ {
		_ = r.svc.FreePageOn(initiator, s.owner, s.base+mmu.VAddr(i*mmu.PageSize))
	}
	r.svc.ReleaseVA(s.owner, s.base, s.pages)
	s.destroyed = true
	s.accessMu.Unlock()
	delete(r.segs, s.id)
	r.sweepTombsLocked(s)
}

// sweepTombsLocked reclaims every tombstone whose grant belonged to the
// destroyed segment. Caller holds r.mu.
func (r *Registry) sweepTombsLocked(s *Segment) {
	kept := r.tombs[:0]
	for _, ref := range r.tombs {
		if g, ok := r.grants[ref]; ok && g.seg == s {
			delete(r.grants, ref)
			continue
		}
		kept = append(kept, ref)
	}
	r.tombs = kept
}

// CondemnDomainFrom begins the domain's shared-memory teardown: the
// context is marked condemned (all future NewSegment, Grant and Attach
// involving it fail), every grant addressed to it is revoked, and
// every segment it owns is destroyed — revoking those segments' grants
// in every other domain too. It runs under the same registry lock that
// Attach maps under, so a racing attach either completes first and is
// revoked here, or observes the condemn and fails: when
// CondemnDomainFrom returns, the dying domain holds no segment mapping
// and never will again. The kernel invokes it from the proxy factory's
// CloseTarget sweep, so one DestroyDomain quiesces calls and mappings
// together. The sweep's unmaps initiate from the given CPU, so
// shootdowns are charged from the perspective of the CPU running the
// teardown (the kernel's DestroyDomain path passes the boot CPU).
func (r *Registry) CondemnDomainFrom(initiator mmu.CPUID, ctx mmu.ContextID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.condemned[ctx] = struct{}{}
	for _, g := range r.grants {
		if g.to == ctx && !g.revoked {
			r.revokeLocked(initiator, g)
		}
	}
	var owned []*Segment
	for _, s := range r.segs {
		if s.owner == ctx {
			owned = append(owned, s)
		}
	}
	for _, s := range owned {
		r.destroyLocked(initiator, s)
	}
}

// AbsolveDomain forgets a condemned context, bounding the condemned
// set for kernels that churn domains. Only safe once the MMU context
// no longer exists: from then on every map into it fails at the MMU,
// so the condemn gate is redundant.
func (r *Registry) AbsolveDomain(ctx mmu.ContextID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.condemned, ctx)
}

// Segments reports the number of live segments.
func (r *Registry) Segments() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.segs)
}

// bounds validates an [off, off+n) access against a segment size.
func bounds(off, n, size int) error {
	if off < 0 || n < 0 || off+n > size {
		return fmt.Errorf("%w: [%d, %d) of %d bytes", ErrBounds, off, off+n, size)
	}
	return nil
}

// Load copies from the segment (owner side) into buf.
func (s *Segment) Load(off int, buf []byte) error {
	return s.access(off, buf, false)
}

// Store copies buf into the segment (owner side).
func (s *Segment) Store(off int, buf []byte) error {
	return s.access(off, buf, true)
}

// access is the owner-side bulk data plane. Copies translate through
// the boot CPU: the segment API carries no initiator, so the charge
// lands on the shared boot TLB — an acknowledged single-CPU-era
// choice; an initiator-carrying segment API is the topology follow-up.
//
//paramecium:hotpath
func (s *Segment) access(off int, buf []byte, write bool) error {
	// Data plane: the segment's own access lock, never the registry's —
	// owner-side copies of unrelated segments run fully in parallel,
	// and Destroy (exclusive) waits out an in-flight copy rather than
	// freeing frames under it.
	s.accessMu.RLock()
	defer s.accessMu.RUnlock()
	if s.destroyed {
		return ErrDestroyed
	}
	if err := bounds(off, len(buf), s.Size()); err != nil {
		return err
	}
	cpu := s.reg.svc.Machine().CPUByID(mmu.BootCPU)
	if write {
		return cpu.Store(s.owner, s.base+mmu.VAddr(off), buf)
	}
	return cpu.Load(s.owner, s.base+mmu.VAddr(off), buf)
}

// Base reports the grantee-side base address of the mapping.
func (a *Attachment) Base() mmu.VAddr { return a.g.base }

// Size reports the attached segment's length in bytes.
func (a *Attachment) Size() int { return a.g.seg.pages * mmu.PageSize }

// Rights reports the access the underlying grant confers.
func (a *Attachment) Rights() Rights { return a.g.rights }

// Revoked reports whether the attachment's grant has been revoked.
func (a *Attachment) Revoked() bool {
	a.g.accessMu.RLock()
	defer a.g.accessMu.RUnlock()
	return a.g.revoked
}

// Load copies from the attached segment into buf through the
// grantee's MMU context. A revoked attachment fails with ErrRevoked —
// the distinct "your access was withdrawn" error, not a lookup fault.
func (a *Attachment) Load(off int, buf []byte) error {
	return a.access(off, buf, false)
}

// Store copies buf into the attached segment. Read-only attachments
// fail with ErrReadOnly before touching the MMU.
func (a *Attachment) Store(off int, buf []byte) error {
	return a.access(off, buf, true)
}

// access is the grantee-side bulk data plane. As on the owner side,
// copies translate through the boot CPU: the attachment API carries no
// initiator — an acknowledged single-CPU-era choice; an
// initiator-carrying form is the topology follow-up.
//
//paramecium:hotpath
func (a *Attachment) access(off int, buf []byte, write bool) error {
	g := a.g
	// Data plane: the grant's own access lock, never the registry's —
	// copies over unrelated grants run fully in parallel. Holding it
	// shared pins the mapping: a concurrent revoke (exclusive) waits
	// for the copy to finish before unmapping and releasing frames, so
	// a stale copy can never read a recycled frame; once revoked is
	// visible here, the access fails with the distinct error.
	g.accessMu.RLock()
	defer g.accessMu.RUnlock()
	if g.revoked {
		return ErrRevoked
	}
	if write && g.rights != RW {
		return ErrReadOnly
	}
	if err := bounds(off, len(buf), a.Size()); err != nil {
		return err
	}
	cpu := g.reg.svc.Machine().CPUByID(mmu.BootCPU)
	if write {
		return cpu.Store(g.to, g.base+mmu.VAddr(off), buf)
	}
	return cpu.Load(g.to, g.base+mmu.VAddr(off), buf)
}
