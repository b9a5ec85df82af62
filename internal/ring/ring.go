package ring

import (
	"encoding/binary"
	"errors"
	"fmt"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/shm"
)

// Control-word offsets in page 0; see the package comment for the
// full wire format.
const (
	offMagic    = 0
	offSlots    = 8
	offSlotSize = 16
	offTail     = 24
	offHead     = 32
	offDoorbell = 40

	// descBase is where the per-slot descriptor array starts. Each
	// descriptor is one word: the record's byte length.
	descBase = 64

	// magic identifies a formatted ring ("pmring01").
	magic = 0x706d72696e673031
)

// Protocol errors.
var (
	// ErrFull reports a push into a ring whose consumer is slots
	// records behind; retry after the consumer releases a slot.
	ErrFull = errors.New("ring: full")
	// ErrEmpty reports a pop from a ring with no published records.
	ErrEmpty = errors.New("ring: empty")
	// ErrHangup reports that the peer is gone: the consumer's grant
	// was revoked — by Hangup, by domain teardown, or by segment
	// destruction. Distinct from shm.ErrNoGrant (a capability that
	// never existed); unconsumed records are lost.
	ErrHangup = errors.New("ring: hangup")
	// ErrRingCorrupt reports a control word the peer wrote that no
	// well-behaved peer could have: a descriptor length beyond the
	// slot size, or a head/tail gap beyond the slot count. The words
	// are checked, never trusted, so a hostile peer can stall the
	// ring but not make the other side read out of bounds. Distinct
	// from ErrHangup: the grant is intact, its contents are not.
	ErrRingCorrupt = errors.New("ring: corrupt control word")
	// ErrRecordSize reports a record larger than the ring's slots.
	ErrRecordSize = errors.New("ring: record exceeds slot size")
	// ErrGeometry reports an unusable slot count or size at New.
	ErrGeometry = errors.New("ring: bad geometry")
)

// Ring is one single-producer/single-consumer ring over a shared
// segment. The segment is owned by the producer's protection domain
// and granted read-write to the consumer's; New formats it and
// attaches the consumer side. Producer and Consumer are each safe for
// one goroutine — that is the SPSC contract — while the two sides may
// run concurrently with each other and with revocation.
type Ring struct {
	meter *clock.Meter
	seg   *shm.Segment
	grant *shm.Grant
	att   *shm.Attachment

	slots       int
	slotBytes   int
	stride      int // slot payload footprint, slotBytes rounded to a word
	payloadBase int // segment offset of slot 0's payload, page-aligned

	// producerCtx/consumerCtx cache the endpoint domains for charge
	// attribution, so the hot push/pop paths never chase the grant.
	producerCtx uint32
	consumerCtx uint32

	prod Producer
	cons Consumer
}

// New creates and formats a ring of slots records of up to slotBytes
// payload each, owned by the producer context and granted read-write
// to the consumer context. Teardown of either domain through the
// registry's CondemnDomainFrom sweep hangs the ring up: the sweep
// destroys segments the producer owns and revokes grants addressed to
// the consumer. A failed setup tears the segment down, initiating
// from the boot CPU.
func New(meter *clock.Meter, reg *shm.Registry, producer, consumer mmu.ContextID, slots, slotBytes int) (*Ring, error) {
	if slots < 1 || slotBytes < 0 {
		return nil, fmt.Errorf("%w: %d slots of %d bytes", ErrGeometry, slots, slotBytes)
	}
	stride := (slotBytes + 7) &^ 7
	payloadBase := pageCeil(descBase + slots*8)
	pages := (payloadBase + pageCeil(slots*stride)) / mmu.PageSize
	seg, err := reg.NewSegment(producer, pages)
	if err != nil {
		return nil, err
	}
	grant, err := seg.Grant(consumer, shm.RW)
	if err != nil {
		_ = seg.DestroyFrom(mmu.BootCPU)
		return nil, err
	}
	att, err := reg.Attach(grant.Ref())
	if err != nil {
		_ = seg.DestroyFrom(mmu.BootCPU)
		return nil, err
	}
	r := &Ring{
		meter:       meter,
		seg:         seg,
		grant:       grant,
		att:         att,
		slots:       slots,
		slotBytes:   slotBytes,
		stride:      stride,
		payloadBase: payloadBase,
		producerCtx: uint32(producer),
		consumerCtx: uint32(consumer),
	}
	var w [8]byte
	for _, init := range []struct {
		off int
		val uint64
	}{{offMagic, magic}, {offSlots, uint64(slots)}, {offSlotSize, uint64(slotBytes)}} {
		binary.LittleEndian.PutUint64(w[:], init.val)
		if err := seg.Store(init.off, w[:]); err != nil {
			_ = seg.DestroyFrom(mmu.BootCPU)
			return nil, err
		}
	}
	r.prod.r = r
	r.cons.r = r
	return r, nil
}

func pageCeil(n int) int {
	return (n + mmu.PageSize - 1) &^ (mmu.PageSize - 1)
}

// Producer returns the producer endpoint. One goroutine at a time.
func (r *Ring) Producer() *Producer { return &r.prod }

// Consumer returns the consumer endpoint. One goroutine at a time.
func (r *Ring) Consumer() *Consumer { return &r.cons }

// Slots reports the ring's record capacity.
func (r *Ring) Slots() int { return r.slots }

// SlotBytes reports the maximum record payload size.
func (r *Ring) SlotBytes() int { return r.slotBytes }

// Pages reports the backing segment's size in pages.
func (r *Ring) Pages() int { return r.seg.Pages() }

// GrantRef returns the consumer-side grant capability, e.g. to hand
// the consumer domain an independent attachment path.
func (r *Ring) GrantRef() shm.GrantRef { return r.grant.Ref() }

// Segment exposes the backing segment for owner-side (producer
// domain) in-place payload access around ProduceOffset/PushInPlace.
func (r *Ring) Segment() *shm.Segment { return r.seg }

// Close destroys the backing segment, initiating from the boot CPU.
// Both endpoints fail afterwards; the consumer side observes
// ErrHangup. Domain teardown does this implicitly for rings the dying
// domain produces.
func (r *Ring) Close() error { return r.seg.DestroyFrom(mmu.BootCPU) }

func (r *Ring) descOff(count uint64) int {
	return descBase + int(count%uint64(r.slots))*8
}

func (r *Ring) payloadOff(count uint64) int {
	return r.payloadBase + int(count%uint64(r.slots))*r.stride
}

// Producer is the publishing endpoint: it owns the tail and doorbell
// words and writes slots through the owning domain's mapping.
type Producer struct {
	r         *Ring
	tail      uint64 // local copy of the tail word (sole writer)
	headCache uint64 // last observed head; refreshed on apparent full
	pending   int    // records published since the last Notify
	w         [8]byte
	db        obj.MethodHandle
	hasDB     bool
	dbOut     [1]any
}

// SetDoorbell installs the method Notify invokes after latching the
// doorbell word — typically a zero-argument method resolved through a
// cross-domain proxy into the consumer's domain, so one vectored
// crossing wakes the consumer for a whole burst. Without one, Notify
// only latches the word and the consumer polls.
func (p *Producer) SetDoorbell(h obj.MethodHandle) {
	p.db = h
	p.hasDB = true
}

// Pending reports how many published records the next Notify covers.
func (p *Producer) Pending() int { return p.pending }

// reserve ensures the next slot is free, refreshing the head cache
// from shared memory when the ring looks full. A revoked consumer
// grant surfaces as ErrHangup rather than letting the producer fill
// slots nobody will ever drain.
//
//paramecium:hotpath
func (p *Producer) reserve() error {
	if p.r.grant.Revoked() {
		return ErrHangup
	}
	if p.tail-p.headCache == uint64(p.r.slots) {
		if err := p.r.seg.Load(offHead, p.w[:]); err != nil {
			return err
		}
		head := binary.LittleEndian.Uint64(p.w[:])
		if d := p.tail - head; d > uint64(p.r.slots) {
			return fmt.Errorf("%w: head %d is %d records behind tail %d", ErrRingCorrupt, head, d, p.tail)
		}
		p.headCache = head
		if p.tail-p.headCache == uint64(p.r.slots) {
			return ErrFull
		}
	}
	return nil
}

// publish writes the record descriptor, then the tail word — in that
// order, so a consumer observing the new tail always observes the
// descriptor — and charges the push.
//
//paramecium:hotpath
func (p *Producer) publish(n uint64) error {
	binary.LittleEndian.PutUint64(p.w[:], n)
	if err := p.r.seg.Store(p.r.descOff(p.tail), p.w[:]); err != nil {
		return err
	}
	p.tail++
	binary.LittleEndian.PutUint64(p.w[:], p.tail)
	if err := p.r.seg.Store(offTail, p.w[:]); err != nil {
		return err
	}
	p.pending++
	p.r.meter.ChargeFor(p.r.producerCtx, clock.OpRingPush)
	return nil
}

// Push copies rec into the next slot and publishes it. The copy is
// charged to the producer as ordinary memory traffic; for payloads
// already produced in shared memory, use ProduceOffset/PushInPlace
// and skip the copy entirely.
//
//paramecium:hotpath
func (p *Producer) Push(rec []byte) error {
	if len(rec) > p.r.slotBytes {
		return ErrRecordSize
	}
	if err := p.reserve(); err != nil {
		return err
	}
	if len(rec) > 0 {
		if err := p.r.seg.Store(p.r.payloadOff(p.tail), rec); err != nil {
			return err
		}
	}
	return p.publish(uint64(len(rec)))
}

// ProduceOffset reserves the next slot and returns the segment offset
// of its payload, for producing record bytes in place through the
// owner mapping before PushInPlace publishes them.
//
//paramecium:hotpath
func (p *Producer) ProduceOffset() (int, error) {
	if err := p.reserve(); err != nil {
		return 0, err
	}
	return p.r.payloadOff(p.tail), nil
}

// PushInPlace publishes a record of n bytes already written in place
// in the next slot: descriptor and tail words only — the payload
// never moves.
//
//paramecium:hotpath
func (p *Producer) PushInPlace(n int) error {
	if n < 0 || n > p.r.slotBytes {
		return ErrRecordSize
	}
	if err := p.reserve(); err != nil {
		return err
	}
	return p.publish(uint64(n))
}

// Notify latches tail into the doorbell word, charges one OpDoorbell
// for the burst, and invokes the doorbell handle if one is set. A
// no-op when nothing was pushed since the last Notify. Rings carry no
// CPU identity, so the doorbell flight-recorder event is stamped on
// the boot CPU; the paying domain is the producer's context.
//
//paramecium:hotpath
func (p *Producer) Notify() error {
	if p.pending == 0 {
		return nil
	}
	binary.LittleEndian.PutUint64(p.w[:], p.tail)
	if err := p.r.seg.Store(offDoorbell, p.w[:]); err != nil {
		return err
	}
	burst := p.pending
	p.pending = 0
	p.r.meter.ChargeFor(p.r.producerCtx, clock.OpDoorbell)
	if probe.Enabled() {
		p.r.meter.Emit(int(mmu.BootCPU), probe.KindDoorbell, p.r.producerCtx, uint64(burst), uint64(p.r.seg.ID()))
	}
	if p.hasDB {
		_, err := p.db.CallInto(p.dbOut[:0])
		return err
	}
	return nil
}

// Hangup revokes the consumer's grant: the shm tombstone this leaves
// behind is the ring's end-of-stream signal. The consumer's next
// access fails with ErrHangup. The hangup flight-recorder event is
// stamped on the boot CPU — grant revocation is a control-plane
// operation with no CPU identity of its own.
func (p *Producer) Hangup() error {
	if probe.Enabled() {
		p.r.meter.Emit(int(mmu.BootCPU), probe.KindHangup, p.r.producerCtx, uint64(p.r.seg.ID()), 0)
	}
	return p.r.grant.RevokeFrom(mmu.BootCPU)
}

// Consumer is the draining endpoint: it owns the head word and reads
// slots through the grantee attachment, so a revoked grant fails
// every access — that is the hangup path.
type Consumer struct {
	r         *Ring
	head      uint64 // local copy of the head word (sole writer)
	tailCache uint64 // last observed tail; refreshed on apparent empty
	w         [8]byte
}

// hangupErr translates segment-plane loss of access into the ring's
// end-of-stream error, recording a consumer-side hangup event stamped
// on the boot CPU (the ring has no CPU identity to thread through).
//
//paramecium:hotpath
func (c *Consumer) hangupErr(err error) error {
	if errors.Is(err, shm.ErrRevoked) || errors.Is(err, shm.ErrDestroyed) {
		if probe.Enabled() {
			c.r.meter.Emit(int(mmu.BootCPU), probe.KindHangup, c.r.consumerCtx, uint64(c.r.seg.ID()), 1)
		}
		return ErrHangup
	}
	return err
}

// available ensures at least one record is published, refreshing the
// tail cache from shared memory when the ring looks empty.
//
//paramecium:hotpath
func (c *Consumer) available() error {
	if c.head == c.tailCache {
		if err := c.loadTail(); err != nil {
			return err
		}
		if c.head == c.tailCache {
			return ErrEmpty
		}
	}
	return nil
}

// loadTail refreshes the tail cache from shared memory. The tail is a
// producer-written word, so it is checked before it is cached: a tail
// more than slots records ahead of head — or behind it, which the
// unsigned difference folds into the same test — is ErrRingCorrupt.
//
//paramecium:hotpath
func (c *Consumer) loadTail() error {
	if err := c.r.att.Load(offTail, c.w[:]); err != nil {
		return c.hangupErr(err)
	}
	tail := binary.LittleEndian.Uint64(c.w[:])
	if d := tail - c.head; d > uint64(c.r.slots) {
		return fmt.Errorf("%w: tail %d is %d records past head %d", ErrRingCorrupt, tail, d, c.head)
	}
	c.tailCache = tail
	return nil
}

// Len reports how many published records await consumption, reloading
// the tail word.
func (c *Consumer) Len() (int, error) {
	if err := c.loadTail(); err != nil {
		return 0, err
	}
	return int(c.tailCache - c.head), nil
}

// Peek returns the payload offset and length of the head record
// without consuming it, reading only its one-word descriptor. The
// caller reads whatever payload bytes it wants in place through
// Attachment (or none), then calls Release.
//
//paramecium:hotpath
func (c *Consumer) Peek() (off, n int, err error) {
	if err := c.available(); err != nil {
		return 0, 0, err
	}
	if err := c.r.att.Load(c.r.descOff(c.head), c.w[:]); err != nil {
		return 0, 0, c.hangupErr(err)
	}
	// The descriptor is producer-written: a length past the slot would
	// send the caller's in-place read into the next slot or beyond.
	n64 := binary.LittleEndian.Uint64(c.w[:])
	if n64 > uint64(c.r.slotBytes) {
		return 0, 0, fmt.Errorf("%w: record length %d exceeds %d-byte slots", ErrRingCorrupt, n64, c.r.slotBytes)
	}
	return c.r.payloadOff(c.head), int(n64), nil
}

// Release consumes the head record, publishing the new head so the
// producer may reuse the slot, and charges the pop.
//
//paramecium:hotpath
func (c *Consumer) Release() error {
	if err := c.available(); err != nil {
		return err
	}
	c.head++
	binary.LittleEndian.PutUint64(c.w[:], c.head)
	if err := c.r.att.Store(offHead, c.w[:]); err != nil {
		c.head--
		return c.hangupErr(err)
	}
	c.r.meter.ChargeFor(c.r.consumerCtx, clock.OpRingPop)
	return nil
}

// Pop copies the head record's payload into buf and consumes it,
// returning the record's full length (which may exceed what fit in
// buf). The copy is charged to the consumer as ordinary memory
// traffic; Peek/Release skips it for in-place consumption.
//
//paramecium:hotpath
func (c *Consumer) Pop(buf []byte) (int, error) {
	off, n, err := c.Peek()
	if err != nil {
		return 0, err
	}
	m := n
	if m > len(buf) {
		m = len(buf)
	}
	if m > 0 {
		if err := c.r.att.Load(off, buf[:m]); err != nil {
			return 0, c.hangupErr(err)
		}
	}
	if err := c.Release(); err != nil {
		return 0, err
	}
	return n, nil
}

// Attachment exposes the consumer-side mapping for in-place payload
// reads between Peek and Release.
func (c *Consumer) Attachment() *shm.Attachment { return c.r.att }
