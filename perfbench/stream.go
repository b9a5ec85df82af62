package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"paramecium"
	"paramecium/api"
)

// stream: each request is one burst through a ring whose payload span
// (128 slots × 4 KiB = 512 KiB) exceeds the TLB's reach (64 entries ×
// 4 KiB), so translation and refill stay under load. A burst rings one
// doorbell, a crossing into the consumer, which drains half the
// records by copy and half in place; the consumer then acknowledges
// every record in one grouped batch to two kernel services.
const (
	streamSlots     = 128
	streamSlotBytes = 4096
	streamBurst     = 32 // divides streamSlots, so every request starts at a slot the shapes repeat on
	streamShapes    = 64
	streamPool      = 64 << 10 // seeded bytes records are cut from
)

type streamRecord struct {
	off, n int
	ackArg []any // the record's length, the acknowledgement's argument
	want   uint64
}

type streamWorkload struct {
	pool    []byte
	acks    [2]int // service indices the consumer acknowledges to
	records [][streamBurst]streamRecord
}

func newStream(rng *rand.Rand, ws *worldSpec) workload {
	wl := &streamWorkload{
		pool:    randBytes(rng, streamPool),
		records: make([][streamBurst]streamRecord, streamShapes),
	}
	wl.acks[0] = rng.IntN(len(ws.services))
	for wl.acks[1] = wl.acks[0]; wl.acks[1] == wl.acks[0]; {
		wl.acks[1] = rng.IntN(len(ws.services))
	}
	sizes := spread(rng, streamShapes*streamBurst, 1, streamSlotBytes, false)
	for i := range wl.records {
		for j := range wl.records[i] {
			r := &wl.records[i][j]
			r.n = sizes[i*streamBurst+j]
			r.off = rng.IntN(streamPool - r.n + 1)
			r.ackArg = []any{uint64(r.n)}
			r.want = ws.services[wl.acks[j%2]].expect(mEcho, uint64(r.n))
		}
	}
	return wl
}

type streamRunner struct {
	wl   *streamWorkload
	w    *world
	prod *api.RingProducer
	cons *api.RingConsumer
	att  *api.Attachment
	ack  [2]api.MethodHandle // consumer's echo handles on the ack services
	cd   *paramecium.Domain  // consumer domain, the batch's call site

	batch *api.Batch
	outs  [streamBurst][1]any
	buf   []byte

	// State the drain method reads: the burst in flight, the span it
	// runs under, and how many records it has verified.
	cur    *[streamBurst]streamRecord
	t      *tracer
	parent int32
	got    int
}

func (wl *streamWorkload) start(w *world) (runner, error) {
	pd := w.sys.NewDomain("stream-producer")
	cd := w.sys.NewDomain("stream-consumer")
	rg, err := pd.NewRing(cd, streamSlots, streamSlotBytes)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	r := &streamRunner{
		wl: wl, w: w, prod: rg.Producer(), cons: rg.Consumer(), cd: cd,
		batch: api.NewBatch(streamBurst), buf: make([]byte, streamSlotBytes),
	}
	r.att = r.cons.Attachment()
	r.batch.SetMode(api.BatchGrouped)

	wake := w.sys.NewObject("stream-wake")
	bi, err := wake.AddInterface(api.MustInterfaceDecl("bench.wake.v1",
		api.MethodDecl{Name: "wake", NumIn: 0, NumOut: 0}), nil)
	if err != nil {
		return nil, err
	}
	bi.MustBindInto("wake", r.drain)
	if err := cd.Register("/stream/wake", wake); err != nil {
		return nil, err
	}
	h, err := pd.Bind("/stream/wake")
	if err != nil {
		return nil, err
	}
	db, err := h.Resolve("bench.wake.v1", "wake")
	if err != nil {
		return nil, err
	}
	r.prod.SetDoorbell(db)
	for k, si := range wl.acks {
		hs, err := resolveAll(cd.Bind, w.spec.services[si].path)
		if err != nil {
			return nil, err
		}
		r.ack[k] = hs[mEcho]
	}
	return r, nil
}

func (r *streamRunner) system() *paramecium.System { return r.w.sys }

// drain is the consumer's doorbell method: it consumes every published
// record, even ones by Pop and odd ones in place by Peek/Release, and
// checks each record's length and bytes.
func (r *streamRunner) drain(out []any, _ ...any) ([]any, error) {
	n, err := r.cons.Len()
	if err != nil {
		return nil, err
	}
	for ; n > 0; n-- {
		j := r.got
		if j >= streamBurst {
			return nil, fmt.Errorf("%w: more records than pushed", errCheck)
		}
		want := &r.cur[j]
		var got int
		if j%2 == 0 {
			sp := r.t.begin(spPop, r.parent)
			got, err = r.cons.Pop(r.buf)
			r.t.end(sp)
		} else {
			sp := r.t.begin(spPeekRelease, r.parent)
			var off int
			if off, got, err = r.cons.Peek(); err == nil && got == want.n {
				if err = r.att.Load(off, r.buf[:got]); err == nil {
					err = r.cons.Release()
				}
			}
			r.t.end(sp)
		}
		if err != nil {
			return nil, err
		}
		if got != want.n || !bytes.Equal(r.buf[:got], r.wl.pool[want.off:want.off+want.n]) {
			return nil, errCheck
		}
		r.got++
	}
	return out, nil
}

func (r *streamRunner) request(i int, t *tracer) error {
	recs := &r.wl.records[i%streamShapes]
	root := t.begin(spRequest, -1)
	defer t.end(root)
	for j := range recs {
		sp := t.begin(spPush, root)
		err := r.prod.Push(r.wl.pool[recs[j].off : recs[j].off+recs[j].n])
		t.end(sp)
		if err != nil {
			return err
		}
	}
	r.cur, r.t, r.got = recs, t, 0
	r.parent = t.begin(spNotify, root)
	err := r.prod.Notify()
	t.end(r.parent)
	if err != nil {
		return err
	}
	if r.got != streamBurst {
		return fmt.Errorf("%w: drained %d of %d records", errCheck, r.got, streamBurst)
	}

	sp := t.begin(spBatch, root)
	r.batch.Reset()
	for j := range recs {
		if err := r.batch.AddInto(r.ack[j%2], r.outs[j][:0], recs[j].ackArg...); err != nil {
			t.end(sp)
			return err
		}
	}
	err = r.cd.CallBatch(r.batch)
	t.end(sp)
	if err != nil {
		return err
	}
	for j := range recs {
		res, err := r.batch.Results(j)
		if err != nil {
			return err
		}
		if err := checkResult(res, recs[j].want); err != nil {
			return err
		}
	}
	return nil
}
