package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanKind names a benchmark span: one call the benchmark makes into
// a layer's public function. Nothing inside the program is
// instrumented.
type spanKind uint8

const (
	spRequest    spanKind = iota
	spCall                // cross-domain MethodHandle.Call
	spInterposed          // cross-domain call reaching an interposing agent
	spDirectCall          // the same methods through kernel-resident handles
	spPush
	spPop
	spPeekRelease
	spNotify
	spBatch
	spNewDomain
	spRegister
	spBind
	spResolve
	spGrant
	spMap
	spAccess
	spRevoke
	spDestroy
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "obj.call", "obj.interposed_call", "obj.direct_call",
	"ring.push", "ring.pop", "ring.peek_release", "ring.notify", "obj.batch",
	"core.new_domain", "core.register", "names.bind", "obj.resolve",
	"shm.grant", "shm.map", "shm.access", "shm.revoke", "core.destroy",
}

type span struct {
	start  int64  // ns since the tracer's base
	dur    uint32 // ns
	parent int32  // index of the enclosing span, -1 for a root
	req    int32
	kind   spanKind
}

// tracer keeps spans in storage allocated before the traced phase, so
// recording allocates nothing. A nil *tracer records nothing: that is
// the untraced configuration, one predictable branch per call site.
type tracer struct {
	base  time.Time
	spans []span
	limit int // the timed phase stops here, leaving room for later phases
	req   int32
}

func newTracer(limit, reserve int) (*tracer, func(), error) {
	mem, free, err := offHeap[span](limit + reserve)
	if err != nil {
		return nil, nil, err
	}
	return &tracer{base: time.Now(), spans: mem[:0], limit: limit}, free, nil
}

// full reports whether the timed phase has spent its share of the
// storage; the phase stops then rather than growing it.
func (t *tracer) full() bool { return t != nil && len(t.spans) >= t.limit }

func (t *tracer) begin(k spanKind, parent int32) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, req: t.req, parent: parent, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.dur = uint32(int64(time.Since(t.base)) - s.start)
}

// selfMedians returns, per kind, the median self time in µs: a span's
// duration minus the part its child spans cover. Kinds with no spans
// report 0.
func (t *tracer) selfMedians() [numSpanKinds]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += int64(s.dur)
		}
	}
	var byKind [numSpanKinds][]int64
	for i, s := range t.spans {
		byKind[s.kind] = append(byKind[s.kind], int64(s.dur)-child[i])
	}
	var out [numSpanKinds]float64
	for k, v := range byKind {
		if len(v) > 0 {
			out[k] = quantile(v, 0.5) / 1e3
		}
	}
	return out
}

// write dumps the spans as tab-separated text, one per line:
// kind, request, parent index, start ns, end ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\treq\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.req, s.parent, s.start, s.start+int64(s.dur))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of v (sorted in place) with linear
// interpolation between closest ranks.
func quantile[T int64 | float64](v []T, q float64) float64 {
	slices.Sort(v)
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return float64(v[lo])
	}
	frac := pos - float64(lo)
	return float64(v[lo])*(1-frac) + float64(v[lo+1])*frac
}
