package paramecium

import (
	"io"

	"paramecium/api"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/probe"
	"paramecium/internal/trace"
)

// TraceOptions configures the kernel flight recorder; see WithTracing.
// The zero value selects defaults.
type TraceOptions struct {
	// RingCapacity sizes each per-CPU event ring in events (0 selects
	// the default of 4096). Rings retain the most recent events; the
	// cycle ledger is exact regardless of ring capacity.
	RingCapacity int
}

// WithTracing boots the system with the kernel flight recorder on:
// per-CPU event rings recording crossings, batch dispatches, faults,
// TLB traffic, doorbells, grant motion and scheduler activity — each
// event stamped with virtual-clock cycles, CPU and paying domain — plus
// a per-domain cycle ledger every meter charge rolls up into. Recording
// is free in virtual time (observing the simulation does not perturb
// it), and with tracing off the emit path is a single atomic load, so
// untraced systems measure exactly as before. Read the results with
// System.TraceSnapshot and Domain.Cycles, or run cmd/paratrace.
func WithTracing(opts TraceOptions) Option {
	return func(c *core.Config) {
		c.Trace = true
		c.TraceRingCapacity = opts.RingCapacity
	}
}

// Tracing reports whether the system booted with the flight recorder.
func (s *System) Tracing() bool { return s.k.Meter.Recorder() != nil }

// Cycles reports the total virtual cycles attributed to this domain in
// the cycle ledger — what the domain has paid for its crossings, copies,
// TLB traffic and shootdowns since boot. Zero when the system did not
// boot WithTracing. The row survives Destroy: a dead domain's bill
// stays readable (frozen) rather than vanishing with the domain.
func (d *Domain) Cycles() uint64 {
	led := d.s.k.Meter.Ledger()
	if led == nil {
		return 0
	}
	return led.DomainCycles(uint32(d.d.Ctx))
}

// TraceSnapshot is a point-in-time copy of everything the flight
// recorder holds: the per-CPU event timelines, the per-domain cycle
// ledger, and the method histograms of every Tracer installed through
// Handle.Trace. Snapshots are safe to take while the system runs.
type TraceSnapshot struct {
	// Events holds each CPU's retained event window, ordered by virtual
	// time. Nil when the system did not boot WithTracing.
	Events [][]api.TraceEvent
	// Emitted counts, per CPU, every event ever recorded on that CPU's
	// ring, and Dropped how many of them the ring has since overwritten:
	// a timeline is complete exactly when its Dropped count is zero.
	// Nil without WithTracing.
	Emitted []uint64
	Dropped []uint64
	// Ledger holds one row per protection domain that has ever been
	// charged, sorted by domain context id. Nil without WithTracing.
	Ledger []api.LedgerRow
	// Methods holds the merged per-method call histograms of every
	// tracer installed with Handle.Trace, grouped by traced path.
	Methods []TracedMethods
}

// TracedMethods is one traced name's method stats within a snapshot.
type TracedMethods struct {
	Path    string
	Methods []api.MethodSnapshot
}

// TraceSnapshot copies the flight recorder's current state; see
// TraceSnapshot (type). On a system booted without WithTracing the
// event and ledger sections are nil but tracer histograms still appear.
func (s *System) TraceSnapshot() *TraceSnapshot {
	ts := &TraceSnapshot{}
	if rec := s.k.Meter.Recorder(); rec != nil {
		ts.Events = rec.Snapshot()
		ts.Emitted = make([]uint64, rec.CPUs())
		ts.Dropped = make([]uint64, rec.CPUs())
		for cpu := range ts.Emitted {
			ts.Emitted[cpu] = rec.Emitted(cpu)
			ts.Dropped[cpu] = rec.Dropped(cpu)
		}
	}
	if led := s.k.Meter.Ledger(); led != nil {
		ts.Ledger = led.Snapshot()
	}
	s.traceMu.Lock()
	tracers := make([]tracedPath, len(s.tracers))
	copy(tracers, s.tracers)
	s.traceMu.Unlock()
	for _, tp := range tracers {
		ts.Methods = append(ts.Methods, TracedMethods{
			Path:    tp.path,
			Methods: tp.tr.Snapshot(),
		})
	}
	return ts
}

// WriteLedger renders the snapshot's per-domain cycle ledger as a text
// table: one row per domain with its total and the crossing / wire /
// copy / shootdown class split, then each domain's topN hottest
// operations. topN <= 0 omits the hot-op section.
func (ts *TraceSnapshot) WriteLedger(w io.Writer, topN int) error {
	return probe.WriteLedgerTable(w, ts.Ledger, clock.LedgerOpName, clock.LedgerOpClass, topN)
}

// WriteChrome renders the snapshot's event timelines as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto; one
// virtual cycle is rendered as one microsecond, one CPU per track).
func (ts *TraceSnapshot) WriteChrome(w io.Writer) error {
	return probe.WriteChromeTrace(w, ts.Events)
}

// WriteTimeline renders the snapshot's event timelines as per-CPU
// text, ordered by virtual time within each CPU. Each CPU's header
// states how many older events its ring overwrote.
func (ts *TraceSnapshot) WriteTimeline(w io.Writer) error {
	return probe.WriteTimeline(w, ts.Events, ts.Dropped)
}

// WriteMethods renders the snapshot's interposed-tracer histograms:
// per traced path, the calls / errors / cycles summary of each method.
func (ts *TraceSnapshot) WriteMethods(w io.Writer) error {
	for _, tm := range ts.Methods {
		if _, err := io.WriteString(w, "== traced "+tm.Path+" ==\n"); err != nil {
			return err
		}
		for _, m := range tm.Methods {
			h := m.Stats.Hist
			if _, err := io.WriteString(w, "  "+m.Key+": "+h.String()+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedPath records one Handle.Trace installation for snapshot merge.
type tracedPath struct {
	path string
	tr   *trace.Tracer
}

// Trace interposes a measurement tracer on the handle's name: every
// method of every interface the instance exports is counted and timed
// in virtual cycles, without the target or its callers changing — the
// paper's monitoring tools built from interposition. All future binds
// of the path resolve through the tracer; this handle and other
// existing handles are unaffected (handle-replacement semantics).
// The tracer's histograms are merged into System.TraceSnapshot.
func (h *Handle) Trace() (*api.Tracer, error) {
	var tr *trace.Tracer
	if _, err := h.s.Interpose(h.path, func(target api.Instance) (api.Instance, error) {
		t, err := trace.NewTracer(target, h.s.k.Meter)
		if err != nil {
			return nil, err
		}
		tr = t
		return t.Agent(), nil
	}); err != nil {
		return nil, err
	}
	h.s.traceMu.Lock()
	h.s.tracers = append(h.s.tracers, tracedPath{path: h.path, tr: tr})
	h.s.traceMu.Unlock()
	return tr, nil
}
