package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteLedgerTable renders the per-domain cycle ledger as an aligned
// text table: one row per domain with its total and the class split
// (crossing vs wire vs copy vs shootdown vs other), followed by each
// domain's top-N operations by attributed cycles. opName and classOf
// translate ledger slots; the clock package supplies both so this
// package stays dependency-free.
func WriteLedgerTable(w io.Writer, rows []RowSnapshot, opName func(int) string, classOf func(int) string, topN int) error {
	classes := []string{"crossing", "wire", "copy", "shootdown", "other"}
	var grand uint64
	for _, r := range rows {
		grand += r.Total
	}
	fmt.Fprintf(w, "== per-domain cycle ledger ==\n")
	fmt.Fprintf(w, "%-8s %14s %7s", "domain", "cycles", "share")
	for _, c := range classes {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintf(w, "  %s\n", "state")
	for _, r := range rows {
		split := make(map[string]uint64, len(classes))
		for op, cyc := range r.Cycles {
			split[classOf(op)] += cyc
		}
		share := 0.0
		if grand > 0 {
			share = 100 * float64(r.Total) / float64(grand)
		}
		state := "live"
		if r.Frozen {
			state = "frozen"
		}
		fmt.Fprintf(w, "%-8d %14d %6.1f%%", r.Domain, r.Total, share)
		for _, c := range classes {
			fmt.Fprintf(w, " %12d", split[c])
		}
		fmt.Fprintf(w, "  %s\n", state)
	}
	fmt.Fprintf(w, "%-8s %14d\n", "total", grand)

	if topN > 0 {
		fmt.Fprintf(w, "\n== hot ops (top %d per domain) ==\n", topN)
		for _, r := range rows {
			type opRow struct {
				op     int
				cycles uint64
				count  uint64
			}
			var ops []opRow
			for op, cyc := range r.Cycles {
				if cyc > 0 || r.Counts[op] > 0 {
					ops = append(ops, opRow{op, cyc, r.Counts[op]})
				}
			}
			sort.Slice(ops, func(i, j int) bool {
				if ops[i].cycles != ops[j].cycles {
					return ops[i].cycles > ops[j].cycles
				}
				return ops[i].op < ops[j].op
			})
			if len(ops) > topN {
				ops = ops[:topN]
			}
			fmt.Fprintf(w, "domain %d:\n", r.Domain)
			for _, o := range ops {
				fmt.Fprintf(w, "  %-20s %14d cycles %10d ops\n", opName(o.op), o.cycles, o.count)
			}
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event JSON format
// (chrome://tracing, Perfetto). Virtual cycles map directly onto the
// format's microsecond timestamps; the per-CPU rings map onto threads.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders a snapshot's per-CPU event timelines as
// Chrome trace_event JSON. Crossing begin/end pairs become duration
// slices; every other kind is an instant event. One virtual cycle is
// rendered as one microsecond.
func WriteChromeTrace(w io.Writer, perCPU [][]Event) error {
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for cpu, evs := range perCPU {
		for _, e := range evs {
			ce := chromeEvent{
				Name: e.Kind.String(),
				Ts:   e.Cycles,
				Pid:  0,
				Tid:  cpu,
				Args: map[string]uint64{
					"domain": uint64(e.Domain),
					"a":      e.A,
					"b":      e.B,
				},
			}
			switch e.Kind {
			case KindCrossingBegin:
				ce.Name = "crossing"
				ce.Ph = "B"
			case KindCrossingEnd:
				ce.Name = "crossing"
				ce.Ph = "E"
			default:
				ce.Ph = "i"
				ce.S = "t"
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// WriteTimeline renders a snapshot's events as a per-CPU text
// timeline, ordered by virtual time within each CPU. dropped holds one
// entry per CPU: how many older events that CPU's ring overwrote
// (Recorder.Dropped).
func WriteTimeline(w io.Writer, perCPU [][]Event, dropped []uint64) error {
	for cpu, evs := range perCPU {
		fmt.Fprintf(w, "== cpu %d (%d events, %d overwritten) ==\n", cpu, len(evs), dropped[cpu])
		for _, e := range evs {
			fmt.Fprintf(w, "%12d  %-16s domain=%-4d a=%-6d b=%d\n",
				e.Cycles, e.Kind.String(), e.Domain, e.A, e.B)
		}
	}
	return nil
}
