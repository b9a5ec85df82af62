// Command perfbench is the repository's end-to-end benchmark. It
// drives a Paramecium system through its public embedding API only,
// in a closed loop: one client goroutine sends its next request after
// the previous one completes. Every run first builds the same seeded
// world (a few hundred kernel-resident services in a tree 3–4 levels
// deep, tens of client domains holding bound and resolved handles)
// and then runs one workload on it; see NOTES.md for why each workload
// exists and which layers it loads.
//
//	bash perfbench/run.sh --workload rpc --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then with the flight recorder and benchmark
// spans on, and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"paramecium"
)

type runner interface {
	// request performs request i on the runner's world, checking every
	// output; an error is a failed request.
	request(i int, t *tracer) error
	system() *paramecium.System
}

// A workload holds its seeded inputs and starts runners on built worlds.
type workload interface {
	start(w *world) (runner, error)
}

// extraRunner is a runner with a traced-only phase after the timed one.
type extraRunner interface {
	extra(t *tracer) (int, error)
}

type workloadDef struct {
	gen func(*rand.Rand, *worldSpec) workload
	// warm and count are the request counts of the warm-up phase and
	// of the fixed phase the count metrics are read over.
	warm, count int
	// window is the number of requests per latency window: a whole
	// number of the workload's input cycles, so every window runs the
	// same requests.
	window int
	// maxRate bounds requests per second; it sizes sample storage.
	maxRate int
}

var workloads = map[string]workloadDef{
	"rpc":    {gen: newRPC, warm: 8 * rpcShapes, count: 8 * rpcShapes, window: 8 * rpcShapes, maxRate: 100_000},
	"stream": {gen: newStream, warm: 4 * streamShapes, count: 4 * streamShapes, window: 4 * streamShapes, maxRate: 50_000},
}

// sessions is not a timed workload: the traced run ends with one pass
// of churnSessions tenant sessions on a fresh world to price the core,
// names and shm layers, which rpc and stream leave idle (NOTES.md says
// why churn is not timed).
var sessions = workloadDef{gen: newChurn, count: churnSessions}

// slowLevel is the quantile over windows each timing figure reads:
// latencies at it, rates at 1 − it (see timing).
const slowLevel = 0.9

const (
	setupReps    = 21      // world builds timed for setup_s, spread over the timed phase
	traceRingCap = 1 << 17 // events per CPU; must hold a whole count phase
	maxSpans     = 600_000
	reserveSpans = 40_000                   // room for the traced-only phases after the timed one
	spanDir      = ".bench_build/perfbench" // where traced runs write their spans
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rpc or stream")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload rpc|stream --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(def, *seed, dur)
	} else {
		res, err = runTraced(def, *seed, dur, fmt.Sprintf("%s/spans-%s-%d.tsv", spanDir, *name, *seed))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.6g %s\n", *name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is one configuration of a workload: its systems' boot options
// and the runner on the current world.
type pass struct {
	def  workloadDef
	wl   workload
	spec *worldSpec
	opts []paramecium.Option
	r    runner
	n    int // requests run on the world

	attempted, failed int
	firstErr          error
	ms                runtime.MemStats
}

// build builds the pass's world and starts the workload on it.
func (p *pass) build() error {
	w, err := buildWorld(p.spec, p.opts...)
	if err != nil {
		return fmt.Errorf("build world: %w", err)
	}
	if p.r, err = p.wl.start(w); err != nil {
		return fmt.Errorf("start workload: %w", err)
	}
	return nil
}

// run performs requests: exactly n when n > 0, otherwise until the
// deadline passes or the sample storage (lat, the tracer) is spent.
// It returns lat extended by each request's latency in ns.
func (p *pass) run(n int, deadline time.Time, lat []int64, t *tracer) ([]int64, error) {
	now := time.Now()
	for done := 0; ; done++ {
		if n > 0 {
			if done == n {
				break
			}
		} else if !now.Before(deadline) || len(lat) == cap(lat) || t.full() {
			break
		}
		if t != nil {
			t.req++ // one id per request across all of the tracer's passes
		}
		t0 := time.Now()
		err := p.r.request(p.n, t)
		d := time.Since(t0)
		now = t0.Add(d)
		p.n++
		p.attempted++
		if err != nil {
			p.failed++
			p.noteFailure(fmt.Errorf("request %d: %w", p.n-1, err))
		}
		if cap(lat) > 0 {
			lat = append(lat, int64(d))
		}
	}
	return lat, nil
}

// heapLive forces a collection and returns the live heap, keeping the
// current system reachable until after the reading: otherwise the GC
// frees it and the reading measures nothing.
func (p *pass) heapLive() uint64 {
	runtime.GC()
	runtime.ReadMemStats(&p.ms)
	if p.r != nil {
		runtime.KeepAlive(p.r.system())
	}
	return p.ms.HeapAlloc
}

// counted is what the count phase measured: deltas over exactly
// def.count requests. For a given seed the virtual cycles repeat
// exactly and the allocations to within a few (see the self-test).
type counted struct {
	cycles, mallocs, bytes uint64
	retained               float64 // live-heap growth per request
	before, after          ledgerMark
}

// countPhase runs def.count requests and reads the virtual clock, the
// allocator and — with ledger set — the flight recorder around them.
func (p *pass) countPhase(ledger bool) (counted, error) {
	var c counted
	sys := p.r.system()
	var err error
	if ledger {
		if c.before, err = markLedger(sys); err != nil {
			return c, err
		}
	}
	live0 := p.heapLive()
	mallocs0, bytes0 := p.ms.Mallocs, p.ms.TotalAlloc
	cyc0 := sys.Cycles()
	if _, err := p.run(p.def.count, time.Time{}, nil, nil); err != nil {
		return c, err
	}
	c.cycles = sys.Cycles() - cyc0
	runtime.ReadMemStats(&p.ms)
	c.mallocs, c.bytes = p.ms.Mallocs-mallocs0, p.ms.TotalAlloc-bytes0
	c.retained = (float64(p.heapLive()) - float64(live0)) / float64(p.def.count)
	if ledger {
		if c.after, err = markLedger(sys); err != nil {
			return c, err
		}
	}
	return c, nil
}

// timing is what a timed phase measured. Latencies are summarised per
// window of def.window consecutive requests — the same requests in
// every window, tens of ms of them — and each figure is the
// slowLevel quantile over windows: host speed switches between two
// levels every few tens of ms, and the share of windows at the faster
// one varies from a tenth to over half between runs (NOTES.md,
// finding 8). The median over windows jumps between the levels with
// that share; the slowLevel quantile reads the slower level, present
// in every run.
type timing struct {
	p50, p95, reqPerS float64 // µs, µs, 1/s
}

// timedPhase runs requests for d, or until the sample storage is
// spent, and summarises the complete windows. It splits d into
// len(setups)+1 stretches and between two stretches times one build of
// a spare world into setups[i], so set-up time is sampled across the
// run, as the latencies are, and not only in its first tenth of a
// second: host speed drifts by phases (NOTES.md, finding 5). The
// builds and the collections around them are not request time.
func (p *pass) timedPhase(d time.Duration, t *tracer, setups []time.Duration) (timing, error) {
	var tm timing
	lat, free, err := offHeap[int64](int(d.Seconds()*float64(p.def.maxRate)) + 1)
	if err != nil {
		return tm, err
	}
	defer free()
	lat = lat[:0]
	start, stretches := time.Now(), len(setups)+1
	for i := range stretches {
		if lat, err = p.run(0, start.Add(d*time.Duration(i+1)/time.Duration(stretches)), lat, t); err != nil {
			return tm, err
		}
		if i < len(setups) {
			if setups[i], err = p.spareBuild(); err != nil {
				return tm, err
			}
		}
	}
	windows := len(lat) / p.def.window
	if windows == 0 {
		return tm, fmt.Errorf("timed phase completed %d requests, less than one window of %d", len(lat), p.def.window)
	}
	p50, p95, rate := make([]float64, windows), make([]float64, windows), make([]float64, windows)
	for i := range p50 {
		win := lat[i*p.def.window : (i+1)*p.def.window]
		var busy int64
		for _, x := range win {
			busy += x
		}
		rate[i] = float64(len(win)) / (float64(busy) / 1e9)
		p50[i] = quantile(win, 0.50) / 1e3
		p95[i] = quantile(win, 0.95) / 1e3
	}
	tm.p50, tm.p95 = quantile(p50, slowLevel), quantile(p95, slowLevel)
	tm.reqPerS = quantile(rate, 1-slowLevel)
	return tm, nil
}

// spareBuild builds a world beside the current one, on a collected
// heap, returns the host time Boot plus the world took and discards
// it, collecting its garbage before the next requests run.
func (p *pass) spareBuild() (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := buildWorld(p.spec, p.opts...)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("build world: %w", err)
	}
	w.sys.Shutdown()
	runtime.GC()
	return d, nil
}

func newPass(def workloadDef, seed uint64, opts ...paramecium.Option) *pass {
	rng := rand.New(rand.NewPCG(seed, 0x70617261))
	spec := newWorldSpec(rng)
	return &pass{def: def, spec: spec, wl: def.gen(rng, spec), opts: opts}
}

// noteFailure keeps the first failure for the report on stderr.
func (p *pass) noteFailure(err error) {
	if p.firstErr == nil {
		p.firstErr = err
		fmt.Fprintf(os.Stderr, "first failure: %v\n", err)
	}
}

func runEndToEnd(def workloadDef, seed uint64, d time.Duration) (*result, error) {
	p := newPass(def, seed)
	base := p.heapLive()
	if err := p.build(); err != nil {
		return nil, err
	}
	if _, err := p.run(def.warm, time.Time{}, nil, nil); err != nil {
		return nil, err
	}
	live := p.heapLive()
	c, err := p.countPhase(false)
	if err != nil {
		return nil, err
	}
	setups := make([]time.Duration, setupReps)
	tm, err := p.timedPhase(d, nil, setups)
	if err != nil {
		return nil, err
	}
	p.r.system().Shutdown()
	slices.Sort(setups)
	n := float64(def.count)
	return &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"req_per_s":           {tm.reqPerS, "1/s"},
			"latency_p50_us":      {tm.p50, "us"},
			"latency_p95_us":      {tm.p95, "us"},
			"vcycles_per_req":     {float64(c.cycles) / n, "cycles"},
			"allocs_per_req":      {float64(c.mallocs) / n, "count"},
			"alloc_bytes_per_req": {float64(c.bytes) / n, "B"},
			"heap_live_mib":       {(float64(live) - float64(base)) / (1 << 20), "MiB"},
			"setup_s":             {setups[setupReps/2].Seconds(), "s"},
			"success_ratio":       {float64(p.attempted-p.failed) / float64(p.attempted), "ratio"},
		},
	}, nil
}
