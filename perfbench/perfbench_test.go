package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// The self-test runs every workload briefly: each window-sized phase
// still completes, so every metric is computed the way a full run
// computes it.
const selfTestRun = time.Second

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readDeclared loads the metric lists the benchmark file declares.
func readDeclared(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj.EndToEnd, bj.PerLayer
}

// checkPrinted fails unless res reports exactly the declared metrics,
// each with its declared unit.
func checkPrinted(t *testing.T, res *result, want []declared) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := readDeclared(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		def := workloads[name]
		t.Run(name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				res, err := runEndToEnd(def, 1, selfTestRun)
				if err != nil {
					t.Fatal(err)
				}
				checkPrinted(t, res, endToEnd)
				runs[i] = res
			}
			if a, b := runs[0].Metrics["vcycles_per_req"].Value, runs[1].Metrics["vcycles_per_req"].Value; a != b {
				t.Errorf("vcycles_per_req differs between two runs of seed 1: %v, %v", a, b)
			}
			// The allocation count moves by a few per count phase (about
			// 1e-5 of it) even with the GC off: the program's sync.Pool
			// caches are per P, and the scheduler may move the client
			// goroutine to the other P.
			const allocTol = 1e-4
			if a, b := runs[0].Metrics["allocs_per_req"].Value, runs[1].Metrics["allocs_per_req"].Value; math.Abs(a-b) > allocTol*a {
				t.Errorf("allocs_per_req differs between two runs of seed 1: %v, %v", a, b)
			}
			for seed, res := range map[uint64]*result{1: runs[0], 2: nil} {
				if res == nil {
					var err error
					if res, err = runEndToEnd(def, seed, selfTestRun); err != nil {
						t.Fatal(err)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Metrics["success_ratio"].Value != 1 {
					t.Errorf("seed %d: correct=%v failed=%d of %d", seed, res.Correct, res.Failed, res.Attempted)
				}
			}

			res, err := runTraced(def, 1, 2*selfTestRun, "")
			if err != nil {
				t.Fatal(err) // includes the virtual-cycle self-checks
			}
			checkPrinted(t, res, perLayer)
			if !res.Correct {
				t.Errorf("traced run: %d of %d requests failed", res.Failed, res.Attempted)
			}
		})
	}
}
