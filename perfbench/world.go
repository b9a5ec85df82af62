package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"paramecium"
	"paramecium/api"
)

// World shape: every run of every workload first builds this seeded
// world, and setup_s times exactly that (Boot included).
const (
	worldGroups     = 8  // /w/g<i>
	worldSubdirs    = 8  // /w/g<i>/s<j>, each holding depth-4 leaves
	worldDeepLeaves = 7  // /w/g<i>/s<j>/n<k>
	worldFlatLeaves = 8  // /w/g<i>/n<k>, the depth-3 services
	worldClients    = 64 // client domains
	clientBinds     = 8  // distinct services each client binds and resolves
)

// svcIface is the one interface every world service exports. Each
// method folds a per-service key into its result, so a result proves
// which service answered as well as that the argument arrived intact.
const svcIface = "bench.svc.v1"

var svcDecl = api.MustInterfaceDecl(svcIface,
	api.MethodDecl{Name: "echo", NumIn: 1, NumOut: 1},
	api.MethodDecl{Name: "tag", NumIn: 1, NumOut: 1},
	api.MethodDecl{Name: "sum", NumIn: 1, NumOut: 1},
)

// Method indices into a resolved service's handles.
const (
	mEcho = iota
	mTag
	mSum
	numMethods
)

var methodNames = [numMethods]string{"echo", "tag", "sum"}

// errCheck marks a result that arrived but was wrong.
var errCheck = errors.New("perfbench: output check failed")

// checkResult fails unless res is exactly the one word want.
func checkResult(res []any, want uint64) error {
	if len(res) != 1 {
		return errCheck
	}
	if v, ok := res[0].(uint64); !ok || v != want {
		return errCheck
	}
	return nil
}

func echoOf(key, x uint64) uint64 { return x*0x9E3779B97F4A7C15 ^ key }

func tagOf(key uint64, s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h ^ key
}

// sumOf is a word-wise checksum: cheap next to the crossing even at
// 4 KiB, yet it reads every byte.
func sumOf(key uint64, p []byte) uint64 {
	h := key
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p)) * 0x100000001B3
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	return h ^ uint64(len(p))
}

// service is one world service: its path, its key and the expected
// result of a call, computed on the benchmark side.
type service struct {
	path string
	key  uint64
}

func (s *service) expect(m int, arg any) uint64 {
	switch m {
	case mEcho:
		return echoOf(s.key, arg.(uint64))
	case mTag:
		return tagOf(s.key, arg.(string))
	default:
		return sumOf(s.key, arg.([]byte))
	}
}

// newService builds the object behind s. Methods use the
// buffer-threading form, so a call allocates only its boxed result.
func newService(sys *paramecium.System, s *service) (*api.Object, error) {
	o := sys.NewObject("bench-svc")
	bi, err := o.AddInterface(svcDecl, nil)
	if err != nil {
		return nil, err
	}
	key := s.key
	bi.MustBindInto("echo", func(out []any, args ...any) ([]any, error) {
		x, ok := args[0].(uint64)
		if !ok {
			return nil, fmt.Errorf("echo: argument %T", args[0])
		}
		return append(out, echoOf(key, x)), nil
	}).MustBindInto("tag", func(out []any, args ...any) ([]any, error) {
		x, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("tag: argument %T", args[0])
		}
		return append(out, tagOf(key, x)), nil
	}).MustBindInto("sum", func(out []any, args ...any) ([]any, error) {
		x, ok := args[0].([]byte)
		if !ok {
			return nil, fmt.Errorf("sum: argument %T", args[0])
		}
		return append(out, sumOf(key, x)), nil
	})
	return o, nil
}

// worldSpec is the seeded description of a world; building it is
// what setup_s times, so everything random is drawn beforehand.
type worldSpec struct {
	services []service
	// binds[c] lists the service indices client c binds.
	binds [worldClients][clientBinds]int
	names [worldClients]string
}

func newWorldSpec(rng *rand.Rand) *worldSpec {
	ws := &worldSpec{}
	for g := 0; g < worldGroups; g++ {
		for k := 0; k < worldFlatLeaves; k++ {
			ws.services = append(ws.services, service{path: fmt.Sprintf("/w/g%d/n%d", g, k)})
		}
		for s := 0; s < worldSubdirs; s++ {
			for k := 0; k < worldDeepLeaves; k++ {
				ws.services = append(ws.services, service{path: fmt.Sprintf("/w/g%d/s%d/n%d", g, s, k)})
			}
		}
	}
	for i := range ws.services {
		ws.services[i].key = rng.Uint64()
	}
	for c := range ws.binds {
		ws.names[c] = fmt.Sprintf("client-%02d", c)
		perm := rng.Perm(len(ws.services))
		copy(ws.binds[c][:], perm[:clientBinds])
	}
	return ws
}

// client is one client domain with its bound, resolved services.
type client struct {
	dom     *paramecium.Domain
	handles [clientBinds][numMethods]api.MethodHandle
}

// world is a built worldSpec on a booted system.
type world struct {
	spec    *worldSpec
	sys     *paramecium.System
	clients [worldClients]client
}

// buildWorld boots a system and builds the spec on it: every service
// registered kernel-resident, every client domain created with its
// services bound (proxies) and all their methods resolved.
func buildWorld(ws *worldSpec, opts ...paramecium.Option) (*world, error) {
	sys, err := paramecium.Boot(opts...)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	w := &world{spec: ws, sys: sys}
	for i := range ws.services {
		s := &ws.services[i]
		o, err := newService(sys, s)
		if err != nil {
			return nil, err
		}
		if err := sys.Register(s.path, o); err != nil {
			return nil, fmt.Errorf("register %s: %w", s.path, err)
		}
	}
	for c := range w.clients {
		cl := &w.clients[c]
		cl.dom = sys.NewDomain(ws.names[c])
		for b, si := range ws.binds[c] {
			if cl.handles[b], err = resolveAll(cl.dom.Bind, ws.services[si].path); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// resolveAll binds path with bind and resolves every service method.
func resolveAll(bind func(string) (*paramecium.Handle, error), path string) ([numMethods]api.MethodHandle, error) {
	var hs [numMethods]api.MethodHandle
	h, err := bind(path)
	if err != nil {
		return hs, fmt.Errorf("bind %s: %w", path, err)
	}
	for m := range hs {
		if hs[m], err = h.Resolve(svcIface, methodNames[m]); err != nil {
			return hs, fmt.Errorf("resolve %s.%s: %w", path, methodNames[m], err)
		}
	}
	return hs, nil
}

// spread returns n sizes spaced evenly (geometrically when geo is
// set) from lo to hi, in seeded order. Inputs draw their sizes from it
// rather than independently, so every seed runs the same mix of sizes
// — only their order and contents differ — and count metrics do not
// move from seed to seed.
func spread(rng *rand.Rand, n, lo, hi int, geo bool) []int {
	out := make([]int, n)
	for i := range out {
		f := float64(i) / float64(max(n-1, 1))
		if geo {
			out[i] = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
		} else {
			out[i] = lo + int(math.Round(f*float64(hi-lo)))
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// methodMix returns n method indices, an equal share of each, in
// seeded order.
func methodMix(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % numMethods
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.IntN(26))
	}
	return string(b)
}
