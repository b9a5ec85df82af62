package main

import (
	"fmt"
	"math/rand/v2"

	"paramecium"
	"paramecium/api"
)

// rpc: each request is a fixed group of single cross-domain calls from
// one client domain into kernel-resident services, one of them through
// an interposing agent. Sized at tens of µs so one request is many
// crossings, not one ~3 µs call.
const (
	rpcCalls  = 24 // plain cross-domain calls per request
	rpcShapes = 64 // distinct seeded requests, replayed in order
)

type rpcCall struct {
	bind, method int // client binding index and method
	args         []any
	want         uint64
}

type rpcShape struct {
	calls      [rpcCalls]rpcCall
	interposed rpcCall // echo through the agent; bind is unused
	at         int     // position of the interposed call in the request
}

type rpcWorkload struct {
	shapes     []rpcShape
	interposed int // service index behind the agent
}

func newRPC(rng *rand.Rand, ws *worldSpec) workload {
	wl := &rpcWorkload{shapes: make([]rpcShape, rpcShapes)}
	// The agent wraps a service client 0 has not bound, so its own
	// handles stay plain proxies.
	bound := map[int]bool{}
	for _, si := range ws.binds[0] {
		bound[si] = true
	}
	for wl.interposed = rng.IntN(len(ws.services)); bound[wl.interposed]; {
		wl.interposed = rng.IntN(len(ws.services))
	}
	agent := &ws.services[wl.interposed]
	// Each method gets a third of the calls (n is a multiple of
	// numMethods); strings are 8–64 bytes, byte slices 16 B–4 KiB
	// spaced geometrically.
	n := rpcShapes * rpcCalls
	methods := methodMix(rng, n)
	strs := spread(rng, n/numMethods, 8, 64, false)
	blobs := spread(rng, n/numMethods, 16, 4096, true)
	for i := range wl.shapes {
		sh := &wl.shapes[i]
		for j := range sh.calls {
			c := &sh.calls[j]
			c.bind, c.method = rng.IntN(clientBinds), methods[i*rpcCalls+j]
			var arg any
			switch c.method {
			case mEcho:
				arg = rng.Uint64()
			case mTag:
				arg, strs = randString(rng, strs[0]), strs[1:]
			default:
				arg, blobs = randBytes(rng, blobs[0]), blobs[1:]
			}
			c.args = []any{arg}
			c.want = ws.services[ws.binds[0][c.bind]].expect(c.method, arg)
		}
		arg := rng.Uint64()
		sh.interposed = rpcCall{method: mEcho, args: []any{arg}, want: agent.expect(mEcho, arg) + 1}
		sh.at = rng.IntN(rpcCalls + 1)
	}
	return wl
}

type rpcRunner struct {
	wl      *rpcWorkload
	w       *world
	handles *[clientBinds][numMethods]api.MethodHandle
	agent   api.MethodHandle
	out     [1]any
}

// start interposes an agent on one service — it adds one to echo's
// result, so a passing check proves the call went through it — and
// binds it from client 0.
func (wl *rpcWorkload) start(w *world) (runner, error) {
	path := w.spec.services[wl.interposed].path
	if _, err := w.sys.Interpose(path, func(target api.Instance) (api.Instance, error) {
		ip := w.sys.NewInterposer("bench-audit", target)
		err := ip.Wrap(svcIface, "echo", func(next api.Method, args ...any) ([]any, error) {
			res, err := next(args...)
			if err != nil {
				return nil, err
			}
			return []any{res[0].(uint64) + 1}, nil
		})
		return ip, err
	}); err != nil {
		return nil, fmt.Errorf("interpose %s: %w", path, err)
	}
	cl := &w.clients[0]
	hs, err := resolveAll(cl.dom.Bind, path)
	if err != nil {
		return nil, err
	}
	return &rpcRunner{wl: wl, w: w, handles: &cl.handles, agent: hs[mEcho]}, nil
}

func (r *rpcRunner) system() *paramecium.System { return r.w.sys }

func (r *rpcRunner) call(h api.MethodHandle, c *rpcCall, k spanKind, t *tracer, parent int32) error {
	sp := t.begin(k, parent)
	res, err := h.CallInto(r.out[:0], c.args...)
	t.end(sp)
	if err != nil {
		return err
	}
	return checkResult(res, c.want)
}

func (r *rpcRunner) request(i int, t *tracer) error {
	sh := &r.wl.shapes[i%rpcShapes]
	root := t.begin(spRequest, -1)
	defer t.end(root)
	for j := 0; j <= rpcCalls; j++ {
		if j == sh.at {
			if err := r.call(r.agent, &sh.interposed, spInterposed, t, root); err != nil {
				return err
			}
		}
		if j == rpcCalls {
			break
		}
		c := &sh.calls[j]
		if err := r.call(r.handles[c.bind][c.method], c, spCall, t, root); err != nil {
			return err
		}
	}
	return nil
}

// extra replays every shape's plain calls through kernel-resident
// handles on the same services — no proxy, no crossing — so
// obj.call_us − obj.direct_call_us isolates the crossing.
func (r *rpcRunner) extra(t *tracer) (int, error) {
	var direct [clientBinds][numMethods]api.MethodHandle
	for b, si := range r.w.spec.binds[0] {
		hs, err := resolveAll(r.w.sys.Bind, r.w.spec.services[si].path)
		if err != nil {
			return 0, err
		}
		direct[b] = hs
	}
	n := 0
	for rep := 0; rep < 16; rep++ {
		for i := range r.wl.shapes {
			for j := range r.wl.shapes[i].calls {
				c := &r.wl.shapes[i].calls[j]
				n++
				if err := r.call(direct[c.bind][c.method], c, spDirectCall, t, -1); err != nil {
					return n, err
				}
			}
		}
	}
	return n, nil
}
