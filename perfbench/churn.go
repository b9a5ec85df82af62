package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"

	"paramecium"
	"paramecium/api"
)

// churn: each request is one tenant session that writes the name
// space and the address-space tables rpc and stream only read. It is
// not timed end to end (NOTES.md, finding 8): the traced run ends with
// one pass of churnSessions sessions on a fresh traced world, whose
// spans price the core, names and shm layers. A session's cost grows
// with the sessions run before it on the same system (every teardown
// walks the directories earlier tenants left behind), so that pass is
// the same seeded sequence on every run.
const (
	churnSessions = 256
	churnBinds    = 3 // world services a tenant binds, resolves and calls
	churnSegPages = 4
)

type churnSession struct {
	name, peer, path string
	key              uint64 // the tenant service's key
	binds            [churnBinds]int
	args             [churnBinds][]any
	wants            [churnBinds]uint64
	peerArg          []any // the peer's call into the tenant service
	peerWant         uint64
	off              int
	data             []byte // stored by the peer, loaded back by the owner
}

type churnWorkload struct {
	sessions []churnSession
}

func newChurn(rng *rand.Rand, ws *worldSpec) workload {
	wl := &churnWorkload{sessions: make([]churnSession, churnSessions)}
	// World binds keep the world's share of depth-3 services, so every
	// seed walks the same number of name hops.
	var shallow, deep []int
	for i, s := range ws.services {
		if strings.Count(s.path, "/") == 3 {
			shallow = append(shallow, i)
		} else {
			deep = append(deep, i)
		}
	}
	picks := make([]bool, churnSessions*churnBinds) // true: depth 3
	for i := range len(picks) * len(shallow) / len(ws.services) {
		picks[i] = true
	}
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	sizes := spread(rng, churnSessions, 64, 8<<10, false)
	for i := range wl.sessions {
		s := &wl.sessions[i]
		s.name, s.peer = fmt.Sprintf("tenant-%d", i), fmt.Sprintf("peer-%d", i)
		s.path = fmt.Sprintf("/tenant/%d/svc", i)
		s.key = rng.Uint64()
		for b := range s.binds {
			from := deep
			if picks[i*churnBinds+b] {
				from = shallow
			}
			s.binds[b] = from[rng.IntN(len(from))]
			x := rng.Uint64()
			s.args[b] = []any{x}
			s.wants[b] = ws.services[s.binds[b]].expect(mEcho, x)
		}
		x := rng.Uint64()
		s.peerArg, s.peerWant = []any{x}, echoOf(s.key, x)
		s.data = randBytes(rng, sizes[i])
		s.off = rng.IntN(churnSegPages*4096 - len(s.data) + 1)
	}
	return wl
}

type churnRunner struct {
	wl  *churnWorkload
	w   *world
	out [1]any
	buf []byte
}

func (wl *churnWorkload) start(w *world) (runner, error) {
	return &churnRunner{wl: wl, w: w, buf: make([]byte, 8<<10+64)}, nil
}

func (r *churnRunner) system() *paramecium.System { return r.w.sys }

// bindCall binds path from d, resolves echo and calls it once.
func (r *churnRunner) bindCall(d *paramecium.Domain, path string, args []any, want uint64, t *tracer, root int32) error {
	sp := t.begin(spBind, root)
	h, err := d.Bind(path)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(spResolve, root)
	m, err := h.Resolve(svcIface, "echo")
	t.end(sp)
	if err != nil {
		return err
	}
	// Not spanned: obj.call_us is the rpc workload's call.
	res, err := m.CallInto(r.out[:0], args...)
	if err != nil {
		return err
	}
	return checkResult(res, want)
}

func (r *churnRunner) request(i int, t *tracer) error {
	s := &r.wl.sessions[i%churnSessions]
	sys := r.w.sys
	root := t.begin(spRequest, -1)
	defer t.end(root)

	sp := t.begin(spNewDomain, root)
	d := sys.NewDomain(s.name)
	t.end(sp)
	sp = t.begin(spNewDomain, root)
	peer := sys.NewDomain(s.peer)
	t.end(sp)
	// Both domains go even if a step fails, so a failed session
	// leaves no live tenant behind to skew the next.
	defer func() {
		for _, dd := range [...]*paramecium.Domain{peer, d} {
			sp := t.begin(spDestroy, root)
			_ = dd.Destroy()
			t.end(sp)
		}
	}()

	o, err := newService(sys, &service{path: s.path, key: s.key})
	if err != nil {
		return err
	}
	sp = t.begin(spRegister, root)
	err = d.Register(s.path, o)
	t.end(sp)
	if err != nil {
		return err
	}
	for b, si := range s.binds {
		if err := r.bindCall(d, r.w.spec.services[si].path, s.args[b], s.wants[b], t, root); err != nil {
			return err
		}
	}
	if err := r.bindCall(peer, s.path, s.peerArg, s.peerWant, t, root); err != nil {
		return err
	}

	seg, err := d.NewSegment(churnSegPages)
	if err != nil {
		return err
	}
	sp = t.begin(spGrant, root)
	ref, err := seg.Grant(peer, api.RW)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(spMap, root)
	att, err := seg.Map(ref)
	t.end(sp)
	if err != nil {
		return err
	}
	got := r.buf[:len(s.data)]
	sp = t.begin(spAccess, root)
	if err = att.Store(s.off, s.data); err == nil {
		err = seg.Load(s.off, got)
	}
	t.end(sp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, s.data) {
		return errCheck
	}
	sp = t.begin(spRevoke, root)
	err = seg.Revoke(ref)
	t.end(sp)
	if err != nil {
		return err
	}
	if err := att.Load(s.off, got[:1]); !errors.Is(err, api.ErrSegmentRevoked) {
		return fmt.Errorf("%w: access after revoke returned %v", errCheck, err)
	}
	return nil
}
