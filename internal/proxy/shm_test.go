package proxy

import (
	"bytes"
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/shm"
)

var shareDecl = obj.MustInterfaceDecl("test.share.v1",
	obj.MethodDecl{Name: "attach", NumIn: 1, NumOut: 1},
)

// TestGrantCrossesAsOneWord drives the zero-copy bulk path end to end
// at the proxy layer: the caller passes a grant capability instead of
// the payload, the target attaches the segment inside its method, and
// the cycle charges show one capability word crossed — not the
// payload's 4 KiB.
func TestGrantCrossesAsOneWord(t *testing.T) {
	f, svc, m := setup()
	reg := shm.NewRegistry(svc)
	f.SetGrantRegistry(reg)
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()

	payload := bytes.Repeat([]byte{0xAB}, mmu.PageSize)
	seg, err := reg.NewSegment(clientCtx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Store(0, payload); err != nil {
		t.Fatal(err)
	}
	g, err := seg.Grant(serverCtx, shm.RO)
	if err != nil {
		t.Fatal(err)
	}

	server := obj.New("server", m.Meter)
	got := make([]byte, len(payload))
	bi, err := server.AddInterface(shareDecl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("attach", func(args ...any) ([]any, error) {
		att, err := reg.Attach(args[0].(shm.GrantRef))
		if err != nil {
			return nil, err
		}
		if err := att.Load(0, got); err != nil {
			return nil, err
		}
		return []any{att.Size()}, nil
	})
	p, err := f.New(clientCtx, serverCtx, server)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.share.v1")

	before := m.Meter.Snapshot()
	res, err := iv.Invoke("attach", g.Ref())
	if err != nil {
		t.Fatal(err)
	}
	after := m.Meter.Snapshot()
	if res[0].(int) != mmu.PageSize {
		t.Fatalf("attach returned %v", res[0])
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("target did not observe the owner's payload through the segment")
	}
	// The grant crossed as ONE word; the payload crossed as zero. The
	// target's in-place read of the page is charged as its own memory
	// traffic (one word per 8 bytes read), but the INVOCATION PLANE
	// carried 1 argument word + 1 result word — compare the ~513 words
	// a copied 4 KiB argument would have been charged.
	crossed := after[clock.OpCopyWord] - before[clock.OpCopyWord]
	pageWords := uint64(mmu.PageSize / 8)
	// att.Load(0, 4096) charges pageWords of memory traffic; the call
	// itself adds 2 (capability word in, size word out).
	if want := pageWords + 2; crossed != want {
		t.Fatalf("copy words charged = %d, want %d (1 capability word + 1 result word + the target's own %d-word read)",
			crossed, want, pageWords)
	}
}

// TestMisaddressedGrantFailsBeforeCrossing: a grant addressed to some
// other domain fails the call during argument decode — no context
// switch, no copy charge — with the registry's distinct error.
func TestMisaddressedGrantFailsBeforeCrossing(t *testing.T) {
	f, svc, m := setup()
	reg := shm.NewRegistry(svc)
	f.SetGrantRegistry(reg)
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	thirdCtx := svc.NewDomain()

	seg, err := reg.NewSegment(clientCtx, 1)
	if err != nil {
		t.Fatal(err)
	}
	misaddressed, err := seg.Grant(thirdCtx, shm.RO) // NOT the server
	if err != nil {
		t.Fatal(err)
	}

	server := obj.New("server", m.Meter)
	ran := false
	bi, _ := server.AddInterface(shareDecl, nil)
	bi.MustBind("attach", func(args ...any) ([]any, error) {
		ran = true
		return []any{0}, nil
	})
	p, err := f.New(clientCtx, serverCtx, server)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.share.v1")

	before := m.Meter.Snapshot()
	_, err = iv.Invoke("attach", misaddressed.Ref())
	after := m.Meter.Snapshot()
	if !errors.Is(err, shm.ErrWrongDomain) {
		t.Fatalf("err = %v, want ErrWrongDomain", err)
	}
	if ran {
		t.Fatal("target method ran despite the misaddressed grant")
	}
	if got := after[clock.OpCtxSwitch] - before[clock.OpCtxSwitch]; got != 0 {
		t.Fatalf("%d context switches charged for a call rejected at decode, want 0", got)
	}
	if got := after[clock.OpCopyWord] - before[clock.OpCopyWord]; got != 0 {
		t.Fatalf("%d copy words charged for a rejected call, want 0", got)
	}

	// A forged ref and a revoked grant are rejected the same way, each
	// with its own distinct error.
	if _, err := iv.Invoke("attach", shm.GrantRef(12345)); !errors.Is(err, shm.ErrNoGrant) {
		t.Fatalf("forged ref: err = %v, want ErrNoGrant", err)
	}
	ok, err := seg.Grant(serverCtx, shm.RO)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.RevokeFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if _, err := iv.Invoke("attach", ok.Ref()); !errors.Is(err, shm.ErrRevoked) {
		t.Fatalf("revoked grant: err = %v, want ErrRevoked", err)
	}
	if ran {
		t.Fatal("target method ran despite rejected grants")
	}
}

// TestBatchEntryGrantFailureIsPerEntry: inside a vectored group, a bad
// grant capability fails only its own entry; the rest of the batch
// still runs in the one crossing.
func TestBatchEntryGrantFailureIsPerEntry(t *testing.T) {
	f, svc, m := setup()
	reg := shm.NewRegistry(svc)
	f.SetGrantRegistry(reg)
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	thirdCtx := svc.NewDomain()

	seg, err := reg.NewSegment(clientCtx, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := seg.Grant(serverCtx, shm.RO)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := seg.Grant(thirdCtx, shm.RO)
	if err != nil {
		t.Fatal(err)
	}

	server := obj.New("server", m.Meter)
	attached := 0
	bi, _ := server.AddInterface(shareDecl, nil)
	bi.MustBind("attach", func(args ...any) ([]any, error) {
		if _, err := reg.Attach(args[0].(shm.GrantRef)); err != nil {
			return nil, err
		}
		attached++
		return []any{attached}, nil
	})
	p, err := f.New(clientCtx, serverCtx, server)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.share.v1")
	attach, err := iv.Resolve("attach")
	if err != nil {
		t.Fatal(err)
	}

	b := obj.NewBatch(3)
	_ = b.Add(attach, good.Ref())
	_ = b.Add(attach, bad.Ref())
	_ = b.Add(attach, good.Ref()) // idempotent re-attach
	if err := b.Run(); err != nil {
		t.Fatalf("group error = %v, want per-entry failure only", err)
	}
	if _, err := b.Results(0); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	if _, err := b.Results(1); !errors.Is(err, shm.ErrWrongDomain) {
		t.Fatalf("entry 1: err = %v, want ErrWrongDomain", err)
	}
	if _, err := b.Results(2); err != nil {
		t.Fatalf("entry 2: %v", err)
	}
	if attached != 2 {
		t.Fatalf("attached = %d, want 2 (entries around the failure ran)", attached)
	}

	// A group whose every entry fails grant decode never switches into
	// the target: the switch is paid just before the first entry that
	// decodes, and here none does.
	b.Reset()
	_ = b.Add(attach, bad.Ref())
	_ = b.Add(attach, bad.Ref())
	before := m.Meter.Snapshot()
	if err := b.Run(); err != nil {
		t.Fatalf("all-bad group error = %v, want per-entry failures only", err)
	}
	after := m.Meter.Snapshot()
	for i := 0; i < b.Len(); i++ {
		if _, err := b.Results(i); !errors.Is(err, shm.ErrWrongDomain) {
			t.Fatalf("all-bad entry %d: err = %v, want ErrWrongDomain", i, err)
		}
	}
	for _, op := range []clock.Op{clock.OpCtxSwitch, clock.OpCopyWord, clock.OpBatchEntry} {
		if got := after[op] - before[op]; got != 0 {
			t.Fatalf("all-bad group charged %d %v, want 0", got, op)
		}
	}
	if attached != 2 {
		t.Fatalf("attached = %d after an all-bad group, want still 2", attached)
	}
}
