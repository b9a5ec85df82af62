// Package drivers contains the device drivers of the reproduction —
// ordinary Paramecium objects that live *outside* the nucleus and can
// be placed in the kernel or in an application protection domain.
// Each driver allocates its device's I/O space through the memory
// service and registers an interrupt call-back through the event
// service, exactly the resource path the paper prescribes.
package drivers

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/threads"
)

// NetDevIface is the interface name exported by network drivers.
const NetDevIface = "paramecium.netdev.v1"

// NetDevDecl is the type information of the network device interface.
var NetDevDecl = obj.MustInterfaceDecl(NetDevIface,
	obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},  // (frame []byte)
	obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},  // -> frame []byte or nil
	obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3}, // -> rx, tx, dropped
)

// ErrTxFailed is returned when the device rejects a transmit.
var ErrTxFailed = errors.New("drivers: transmit failed")

// NetDriver drives a simulated NIC: it drains the device ring into a
// software receive queue on interrupt and transmits via the device
// registers. It is an obj.Instance, so it can be registered in the
// name space, interposed upon, shared, and proxied across domains.
type NetDriver struct {
	*obj.Object
	nic   *hw.NIC
	grant *mem.IOGrant
	evt   *event.Service
	line  hw.IRQLine

	mu      sync.Mutex
	rxq     [][]byte
	rx, tx  uint64
	dropped uint64
}

// NetDriverConfig configures driver construction.
type NetDriverConfig struct {
	// Ctx is the protection domain the driver's interrupt call-back
	// runs in (kernel context for an in-kernel driver).
	Ctx mmu.ContextID
	// Dispatch selects the interrupt dispatch policy (the paper's
	// design is DispatchProto).
	Dispatch event.Dispatch
	// IOMode selects exclusive or shared I/O space. A driver that
	// other contexts must reach through shared on-device buffers uses
	// mem.IOShared.
	IOMode mem.IOMode
}

// NewNetDriver builds and starts a network driver for nic, its receive
// interrupt routed to the boot CPU.
func NewNetDriver(class string, nic *hw.NIC, svc *mem.Service, evt *event.Service, cfg NetDriverConfig) (*NetDriver, error) {
	grant, err := svc.AllocIOSpace(cfg.Ctx, nic.IORegion().Name, cfg.IOMode)
	if err != nil {
		return nil, fmt.Errorf("drivers: I/O space: %w", err)
	}
	d := &NetDriver{
		Object: obj.New(class, svc.Machine().Meter),
		nic:    nic,
		grant:  grant,
		evt:    evt,
		line:   nic.IRQ(),
	}
	bi, err := d.AddInterface(NetDevDecl, d)
	if err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	bi.MustBind("send", func(args ...any) ([]any, error) {
		frame, ok := args[0].([]byte)
		if !ok {
			return nil, fmt.Errorf("drivers: send wants []byte, got %T", args[0])
		}
		return nil, d.Send(frame)
	}).MustBind("recv", func(...any) ([]any, error) {
		frame, _ := d.Recv()
		return []any{frame}, nil
	}).MustBind("stats", func(...any) ([]any, error) {
		rx, tx, dr := d.Stats()
		return []any{rx, tx, dr}, nil
	})

	if err := evt.RegisterIRQOn(d.line, class+"-rx", cfg.Ctx, cfg.Dispatch, mmu.BootCPU, func(f *hw.TrapFrame, t *threads.Thread) {
		d.drainRing()
	}); err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, fmt.Errorf("drivers: IRQ: %w", err)
	}
	return d, nil
}

// drainRing moves every pending frame from device memory into the
// software receive queue.
func (d *NetDriver) drainRing() {
	regs := d.grant.Region
	for {
		pending, err := regs.ReadReg(hw.NICRegRxPending)
		if err != nil || pending == 0 {
			return
		}
		slot, _ := regs.ReadReg(hw.NICRegRxSlot)
		length, _ := regs.ReadReg(hw.NICRegRxLen)
		data, err := d.nic.SlotData(int(slot))
		if err != nil {
			return
		}
		frame := make([]byte, length)
		copy(frame, data[:length])
		_ = regs.WriteReg(hw.NICRegRxPop, 1)
		d.mu.Lock()
		d.rxq = append(d.rxq, frame)
		d.rx++
		d.mu.Unlock()
	}
}

// Recv pops the oldest received frame (nil, false when empty).
func (d *NetDriver) Recv() ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.rxq) == 0 {
		return nil, false
	}
	f := d.rxq[0]
	d.rxq = d.rxq[1:]
	return f, true
}

// Send transmits a frame through the device.
func (d *NetDriver) Send(frame []byte) error {
	if len(frame) > hw.NICSlotSize {
		return hw.ErrFrameTooBig
	}
	regs := d.grant.Region
	d.mu.Lock()
	defer d.mu.Unlock()
	// Use the last slot as a scratch transmit buffer. A production
	// driver would manage a transmit ring; one slot is enough for the
	// synchronous transmit the experiments need.
	slot := hw.NICSlots - 1
	data, err := d.nic.SlotData(slot)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	copy(data, frame)
	if err := regs.WriteReg(hw.NICRegTxSlot, uint64(slot)); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	if err := regs.WriteReg(hw.NICRegTxLen, uint64(len(frame))); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	if err := regs.WriteReg(hw.NICRegTxGo, 1); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	d.tx++
	return nil
}

// Stats reports frames received, transmitted and dropped (device-side
// ring overflows).
func (d *NetDriver) Stats() (rx, tx, dropped uint64) {
	d.mu.Lock()
	rx, tx = d.rx, d.tx
	d.mu.Unlock()
	return rx, tx, d.nic.Dropped()
}

// QueueLen reports frames waiting in the software receive queue.
func (d *NetDriver) QueueLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rxq)
}

// Close unregisters the interrupt and releases the I/O grant.
func (d *NetDriver) Close(svc *mem.Service) error {
	if err := d.evt.UnregisterIRQ(d.line); err != nil {
		return err
	}
	return svc.ReleaseIOSpace(d.grant)
}
