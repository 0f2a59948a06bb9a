package cache

import (
	"errors"
	"testing"

	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// TestCancelInflightNotifiesWaiters covers the stale synthetic-inflight
// fix: a MarkInflight record whose upstream hop fails must be deleted and
// its waiters notified with the error — before the fix the record lived
// forever and every later consumer piggybacked on a transfer that could
// never complete.
func TestCancelInflightNotifiesWaiters(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	c := New(plat, false)
	audit := check.New(false)
	c.Audit = audit
	tl := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(16, 16))

	c.MarkInflight(tl, 3)
	var got []error
	tl.AddInflightWaiter(3, waiterFunc(func(err error) { got = append(got, err) }))
	tl.AddInflightWaiter(3, waiterFunc(func(err error) { got = append(got, err) }))

	bang := errors.New("upstream hop failed")
	c.CancelInflight(tl, 3, bang)

	if tl.InflightTo(3) {
		t.Fatal("under-transfer record survived cancellation")
	}
	if len(got) != 2 || got[0] != bang || got[1] != bang {
		t.Fatalf("waiters notified with %v, want the cancellation error twice", got)
	}
	// A consumer arriving after the cancellation plans a fresh transfer
	// instead of piggybacking on the dead record.
	if err := c.StartTransfer(tl, topology.Host, 3, nil); err != nil {
		t.Fatalf("fresh transfer after cancellation rejected: %v", err)
	}
	eng.Run()
	if !tl.ValidOn(3) {
		t.Fatal("replica never arrived after re-request")
	}
	c.AuditDrain()
	if !audit.Ok() {
		t.Fatalf("auditor flagged the cancel/re-request sequence: %v", audit.Violations())
	}
}

// TestCancelInflightEdgeCases pins down the boundary semantics: cancelling
// a missing record is a no-op; cancelling a started physical transfer is a
// programming error (transfers cannot fail in the model) and panics.
func TestCancelInflightEdgeCases(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	c := New(plat, false)
	tl := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(16, 16))

	c.CancelInflight(tl, 5, errors.New("x")) // no record: no-op

	if err := c.StartTransfer(tl, topology.Host, 2, nil); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cancelling a started transfer did not panic")
			}
		}()
		c.CancelInflight(tl, 2, errors.New("x"))
	}()
	eng.Run()
}

// TestStartTransferOOMError verifies the typed allocation failure: when
// nothing on the destination can be evicted, StartTransfer surfaces an
// *OOMError matching errors.Is(err, ErrDeviceOOM) with tile and device
// context, instead of the untyped string the fetch path used to panic on.
func TestStartTransferOOMError(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	tileBytes := int64(16 * 16 * matrix.WordSize)
	plat.GPUs[0].Mem = device.NewMemPool(tileBytes + 8)
	c := New(plat, false)
	a := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(16, 16))
	b := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(16, 16))

	if err := c.StartTransfer(a, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	// a@0 is under transfer, hence unevictable; b cannot fit.
	err := c.StartTransfer(b, topology.Host, 0, nil)
	if !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("err = %v, want ErrDeviceOOM", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err %T does not carry OOM context", err)
	}
	if oom.Dev != 0 || oom.Key != b.Key || oom.Need != tileBytes {
		t.Fatalf("OOM context = %+v, want dev 0, key %v, need %d", oom, b.Key, tileBytes)
	}
	eng.Run()
}
