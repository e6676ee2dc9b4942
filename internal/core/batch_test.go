package core

import (
	"fmt"
	"strings"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
)

// TestBatchOfOneLaunchesMatchSerial pins the property the scheduler's
// single worker path rests on: a *Batch routine over one job launches
// exactly what the serial routine launches — same kernels in the same
// order with the same simulated cycles, the same simulated-time cost —
// and produces a bit-identical result. Each op runs on fresh Device1
// contexts so the two sides start from identical device state.
func TestBatchOfOneLaunchesMatchSerial(t *testing.T) {
	h := newHarness(t)
	a, _ := h.randCT(900)
	b, _ := h.randCT(901)
	ops := []struct {
		name   string
		serial func(c *Context, a, b *Ciphertext) *Ciphertext
		batch  func(c *Context, a, b []*Ciphertext) []*Ciphertext
	}{
		{"Add",
			func(c *Context, a, b *Ciphertext) *Ciphertext { return c.Add(a, b) },
			func(c *Context, a, b []*Ciphertext) []*Ciphertext { return c.AddBatch(a, b) }},
		{"MulLin",
			func(c *Context, a, b *Ciphertext) *Ciphertext { return c.MulLin(a, b, h.rlk) },
			func(c *Context, a, b []*Ciphertext) []*Ciphertext { return c.MulLinBatch(a, b, h.rlk) }},
		{"MulLinRS",
			func(c *Context, a, b *Ciphertext) *Ciphertext { return c.MulLinRS(a, b, h.rlk) },
			func(c *Context, a, b []*Ciphertext) []*Ciphertext { return c.MulLinRSBatch(a, b, h.rlk) }},
		{"SqrLinRS",
			func(c *Context, a, _ *Ciphertext) *Ciphertext { return c.SqrLinRS(a, h.rlk) },
			func(c *Context, a, _ []*Ciphertext) []*Ciphertext { return c.SqrLinRSBatch(a, h.rlk) }},
		{"Rotate",
			func(c *Context, a, _ *Ciphertext) *Ciphertext { return c.RotateRoutine(a, 1, h.gk) },
			func(c *Context, a, _ []*Ciphertext) []*Ciphertext { return c.RotateBatch(a, 1, h.gk) }},
		{"ModSwitch",
			func(c *Context, a, _ *Ciphertext) *Ciphertext { return c.ModSwitch(a) },
			func(c *Context, a, _ []*Ciphertext) []*Ciphertext { return c.ModSwitchBatch(a) }},
	}
	// run uploads the inputs, synchronizes, then traces op alone.
	run := func(op func(c *Context, a, b *Ciphertext) *Ciphertext) ([]gpu.TraceEntry, float64, *ckks.Ciphertext) {
		cfg := OptNTTAsm()
		cfg.MemCache = true
		c := newCtx(t, h, cfg)
		da, db := c.Upload(a), c.Upload(b)
		c.Wait()
		c.Device.EnableTrace()
		before := c.Device.SimulatedSeconds()
		out := op(c, da, db)
		c.Wait()
		return c.Device.Trace(), c.Device.SimulatedSeconds() - before, c.Download(out)
	}
	for _, op := range ops {
		serialTrace, serialSec, serialOut := run(op.serial)
		batchTrace, batchSec, batchOut := run(func(c *Context, a, b *Ciphertext) *Ciphertext {
			return op.batch(c, []*Ciphertext{a}, []*Ciphertext{b})[0]
		})
		if len(serialTrace) == 0 || len(serialTrace) != len(batchTrace) {
			t.Fatalf("%s: serial trace has %d entries, batch of one %d", op.name, len(serialTrace), len(batchTrace))
		}
		for i := range serialTrace {
			s, b := serialTrace[i], batchTrace[i]
			if s.Name != b.Name || s.Cycles != b.Cycles {
				t.Fatalf("%s: entry %d: serial %s (%v cycles), batch of one %s (%v cycles)",
					op.name, i, s.Name, s.Cycles, b.Name, b.Cycles)
			}
		}
		if serialSec != batchSec {
			t.Fatalf("%s: serial took %g simulated seconds, batch of one %g", op.name, serialSec, batchSec)
		}
		assertSameCiphertext(t, batchOut, serialOut, op.name)
	}
}

// TestRotateRejectsMismatchedGaloisKey pins the Galois-key check: a key
// generated for another rotation must not run silently (the result
// would decrypt to garbage), on the serial and the fused path alike.
func TestRotateRejectsMismatchedGaloisKey(t *testing.T) {
	h := newHarness(t)
	cfg := OptNTTAsm()
	cfg.MemCache = true
	c := newCtx(t, h, cfg)
	cts := make([]*ckks.Ciphertext, 3)
	for j := range cts {
		cts[j], _ = h.randCT(int64(950 + j))
	}
	ds, _, _ := c.UploadBatch(cts)
	for name, rotate := range map[string]func(){
		"Rotate":          func() { c.Rotate(ds[0], 2, h.gk) },
		"RotateBatch k=3": func() { c.RotateBatch(ds, 2, h.gk) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s by 2 with the rotation-1 key did not panic", name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "Galois") {
					t.Fatalf("%s: panic %q does not name the Galois elements", name, msg)
				}
			}()
			rotate()
		}()
	}
}
