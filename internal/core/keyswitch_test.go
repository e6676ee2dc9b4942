package core

import (
	"fmt"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
)

// assertSameCiphertext checks got against the host oracle component by
// component, bit for bit.
func assertSameCiphertext(t *testing.T, got, want *ckks.Ciphertext, what string) {
	t.Helper()
	if got.Level != want.Level || len(got.Value) != len(want.Value) {
		t.Fatalf("%s: level %d with %d components, want level %d with %d",
			what, got.Level, len(got.Value), want.Level, len(want.Value))
	}
	for i := range want.Value {
		if !got.Value[i].Equal(want.Value[i]) {
			t.Fatalf("%s: component %d differs from the host evaluator", what, i)
		}
	}
}

// TestSwitchKeyMatchesHostAllLevels pins the device key switch (its
// ks_mad kernel defers reduction across digits, and the digit's own
// row reuses the target's NTT form) and the NTT-form rotation against
// the host evaluator, which reduces every digit with its own MAdMod and
// rotates in coefficient form: serial Relinearize/Rotate and the fused
// k=3 RelinearizeBatch/RotateBatch, rotating by 1 and by -1, must
// reproduce the host ciphertexts exactly at every level, under three
// NTT variants.
func TestSwitchKeyMatchesHostAllLevels(t *testing.T) {
	h := newHarness(t)
	const k = 3
	fresh := make([]*ckks.Ciphertext, 2*k)
	for i := range fresh {
		fresh[i], _ = h.randCT(int64(300 + i))
	}
	configs := map[string]Config{
		"opt-ntt-asm": OptNTTAsm(),
		"naive":       Naive(),
		"radix4":      {NTT: ntt.LocalRadix4},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			c := newCtx(t, h, cfg)
			cts := append([]*ckks.Ciphertext(nil), fresh...)
			for level := h.params.MaxLevel(); level >= 0; level-- {
				if level < h.params.MaxLevel() {
					for i := range cts {
						cts[i] = h.host.ModSwitch(cts[i])
					}
				}
				prods := make([]*ckks.Ciphertext, k)
				wantRelin := make([]*ckks.Ciphertext, k)
				for j := range prods {
					prods[j] = h.host.Mul(cts[j], cts[k+j])
					wantRelin[j] = h.host.Relinearize(prods[j])
				}

				d := c.Upload(prods[0])
				assertSameCiphertext(t, c.Download(c.Relinearize(d, h.rlk)), wantRelin[0],
					fmt.Sprintf("level %d serial Relinearize", level))
				ds, _, _ := c.UploadBatch(prods)
				gotRelin := c.DownloadBatch(c.RelinearizeBatch(ds, h.rlk))
				for j := 0; j < k; j++ {
					assertSameCiphertext(t, gotRelin[j], wantRelin[j],
						fmt.Sprintf("level %d RelinearizeBatch job %d", level, j))
				}

				for _, rot := range []struct {
					k  int
					gk *ckks.GaloisKey
				}{{1, h.gk}, {-1, h.gkNeg}} {
					wantRot := make([]*ckks.Ciphertext, k)
					for j := range wantRot {
						wantRot[j] = h.host.Rotate(cts[j], rot.k)
					}
					r := c.Upload(cts[0])
					assertSameCiphertext(t, c.Download(c.Rotate(r, rot.k, rot.gk)), wantRot[0],
						fmt.Sprintf("level %d serial Rotate(%d)", level, rot.k))
					rs, _, _ := c.UploadBatch(cts[:k])
					gotRot := c.DownloadBatch(c.RotateBatch(rs, rot.k, rot.gk))
					for j := 0; j < k; j++ {
						assertSameCiphertext(t, gotRot[j], wantRot[j],
							fmt.Sprintf("level %d RotateBatch(%d) job %d", level, rot.k, j))
					}
				}
			}
		})
	}
}

// TestFunctionalLaunchesMatchAnalytic pins that the functional path
// launches exactly the kernels the analytic path prices, row skips
// included: on fresh devices, a functional and an Analytic context run
// MulLinRSBatch, RotateBatch (k=3) and a serial Rotate, and their
// device traces must agree entry for entry in name and simulated
// cycles. A launch made on one path only fails it.
func TestFunctionalLaunchesMatchAnalytic(t *testing.T) {
	h := newHarness(t)
	const k = 3
	as, bs := make([]*ckks.Ciphertext, k), make([]*ckks.Ciphertext, k)
	for j := 0; j < k; j++ {
		as[j], _ = h.randCT(int64(600 + j))
		bs[j], _ = h.randCT(int64(700 + j))
	}
	var traces [2][]gpu.TraceEntry
	for i, analytic := range []bool{false, true} {
		cfg := OptNTTAsm()
		cfg.MemCache = true
		cfg.Analytic = analytic
		c := newCtx(t, h, cfg)
		da, _, _ := c.UploadBatch(as)
		db, _, _ := c.UploadBatch(bs)
		c.Device.EnableTrace()
		prods := c.MulLinRSBatch(da, db, h.rlk)
		c.RotateBatch(prods, 1, h.gk)
		c.Rotate(da[0], 1, h.gk)
		c.Wait()
		traces[i] = c.Device.Trace()
	}
	fn, an := traces[0], traces[1]
	if len(fn) == 0 || len(fn) != len(an) {
		t.Fatalf("functional trace has %d entries, analytic %d", len(fn), len(an))
	}
	for i := range fn {
		if fn[i].Name != an[i].Name || fn[i].Cycles != an[i].Cycles {
			t.Fatalf("entry %d: functional %s (%v cycles), analytic %s (%v cycles)",
				i, fn[i].Name, fn[i].Cycles, an[i].Name, an[i].Cycles)
		}
	}
}

// BenchmarkSwitchKeyBatch times the functional fused key switch: one
// MulLinBatch (tensor product plus relinearization) of k=4 jobs on the
// test parameters.
func BenchmarkSwitchKeyBatch(b *testing.B) {
	h := newHarness(b)
	const k = 4
	as, bs := make([]*ckks.Ciphertext, k), make([]*ckks.Ciphertext, k)
	for j := 0; j < k; j++ {
		as[j], _ = h.randCT(int64(400 + j))
		bs[j], _ = h.randCT(int64(500 + j))
	}
	cfg := OptNTTAsm()
	cfg.MemCache = true
	c := newCtx(b, h, cfg)
	da, _, _ := c.UploadBatch(as)
	db, _, _ := c.UploadBatch(bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := c.MulLinBatch(da, db, h.rlk)
		c.Wait()
		c.freeAllBatch(outs)
	}
}

// BenchmarkRotateBatch times the functional fused rotation: one
// RotateBatch (NTT-form automorphism plus key switch) of k=4 jobs on
// the test parameters.
func BenchmarkRotateBatch(b *testing.B) {
	h := newHarness(b)
	const k = 4
	cts := make([]*ckks.Ciphertext, k)
	for j := range cts {
		cts[j], _ = h.randCT(int64(800 + j))
	}
	cfg := OptNTTAsm()
	cfg.MemCache = true
	c := newCtx(b, h, cfg)
	ds, _, _ := c.UploadBatch(cts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := c.RotateBatch(ds, 1, h.gk)
		c.Wait()
		c.freeAllBatch(outs)
	}
}
