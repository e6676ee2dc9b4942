package core

import (
	"fmt"
	"testing"

	"xehe/internal/ckks"
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
// ks_mad kernel defers reduction across digits) against the host
// evaluator, which reduces every digit with its own MAdMod: serial
// Relinearize/Rotate and the fused k=3 RelinearizeBatch/RotateBatch
// must reproduce the host ciphertexts exactly at every level, under
// three NTT variants.
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
				wantRot := make([]*ckks.Ciphertext, k)
				for j := range prods {
					prods[j] = h.host.Mul(cts[j], cts[k+j])
					wantRelin[j] = h.host.Relinearize(prods[j])
					wantRot[j] = h.host.Rotate(cts[j], 1)
				}

				d := c.Upload(prods[0])
				assertSameCiphertext(t, c.Download(c.Relinearize(d, h.rlk)), wantRelin[0],
					fmt.Sprintf("level %d serial Relinearize", level))
				r := c.Upload(cts[0])
				assertSameCiphertext(t, c.Download(c.Rotate(r, 1, h.gk)), wantRot[0],
					fmt.Sprintf("level %d serial Rotate", level))

				ds, _, _ := c.UploadBatch(prods)
				gotRelin := c.DownloadBatch(c.RelinearizeBatch(ds, h.rlk))
				rs, _, _ := c.UploadBatch(cts[:k])
				gotRot := c.DownloadBatch(c.RotateBatch(rs, 1, h.gk))
				for j := 0; j < k; j++ {
					assertSameCiphertext(t, gotRelin[j], wantRelin[j],
						fmt.Sprintf("level %d RelinearizeBatch job %d", level, j))
					assertSameCiphertext(t, gotRot[j], wantRot[j],
						fmt.Sprintf("level %d RotateBatch job %d", level, j))
				}
			}
		})
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
