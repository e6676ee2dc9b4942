package ntt

import (
	"math/rand"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// testSetup builds a batch of random polynomials plus tables.
func testSetup(t testing.TB, n, qCount, polys int, seed int64) ([]uint64, []*Tables) {
	t.Helper()
	primes := xmath.GeneratePrimes(50, qCount, n)
	tbls := make([]*Tables, qCount)
	for i, p := range primes {
		tbls[i] = NewTables(n, xmath.NewModulus(p))
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]uint64, polys*qCount*n)
	for p := 0; p < polys; p++ {
		for q := 0; q < qCount; q++ {
			s := sliceOf(data, p, q, qCount, n)
			for i := range s {
				s[i] = rng.Uint64() % tbls[q].Modulus.Value
			}
		}
	}
	return data, tbls
}

func queues1(dev *gpu.Device) []*sycl.Queue {
	return []*sycl.Queue{sycl.NewQueue(dev, isa.CompilerGenerated)}
}

func TestEngineForwardMatchesReferenceAllVariants(t *testing.T) {
	const n, qCount, polys = 4096, 3, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			data, tbls := testSetup(t, n, qCount, polys, int64(v))
			want := append([]uint64(nil), data...)
			for p := 0; p < polys; p++ {
				for q := 0; q < qCount; q++ {
					Forward(sliceOf(want, p, q, qCount, n), tbls[q])
				}
			}
			dev := gpu.NewDevice1()
			NewEngine(v).Forward(queues1(dev), data, polys, tbls)
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("forward mismatch at %d: %d != %d", i, data[i], want[i])
				}
			}
		})
	}
}

func TestEngineInverseMatchesReferenceAllVariants(t *testing.T) {
	const n, qCount, polys = 4096, 2, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			data, tbls := testSetup(t, n, qCount, polys, 100+int64(v))
			want := append([]uint64(nil), data...)
			for p := 0; p < polys; p++ {
				for q := 0; q < qCount; q++ {
					Inverse(sliceOf(want, p, q, qCount, n), tbls[q])
				}
			}
			dev := gpu.NewDevice1()
			NewEngine(v).Inverse(queues1(dev), data, polys, tbls)
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("inverse mismatch at %d: %d != %d", i, data[i], want[i])
				}
			}
		})
	}
}

// TestEngineRadix8MatchesReferenceAllPaths compares LocalRadix8 with
// the serial reference element by element, in both directions, at the
// sizes that reach every radix-8 code path: N=2048 ends on a short
// (w=2) SLM round, N=8192 starts with a w=1 global round and N=32768
// with a w=3 global round. Rows live in separate allocations, so the
// batch runs through a non-contiguous BatchView.
func TestEngineRadix8MatchesReferenceAllPaths(t *testing.T) {
	const polys, qCount = 2, 2
	for _, n := range []int{2048, 8192, 32768} {
		tbls, want, view := viewFixture(t, n, polys, qCount, int64(n))
		q := queues1(gpu.NewDevice1())
		e := NewEngine(LocalRadix8)

		compare := func(dir string) {
			t.Helper()
			for p := 0; p < polys; p++ {
				for qi := 0; qi < qCount; qi++ {
					ref := sliceOf(want, p, qi, qCount, n)
					got := view.Row(p, qi)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("n=%d %s row (%d,%d)[%d]: engine %d, reference %d", n, dir, p, qi, i, got[i], ref[i])
						}
					}
				}
			}
		}

		for p := 0; p < polys; p++ {
			for qi := 0; qi < qCount; qi++ {
				Forward(sliceOf(want, p, qi, qCount, n), tbls[qi])
			}
		}
		e.ForwardView(q, view, tbls)
		compare("forward")

		// Fresh inputs for the inverse, so it is not only checked as
		// the undo of the forward transform.
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for p := 0; p < polys; p++ {
			for qi := 0; qi < qCount; qi++ {
				ref := sliceOf(want, p, qi, qCount, n)
				row := view.Row(p, qi)
				for i := range ref {
					ref[i] = rng.Uint64() % tbls[qi].Modulus.Value
					row[i] = ref[i]
				}
				Inverse(ref, tbls[qi])
			}
		}
		e.InverseView(q, view, tbls)
		compare("inverse")
	}
}

func TestEngineRoundTripOddSizes(t *testing.T) {
	// Sizes whose stage counts are not multiples of the radix width
	// exercise the remainder-round scheduling.
	for _, n := range []int{8192, 16384} {
		for _, v := range []Variant{LocalRadix8, LocalRadix16, SIMD16x8} {
			data, tbls := testSetup(t, n, 1, 1, int64(n)+int64(v))
			orig := append([]uint64(nil), data...)
			dev := gpu.NewDevice1()
			e := NewEngine(v)
			e.Forward(queues1(dev), data, 1, tbls)
			e.Inverse(queues1(dev), data, 1, tbls)
			for i := range data {
				if data[i] != orig[i] {
					t.Fatalf("n=%d %s: round trip mismatch at %d", n, v, i)
				}
			}
		}
	}
}

func TestEngineDualTileMatchesSingle(t *testing.T) {
	// Batch large enough that compute dominates launch overhead —
	// dual-tile submission only pays off at scale (Section IV-A.4).
	const n, qCount, polys = 4096, 4, 32
	data, tbls := testSetup(t, n, qCount, polys, 7)
	want := append([]uint64(nil), data...)
	dev := gpu.NewDevice1()
	NewEngine(LocalRadix8).Forward(queues1(dev), want, polys, tbls)

	dev2 := gpu.NewDevice1()
	qs := sycl.NewQueuesAllTiles(dev2, isa.CompilerGenerated)
	NewEngine(LocalRadix8).Forward(qs, data, polys, tbls)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("dual-tile functional result differs at %d", i)
		}
	}
	// And the dual-tile submission must be faster in simulated time.
	if dev2.DeviceTime() >= dev.DeviceTime() {
		t.Errorf("dual tile (%v) not faster than single (%v)", dev2.DeviceTime(), dev.DeviceTime())
	}
}

func TestTableIOpCounts(t *testing.T) {
	// Table I of the paper.
	want := map[int][3]float64{
		2:  {20, 28, 48},
		4:  {45, 112, 157},
		8:  {120, 336, 456},
		16: {260, 896, 1156},
	}
	for r, w := range want {
		other, butterfly, total := RoundOps(r)
		if other != w[0] || butterfly != w[1] || total != w[2] {
			t.Errorf("radix-%d ops = (%v,%v,%v), want %v (Table I)", r, other, butterfly, total, w)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	// 32K-point radix-8: one global round then four SLM rounds
	// (Section IV-B: "only two rounds of global memory access").
	e := NewEngine(LocalRadix8)
	rs := e.schedule(32768, true)
	if len(rs) != 5 {
		t.Fatalf("32K radix-8 rounds = %d, want 5", len(rs))
	}
	if !rs[0].global || rs[0].w != 3 {
		t.Errorf("first round must be a global radix-8 round: %+v", rs[0])
	}
	for _, r := range rs[1:] {
		if r.global || r.w != 3 {
			t.Errorf("SLM rounds must be radix-8: %+v", r)
		}
	}
	// Naive-free check: 4K fits entirely in SLM.
	rs4k := e.schedule(4096, true)
	for _, r := range rs4k {
		if r.global {
			t.Errorf("4K transform must not need global rounds: %+v", r)
		}
	}
	// Inverse mirrors forward: SLM rounds first.
	rsInv := e.schedule(32768, false)
	if rsInv[0].global || !rsInv[len(rsInv)-1].global {
		t.Error("inverse schedule must run SLM rounds before global rounds")
	}
}

func TestVariantProperties(t *testing.T) {
	if LocalRadix8.Radix() != 8 || NaiveRadix2.Radix() != 2 || SIMD32x8.Radix() != 2 {
		t.Error("radix mapping wrong")
	}
	if SIMD8x8.slots() != 1 || SIMD16x8.slots() != 2 || SIMD32x8.slots() != 4 {
		t.Error("slots mapping wrong")
	}
	if len(AllVariants()) != 7 {
		t.Error("expected 7 variants")
	}
}

func TestEngineNTTMultiplication(t *testing.T) {
	// End-to-end: GPU forward (radix-8), dyadic multiply, GPU inverse
	// must equal the schoolbook negacyclic product.
	const n = 4096
	dataA, tbls := testSetup(t, n, 1, 1, 21)
	dataB, _ := testSetup(t, n, 1, 1, 22)
	m := tbls[0].Modulus
	// dataB was generated with fresh tables of the same prime order;
	// regenerate under the same modulus for a valid product check.
	rng := rand.New(rand.NewSource(23))
	for i := range dataB {
		dataB[i] = rng.Uint64() % m.Value
	}
	want := NegacyclicConvolution(dataA[:n], dataB[:n], m)

	dev := gpu.NewDevice1()
	qs := queues1(dev)
	e := NewEngine(LocalRadix8)
	e.Forward(qs, dataA, 1, tbls)
	e.Forward(qs, dataB, 1, tbls)
	for i := 0; i < n; i++ {
		dataA[i] = m.MulMod(dataA[i], dataB[i])
	}
	e.Inverse(qs, dataA, 1, tbls)
	for i := 0; i < n; i++ {
		if dataA[i] != want[i] {
			t.Fatalf("NTT product mismatch at %d", i)
		}
	}
}

// benchRadix8 times the functional LocalRadix8 transform of one
// N=4096 polynomial under six moduli, the shape of a ciphertext
// component at the top level of the demo parameters.
func benchRadix8(b *testing.B, forward bool) {
	const n, qCount, polys = 4096, 6, 1
	data, tbls := testSetup(b, n, qCount, polys, 31)
	qs := queues1(gpu.NewDevice1())
	e := NewEngine(LocalRadix8)
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if forward {
			e.Forward(qs, data, polys, tbls)
		} else {
			e.Inverse(qs, data, polys, tbls)
		}
	}
}

func BenchmarkEngineForwardRadix8(b *testing.B) { benchRadix8(b, true) }

func BenchmarkEngineInverseRadix8(b *testing.B) { benchRadix8(b, false) }
