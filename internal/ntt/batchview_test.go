package ntt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/xmath"
)

// viewFixture builds tables, a contiguous reference batch and a
// scattered BatchView (every row its own allocation) with identical
// contents.
func viewFixture(t testing.TB, n, polys, qCount int, seed int64) ([]*Tables, []uint64, *BatchView) {
	t.Helper()
	primes := xmath.GeneratePrimes(50, qCount, n)
	tbls := make([]*Tables, qCount)
	for q, p := range primes {
		tbls[q] = NewTables(n, xmath.NewModulus(p))
	}
	rng := rand.New(rand.NewSource(seed))
	flat := make([]uint64, polys*qCount*n)
	view := NewBatchView(polys, qCount, n)
	for p := 0; p < polys; p++ {
		for q := 0; q < qCount; q++ {
			row := make([]uint64, n) // deliberately non-contiguous
			s := sliceOf(flat, p, q, qCount, n)
			for i := range row {
				v := rng.Uint64() % tbls[q].Modulus.Value
				row[i] = v
				s[i] = v
			}
			view.SetRow(p, q, row)
		}
	}
	return tbls, flat, view
}

// TestBatchViewMatchesContiguous pins the fusion contract of the view
// path: ForwardView/InverseView over rows scattered across separate
// allocations produce bit-for-bit the same transforms as the classic
// contiguous Forward/Inverse, for every variant.
func TestBatchViewMatchesContiguous(t *testing.T) {
	const n, polys, qCount = 1 << 9, 3, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tbls, flat, view := viewFixture(t, n, polys, qCount, int64(100+v))
			q := queues1(gpu.NewDevice1())
			e := NewEngine(v)

			compare := func(phase string) {
				t.Helper()
				for p := 0; p < polys; p++ {
					for qi := 0; qi < qCount; qi++ {
						want := sliceOf(flat, p, qi, qCount, n)
						got := view.Row(p, qi)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s row (%d,%d)[%d]: view %d vs contiguous %d", phase, p, qi, i, got[i], want[i])
							}
						}
					}
				}
			}

			e.Forward(q, flat, polys, tbls)
			e.ForwardView(q, view, tbls)
			compare("forward")

			e.Inverse(q, flat, polys, tbls)
			e.InverseView(q, view, tbls)
			compare("inverse")
		})
	}
}

// TestBatchViewKernelPlan pins the fusion economics: a k-poly view
// launches exactly as many kernels as a 1-poly batch (launch overhead
// is per transform round, not per poly), and the same count as the
// contiguous path of equal shape.
func TestBatchViewKernelPlan(t *testing.T) {
	const n, qCount = 1 << 12, 3
	for _, v := range AllVariants() {
		e := NewAnalyticEngine(v)
		tbls, _, view := viewFixture(t, n, 4, qCount, int64(7+v))
		one := len(e.BuildKernels(nil, 1, tbls, true))
		k4 := len(e.BuildKernelsView(view, tbls, true))
		flat4 := len(e.BuildKernels(nil, 4, tbls, true))
		if one == 0 || k4 != one || flat4 != one {
			t.Fatalf("%v: kernel counts 1-poly=%d view4=%d flat4=%d; want all equal and nonzero", v, one, k4, flat4)
		}
	}
}

// TestBatchViewChecks pins the guard rails: unset rows, short rows and
// mismatched shapes panic before a functional launch touches memory.
func TestBatchViewChecks(t *testing.T) {
	const n = 1 << 9
	tbls, _, _ := viewFixture(t, n, 1, 2, 3)
	q := queues1(gpu.NewDevice1())
	e := NewEngine(LocalRadix8)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unset row", func() {
		v := NewBatchView(1, 2, n)
		v.SetRow(0, 0, make([]uint64, n))
		e.ForwardView(q, v, tbls) // row (0,1) missing
	})
	expectPanic("short row", func() {
		v := NewBatchView(1, 2, n)
		v.SetRow(0, 0, make([]uint64, 10))
	})
	expectPanic("tables mismatch", func() {
		v := NewBatchView(1, 1, n)
		v.SetRow(0, 0, make([]uint64, n))
		e.ForwardView(q, v, tbls) // 2 tables vs 1 column
	})
}

// TestBatchViewSkipRow pins the row-skip contract for every variant,
// forward and inverse: a skipped row is never touched (it may even be
// nil), every other row equals the serial reference, the kernel plan
// and its analytic profiles ignore the skips, and a nil row that is not
// skipped still panics.
func TestBatchViewSkipRow(t *testing.T) {
	// 8192 points: the SLM variants run a global round as well.
	const n, polys, qCount = 1 << 13, 2, 3
	const sentinel = ^uint64(0)
	for _, v := range AllVariants() {
		for _, forward := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/forward=%v", v, forward), func(t *testing.T) {
				tbls, _, full := viewFixture(t, n, polys, qCount, int64(200+v))
				view := NewBatchView(polys, qCount, n)
				want := make([][]uint64, polys*qCount)
				for p := 0; p < polys; p++ {
					for q := 0; q < qCount; q++ {
						row := append([]uint64(nil), full.Row(p, q)...)
						want[p*qCount+q] = append([]uint64(nil), row...)
						if forward {
							Forward(want[p*qCount+q], tbls[q])
						} else {
							Inverse(want[p*qCount+q], tbls[q])
						}
						switch {
						case p == 0 && q == 1: // skipped and nil
						case p == 1 && q == 2: // skipped, holding a sentinel
							for i := range row {
								row[i] = sentinel
							}
							view.SetRow(p, q, row)
						default:
							view.SetRow(p, q, row)
						}
					}
				}
				view.SkipRow(0, 1)
				view.SkipRow(1, 2)

				e := NewEngine(v)
				plain, skipped := e.BuildKernelsView(full, tbls, forward), e.BuildKernelsView(view, tbls, forward)
				if len(plain) != len(skipped) {
					t.Fatalf("%d kernels with skips, %d without", len(skipped), len(plain))
				}
				for i := range plain {
					if plain[i].Name != skipped[i].Name || !reflect.DeepEqual(plain[i].Profile, skipped[i].Profile) {
						t.Fatalf("kernel %d: %q %+v with skips, %q %+v without",
							i, skipped[i].Name, skipped[i].Profile, plain[i].Name, plain[i].Profile)
					}
				}

				q := queues1(gpu.NewDevice1())
				if forward {
					e.ForwardView(q, view, tbls)
				} else {
					e.InverseView(q, view, tbls)
				}
				if view.Row(0, 1) != nil {
					t.Fatalf("skipped nil row (0,1) was installed")
				}
				for i, x := range view.Row(1, 2) {
					if x != sentinel {
						t.Fatalf("skipped row (1,2)[%d] = %d, want the sentinel untouched", i, x)
					}
				}
				for p := 0; p < polys; p++ {
					for qi := 0; qi < qCount; qi++ {
						if view.skipped(p, qi) {
							continue
						}
						if !reflect.DeepEqual(view.Row(p, qi), want[p*qCount+qi]) {
							t.Fatalf("row (%d,%d) differs from the serial reference", p, qi)
						}
					}
				}

				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not set") {
							t.Fatalf("unskipped nil row: recovered %v, want a \"not set\" panic", r)
						}
					}()
					bad := NewBatchView(1, 2, n)
					bad.SetRow(0, 0, make([]uint64, n))
					bad.SkipRow(0, 0)
					e.BuildKernelsView(bad, tbls[:2], forward) // row (0,1) nil, not skipped
				}()
			})
		}
	}
}
