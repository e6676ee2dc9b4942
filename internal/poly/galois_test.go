package poly_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/xmath"
)

// TestGaloisPermutationMatchesAutomorphism pins the NTT-form rotation
// used by the device Rotate against the coefficient-form oracle:
// permuting Forward(a) by ntt.GaloisPermutation equals
// Forward(Automorphism(a)) bit for bit, for the Galois elements of
// rotations 1, -1, 2 and 5 and of conjugation (2N-1), at three ring
// degrees under two NTT primes each.
func TestGaloisPermutationMatchesAutomorphism(t *testing.T) {
	for _, n := range []int{2048, 4096, 8192} {
		params := &ckks.Parameters{N: n}
		galois := []uint64{
			params.GaloisElement(1), params.GaloisElement(-1),
			params.GaloisElement(2), params.GaloisElement(5),
			uint64(2*n - 1),
		}
		primes := xmath.GeneratePrimes(50, 2, n)
		moduli := make([]xmath.Modulus, len(primes))
		tbls := make([]*ntt.Tables, len(primes))
		for i, p := range primes {
			moduli[i] = xmath.NewModulus(p)
			tbls[i] = ntt.NewTables(n, moduli[i])
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := poly.New(n, len(moduli))
		for i, m := range moduli {
			for j := range a.Coeffs[i] {
				a.Coeffs[i][j] = rng.Uint64() % m.Value
			}
		}
		for _, g := range galois {
			t.Run(fmt.Sprintf("N=%d/g=%d", n, g), func(t *testing.T) {
				want := poly.New(n, len(moduli))
				poly.Automorphism(want, a, g, moduli)
				poly.NTT(want, tbls)

				fa := a.Clone()
				poly.NTT(fa, tbls)
				got := poly.New(n, len(moduli))
				perm := ntt.GaloisPermutation(n, g)
				for i := range got.Coeffs {
					ntt.PermuteRow(got.Coeffs[i], fa.Coeffs[i], perm)
				}
				got.IsNTT = true
				if !got.Equal(want) {
					t.Fatal("permuted NTT differs from the NTT of the automorphism")
				}
			})
		}
	}
}
