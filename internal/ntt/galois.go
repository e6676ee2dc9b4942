package ntt

import "xehe/internal/xmath"

// GaloisPermutation returns the table that applies the Galois map
// x -> x^galois (galois odd, below 2n) to an n-point transform in this
// package's NTT form, as SEAL's GaloisTool::apply_galois_ntt does:
// output i is input perm[i], with no sign changes and no arithmetic.
//
// Output index i of Forward holds the evaluation at ψ^e with
// e = 2·brv(i, logN)+1 = brv(n+i, logN+1). The automorphism moves the
// evaluation at ψ^(galois·e) there, which sits at index
// brv(((galois·e) >> 1) mod n, logN).
func GaloisPermutation(n int, galois uint64) []uint32 {
	logN := countStages(n)
	mask := uint64(n - 1)
	perm := make([]uint32, n)
	for i := range perm {
		e := xmath.ReverseBits(uint64(n+i), logN+1)
		perm[i] = uint32(xmath.ReverseBits(((galois*e)>>1)&mask, logN))
	}
	return perm
}

// PermuteRow writes dst[i] = src[perm[i]] for every i < len(dst): the
// NTT-form automorphism over one row range (dst and perm sliced alike).
func PermuteRow(dst, src []uint64, perm []uint32) {
	perm = perm[:len(dst)]
	for i, s := range perm {
		dst[i] = src[s]
	}
}
