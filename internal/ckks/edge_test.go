package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"
	"testing/quick"

	"xehe/internal/rns"
)

// Edge cases and failure injection on the scheme level.

func TestEncodeTooManyValuesPanics(t *testing.T) {
	c := ctx(t)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized encode did not panic")
		}
	}()
	c.enc.Encode(make([]complex128, c.params.Slots()+1), c.params.Scale, c.params.MaxLevel())
}

func TestRescaleAtLevelZeroPanics(t *testing.T) {
	c := ctx(t)
	ct := c.encr.Encrypt(c.enc.Encode(randomValues(4, 30), c.params.Scale, c.params.MaxLevel()))
	for ct.Level > 0 {
		ct = c.eval.ModSwitch(ct)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rescale at level 0 did not panic")
		}
	}()
	c.eval.Rescale(ct)
}

func TestModSwitchAtLevelZeroPanics(t *testing.T) {
	c := ctx(t)
	ct := c.encr.Encrypt(c.enc.Encode(randomValues(4, 31), c.params.Scale, c.params.MaxLevel()))
	for ct.Level > 0 {
		ct = c.eval.ModSwitch(ct)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("modswitch at level 0 did not panic")
		}
	}()
	c.eval.ModSwitch(ct)
}

func TestRelinearizeDegree1Panics(t *testing.T) {
	c := ctx(t)
	ct := c.encr.Encrypt(c.enc.Encode(randomValues(4, 32), c.params.Scale, c.params.MaxLevel()))
	defer func() {
		if recover() == nil {
			t.Fatal("relinearize of degree-1 ciphertext did not panic")
		}
	}()
	c.eval.Relinearize(ct)
}

// A modulus chain longer than rns.MaxChainPrimes would let the
// deferred key-switching sum wrap its 128-bit accumulator, so building
// its parameters must panic (before any prime is generated) and say
// why.
func TestTooManyChainPrimesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("parameters with too many chain primes did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "128-bit accumulator") {
			t.Fatalf("panic %q does not name the 128-bit accumulator", msg)
		}
	}()
	NewParameters(4096, rns.MaxChainPrimes+1, 50, 40, 52, 1<<40)
}

func TestEncryptAtLowerLevel(t *testing.T) {
	// Encoding directly at a lower level must work and decrypt.
	c := ctx(t)
	vals := randomValues(c.params.Slots(), 33)
	pt := c.enc.Encode(vals, c.params.Scale, 1)
	ct := c.encr.Encrypt(pt)
	if ct.Level != 1 {
		t.Fatalf("level = %d, want 1", ct.Level)
	}
	got := c.enc.Decode(c.decr.Decrypt(ct))
	if e := maxErr(vals, got); e > 1e-6 {
		t.Fatalf("low-level encrypt error %g", e)
	}
}

func TestEncodeZeroAndConstants(t *testing.T) {
	c := ctx(t)
	// All-zero vector round-trips exactly-ish.
	zero := make([]complex128, c.params.Slots())
	got := c.enc.Decode(c.enc.Encode(zero, c.params.Scale, c.params.MaxLevel()))
	for i, v := range got {
		if cmplx.Abs(v) > 1e-9 {
			t.Fatalf("zero slot %d decoded to %v", i, v)
		}
	}
	// A large constant survives (tests the big-float encode path when
	// scale * value exceeds 2^53).
	big := make([]complex128, 1)
	big[0] = complex(1<<20, 0)
	got = c.enc.Decode(c.enc.Encode(big, c.params.Scale, c.params.MaxLevel()))
	if math.Abs(real(got[0])-(1<<20)) > 1e-2 {
		t.Fatalf("large constant decoded to %v", got[0])
	}
}

// Property: homomorphic addition commutes with plaintext addition for
// random vectors.
func TestQuickHomomorphicAdditivity(t *testing.T) {
	c := ctx(t)
	slots := c.params.Slots()
	prop := func(seed1, seed2 int64) bool {
		a := randomValues(slots, seed1)
		b := randomValues(slots, seed2)
		cta := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
		ctb := c.encr.Encrypt(c.enc.Encode(b, c.params.Scale, c.params.MaxLevel()))
		got := c.enc.Decode(c.decr.Decrypt(c.eval.Add(cta, ctb)))
		for i := range a {
			if cmplx.Abs(got[i]-(a[i]+b[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: rotation composes — Rotate(Rotate(ct, 1), 1) decodes like
// a rotation by 2 of the plaintext.
func TestRotationComposition(t *testing.T) {
	c := ctx(t)
	slots := c.params.Slots()
	vals := randomValues(slots, 40)
	ct := c.encr.Encrypt(c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel()))
	r2 := c.eval.Rotate(c.eval.Rotate(ct, 1), 1)
	got := c.enc.Decode(c.decr.Decrypt(r2))
	for i := 0; i < slots; i++ {
		if cmplx.Abs(got[i]-vals[(i+2)%slots]) > 1e-3 {
			t.Fatalf("double rotation slot %d: %v vs %v", i, got[i], vals[(i+2)%slots])
		}
	}
}

// GaloisElement's square-and-multiply equals k repeated
// multiplications by 5 mod 2N for every rotation in [-N/2, N/2].
func TestGaloisElementMatchesRepeatedMultiplication(t *testing.T) {
	const n = 4096
	params := &Parameters{N: n}
	order := n / 2
	for k := -n / 2; k <= n/2; k++ {
		want := uint64(1)
		for i := 0; i < ((k%order)+order)%order; i++ {
			want = want * 5 % (2 * n)
		}
		if got := params.GaloisElement(k); got != want {
			t.Fatalf("GaloisElement(%d) = %d, want %d", k, got, want)
		}
	}
}

// Noise growth sanity: the error after a depth-3 squaring chain stays
// within the precision budget of the scale.
func TestNoiseGrowthBudget(t *testing.T) {
	c := ctx(t)
	vals := randomValues(c.params.Slots(), 41)
	ct := c.encr.Encrypt(c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel()))
	cur := ct
	want := append([]complex128(nil), vals...)
	for depth := 0; depth < 3; depth++ {
		cur = c.eval.Rescale(c.eval.Relinearize(c.eval.Square(cur)))
		for i := range want {
			want[i] *= want[i]
		}
	}
	got := c.enc.Decode(c.decr.Decrypt(cur))
	var worst float64
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	if worst > 0.05 {
		t.Fatalf("depth-3 worst error %g exceeds budget", worst)
	}
}

func TestDeterministicKeygen(t *testing.T) {
	// Same seed → identical secret keys; different seeds → different.
	p := TestParameters()
	sk1 := NewKeyGenerator(p, 99).GenSecretKey()
	sk2 := NewKeyGenerator(p, 99).GenSecretKey()
	sk3 := NewKeyGenerator(p, 100).GenSecretKey()
	if !sk1.Value.Equal(sk2.Value) {
		t.Fatal("same-seed keygen not deterministic")
	}
	if sk1.Value.Equal(sk3.Value) {
		t.Fatal("different seeds produced the same key")
	}
}
