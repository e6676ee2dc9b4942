package xmath

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const testPrime = uint64(1152921504606830593) // 60-bit, ≡ 1 mod 2^17

func testModulus(t testing.TB) Modulus {
	t.Helper()
	if !IsPrime(testPrime) {
		t.Fatalf("test prime %d is not prime", testPrime)
	}
	return NewModulus(testPrime)
}

func TestNewModulusConstRatio(t *testing.T) {
	m := testModulus(t)
	// ConstRatio must equal floor(2^128 / p).
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	want := new(big.Int).Div(two128, new(big.Int).SetUint64(m.Value))
	got := new(big.Int).Lsh(new(big.Int).SetUint64(m.ConstRatio[1]), 64)
	got.Add(got, new(big.Int).SetUint64(m.ConstRatio[0]))
	if want.Cmp(got) != 0 {
		t.Fatalf("ConstRatio = %v, want %v", got, want)
	}
}

func TestNewModulusPanics(t *testing.T) {
	for _, bad := range []uint64{0, 1, 1 << 61} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) did not panic", bad)
				}
			}()
			NewModulus(bad)
		}()
	}
}

func TestAddSubNegMod(t *testing.T) {
	p := uint64(97)
	for a := uint64(0); a < p; a++ {
		for b := uint64(0); b < p; b++ {
			if got, want := AddMod(a, b, p), (a+b)%p; got != want {
				t.Fatalf("AddMod(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := SubMod(a, b, p), (a+p-b)%p; got != want {
				t.Fatalf("SubMod(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
		if got, want := NegMod(a, p), (p-a)%p; got != want {
			t.Fatalf("NegMod(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestBarrettReduceAgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(1))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64()
		want := new(big.Int).Mod(new(big.Int).SetUint64(a), pb).Uint64()
		if got := m.BarrettReduce(a); got != want {
			t.Fatalf("BarrettReduce(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestBarrettReduce128AgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(2))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		hi, lo := rng.Uint64()>>4, rng.Uint64() // keep below 2^124
		v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		v.Add(v, new(big.Int).SetUint64(lo))
		want := v.Mod(v, pb).Uint64()
		if got := m.BarrettReduce128(hi, lo); got != want {
			t.Fatalf("BarrettReduce128(%d,%d) = %d, want %d", hi, lo, got, want)
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(3))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % m.Value
		b := rng.Uint64() % m.Value
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, pb)
		if got := m.MulMod(a, b); got != want.Uint64() {
			t.Fatalf("MulMod(%d,%d) = %d, want %v", a, b, got, want)
		}
	}
}

func TestMAdModMatchesUnfused(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % m.Value
		b := rng.Uint64() % m.Value
		c := rng.Uint64() % m.Value
		want := AddMod(m.MulMod(a, b), c, m.Value)
		if got := m.MAdMod(a, b, c); got != want {
			t.Fatalf("MAdMod(%d,%d,%d) = %d, want %d", a, b, c, got, want)
		}
	}
}

func TestPowInvMod(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()%(m.Value-1) + 1
		inv := m.InvMod(a)
		if got := m.MulMod(a, inv); got != 1 {
			t.Fatalf("a * a^-1 = %d, want 1 (a=%d)", got, a)
		}
	}
	if got := m.PowMod(2, 10); got != 1024 {
		t.Fatalf("PowMod(2,10) = %d, want 1024", got)
	}
	if got := m.PowMod(7, 0); got != 1 {
		t.Fatalf("PowMod(7,0) = %d, want 1", got)
	}
}

func TestInvModZeroPanics(t *testing.T) {
	m := testModulus(t)
	defer func() {
		if recover() == nil {
			t.Fatal("InvMod(0) did not panic")
		}
	}()
	m.InvMod(0)
}

func TestMulModOperandLazyRange(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		w := NewMulModOperand(rng.Uint64()%m.Value, m)
		y := rng.Uint64() % m.Value
		lazy := w.MulModLazy(y, m.Value)
		if lazy >= 2*m.Value {
			t.Fatalf("lazy product %d outside [0, 2p)", lazy)
		}
		want := m.MulMod(w.Operand, y)
		if got := w.MulMod(y, m.Value); got != want {
			t.Fatalf("operand MulMod = %d, want %d", got, want)
		}
	}
}

func TestHarveyButterflyInvariants(t *testing.T) {
	m := testModulus(t)
	p := m.Value
	twoP := 2 * p
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() % (4 * p)
		y := rng.Uint64() % (4 * p)
		w := NewMulModOperand(rng.Uint64()%p, m)
		x2, y2 := HarveyButterfly(x, y, w, p, twoP)
		if x2 >= 4*p || y2 >= 4*p {
			t.Fatalf("butterfly output out of lazy range: %d %d", x2, y2)
		}
		// Check congruences.
		wy := m.MulMod(w.Operand, m.BarrettReduce(y))
		wantX := AddMod(m.BarrettReduce(x), wy, p)
		wantY := SubMod(m.BarrettReduce(x), wy, p)
		if ReduceToRange(x2, p) != wantX || ReduceToRange(y2, p) != wantY {
			t.Fatalf("butterfly result mismatch")
		}
	}
}

func TestGSButterflyInvariants(t *testing.T) {
	m := testModulus(t)
	p := m.Value
	twoP := 2 * p
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() % twoP
		y := rng.Uint64() % twoP
		w := NewMulModOperand(rng.Uint64()%p, m)
		x2, y2 := GSButterfly(x, y, w, p, twoP)
		if x2 >= twoP || y2 >= twoP {
			t.Fatalf("GS butterfly output out of range: %d %d", x2, y2)
		}
		wantX := AddMod(m.BarrettReduce(x), m.BarrettReduce(y), p)
		diff := SubMod(m.BarrettReduce(x), m.BarrettReduce(y), p)
		wantY := m.MulMod(w.Operand, diff)
		if ReduceToRange(x2, p) != wantX || ReduceToRange(y2, p) != wantY {
			t.Fatalf("GS butterfly result mismatch")
		}
	}
}

// Property-based tests via testing/quick.

func TestQuickMulModCommutative(t *testing.T) {
	m := testModulus(t)
	f := func(a, b uint64) bool {
		a %= m.Value
		b %= m.Value
		return m.MulMod(a, b) == m.MulMod(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulModAssociative(t *testing.T) {
	m := testModulus(t)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Value, b%m.Value, c%m.Value
		return m.MulMod(m.MulMod(a, b), c) == m.MulMod(a, m.MulMod(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistributive(t *testing.T) {
	m := testModulus(t)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Value, b%m.Value, c%m.Value
		left := m.MulMod(a, AddMod(b, c, m.Value))
		right := AddMod(m.MulMod(a, b), m.MulMod(a, c), m.Value)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	m := testModulus(t)
	f := func(a, b uint64) bool {
		a, b = a%m.Value, b%m.Value
		return SubMod(AddMod(a, b, m.Value), b, m.Value) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMulModOperandMatchesBarrett pins that a Harvey operand built
// from a constant scalar w reduces y*w fully, to the same value as the
// Barrett-based Modulus.MulMod, over 50- and 60-bit NTT primes.
func TestQuickMulModOperandMatchesBarrett(t *testing.T) {
	for _, p := range []uint64{GeneratePrimes(50, 1, 4096)[0], testPrime} {
		m := NewModulus(p)
		f := func(w, y uint64) bool {
			w, y = w%p, y%p
			return NewMulModOperand(w, m).MulMod(y, p) == m.MulMod(y, w)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestMulAdd128DeferredSum pins the deferred key-switching sum: 256
// products of operands below 2^60 (the most 2*MaxModulusBits-bit
// products that fit in 128 bits) accumulated with MulAdd128 equal the
// math/big sum, and one BarrettReduce128 of that sum equals the
// per-term MAdMod chain, over 50-, 52- and 60-bit primes.
func TestMulAdd128DeferredSum(t *testing.T) {
	const terms = 1 << (128 - 2*MaxModulusBits)
	const maxOperand = 1<<MaxModulusBits - 1
	primes := []uint64{GeneratePrimes(50, 1, 4096)[0], GeneratePrimes(52, 1, 4096)[0], testPrime}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		as, bs := make([]uint64, terms), make([]uint64, terms)
		for i := range as {
			as[i], bs[i] = rng.Uint64()>>(64-MaxModulusBits), rng.Uint64()>>(64-MaxModulusBits)
			if trial == 0 {
				as[i], bs[i] = maxOperand, maxOperand
			}
		}
		var hi, lo uint64
		want := new(big.Int)
		for i := range as {
			hi, lo = MulAdd128(as[i], bs[i], hi, lo)
			want.Add(want, new(big.Int).Mul(new(big.Int).SetUint64(as[i]), new(big.Int).SetUint64(bs[i])))
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Add(got, new(big.Int).SetUint64(lo))
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MulAdd128 sum = %v, want %v", trial, got, want)
		}
		for _, p := range primes {
			m := NewModulus(p)
			var chained uint64
			for i := range as {
				chained = m.MAdMod(as[i], bs[i], chained)
			}
			if r := m.BarrettReduce128(hi, lo); r != chained {
				t.Fatalf("trial %d, p=%d: BarrettReduce128(sum) = %d, MAdMod chain = %d", trial, p, r, chained)
			}
		}
	}
}

func BenchmarkMulMod(b *testing.B) {
	m := NewModulus(testPrime)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = m.MulMod(x, x|1)
	}
	sink = x
}

func BenchmarkMAdMod(b *testing.B) {
	m := NewModulus(testPrime)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = m.MAdMod(x, x|1, x>>1)
	}
	sink = x
}

func BenchmarkHarveyLazyMul(b *testing.B) {
	m := NewModulus(testPrime)
	w := NewMulModOperand(987654321987654, m)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = w.MulModLazy(x, m.Value) % m.Value
	}
	sink = x
}

var sink uint64
