package numtheory

import (
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestSmallFactors(t *testing.T) {
	// 360 = 2^3 * 3^2 * 5
	factors, cofactor := SmallFactors(big.NewInt(360), 100)
	want := []PrimePower{{2, 3}, {3, 2}, {5, 1}}
	if len(factors) != len(want) {
		t.Fatalf("factors: %v", factors)
	}
	for i, w := range want {
		if factors[i] != w {
			t.Errorf("factor %d = %v, want %v", i, factors[i], w)
		}
	}
	if cofactor.Int64() != 1 {
		t.Errorf("cofactor = %v", cofactor)
	}
	// 2 * 7919 with only the first 100 primes sieved: 7919 survives.
	factors, cofactor = SmallFactors(big.NewInt(2*7919), 100)
	if len(factors) != 1 || factors[0] != (PrimePower{2, 1}) || cofactor.Int64() != 7919 {
		t.Errorf("got %v, %v", factors, cofactor)
	}
}

func TestPollardRhoFindsFactors(t *testing.T) {
	cases := []struct {
		a, b int64
	}{
		{10007, 10009},
		{104729, 1299709},
		{7919, 7919}, // square
	}
	for _, c := range cases {
		n := new(big.Int).Mul(big.NewInt(c.a), big.NewInt(c.b))
		d := PollardRho(n, 1_000_000)
		if d == nil {
			t.Errorf("rho failed on %d*%d", c.a, c.b)
			continue
		}
		var rem big.Int
		if rem.Mod(n, d).Sign() != 0 {
			t.Errorf("rho returned a non-divisor %v of %v", d, n)
		}
		if d.Cmp(big.NewInt(1)) == 0 || d.Cmp(n) == 0 {
			t.Errorf("rho returned trivial divisor %v", d)
		}
	}
}

func TestPollardRhoRefusesPrimesAndTrivial(t *testing.T) {
	if PollardRho(big.NewInt(104729), 10000) != nil {
		t.Error("rho should return nil on a prime")
	}
	if PollardRho(big.NewInt(1), 10000) != nil {
		t.Error("rho should return nil on 1")
	}
	if PollardRho(big.NewInt(-15), 10000) != nil {
		t.Error("rho should return nil on negatives")
	}
	if d := PollardRho(big.NewInt(2*104729), 10000); d == nil || d.Int64() != 2 {
		t.Errorf("even composite should yield 2, got %v", d)
	}
}

// fermatSteps computes the exact budget FermatFactor needs for n = p*q:
// the ascent runs from ceil(sqrt(n)) to (p+q)/2 inclusive.
func fermatSteps(p, q *big.Int) int {
	n := new(big.Int).Mul(p, q)
	a0 := new(big.Int).Sqrt(n)
	if new(big.Int).Mul(a0, a0).Cmp(n) < 0 {
		a0.Add(a0, big.NewInt(1))
	}
	mid := new(big.Int).Add(p, q)
	mid.Rsh(mid, 1)
	return int(new(big.Int).Sub(mid, a0).Int64()) + 1
}

func TestFermatFactorClosePrimes(t *testing.T) {
	p, err := GenPrimeNaive(testRand(41), 64)
	if err != nil {
		t.Fatal(err)
	}
	q := NextPrime(new(big.Int).Add(p, big.NewInt(2)))
	n := new(big.Int).Mul(p, q)
	fp, fq := FermatFactor(n, 64)
	if fp == nil {
		t.Fatalf("Fermat failed on adjacent primes %v * %v", p, q)
	}
	if fp.Cmp(p) != 0 || fq.Cmp(q) != 0 {
		t.Errorf("Fermat split %v, %v, want %v, %v", fp, fq, p, q)
	}
}

// TestFermatFactorBudgetBoundary pins the budget semantics: a prime pair
// whose ascent needs exactly k steps splits with maxSteps = k and must
// not split with k-1.
func TestFermatFactorBudgetBoundary(t *testing.T) {
	p, err := GenPrimeNaive(testRand(42), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A mate far enough above p that the ascent takes a multi-step budget
	// (~(q-p)²/(8·sqrt(n)) ≈ 2^74/2^67 ≈ 100 steps) but is still
	// comfortably Fermat-weak.
	q := NextPrime(new(big.Int).Add(p, new(big.Int).Lsh(big.NewInt(1), 37)))
	n := new(big.Int).Mul(p, q)
	need := fermatSteps(p, q)
	if need < 2 {
		t.Fatalf("degenerate case: pair needs only %d step(s)", need)
	}
	fp, fq := FermatFactor(n, need)
	if fp == nil || fp.Cmp(p) != 0 || fq.Cmp(q) != 0 {
		t.Fatalf("budget %d: got %v, %v, want %v, %v", need, fp, fq, p, q)
	}
	if fp, _ := FermatFactor(n, need-1); fp != nil {
		t.Errorf("budget %d (one short) still split: %v", need-1, fp)
	}
}

func TestFermatFactorRefusesNonCandidates(t *testing.T) {
	prime, err := GenPrimeNaive(testRand(43), 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*big.Int{
		"prime":    prime,
		"one":      big.NewInt(1),
		"zero":     big.NewInt(0),
		"negative": big.NewInt(-21),
		"even":     big.NewInt(1 << 20),
	} {
		if p, q := FermatFactor(n, 1000); p != nil || q != nil {
			t.Errorf("%s: FermatFactor(%v) = %v, %v, want nil", name, n, p, q)
		}
	}
	// A prime square is the step-0 fixed point: ceil(sqrt(p²)) = p and
	// a² - n = 0 is a perfect square, so a budget of one returns (p, p).
	// The quadratic-residue filter must pass 0, a square modulo every
	// sieve factor.
	for _, pr := range []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7919), prime} {
		sq := new(big.Int).Mul(pr, pr)
		p, q := FermatFactor(sq, 1)
		if p == nil || p.Cmp(pr) != 0 || q.Cmp(pr) != 0 {
			t.Errorf("square %v: got %v, %v, want %v twice", sq, p, q, pr)
		}
	}
}

// TestPollardRhoBudgetExhaustionReturns pins the not-weak path: far-apart
// balanced 96-bit primes exhaust a small step budget and rho must return
// nil promptly instead of hanging (the online check path depends on it).
func TestPollardRhoBudgetExhaustionReturns(t *testing.T) {
	p, err := GenPrimeNaive(testRand(44), 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GenPrimeNaive(testRand(45), 96)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	done := make(chan *big.Int, 1)
	go func() { done <- PollardRho(n, 512) }()
	select {
	case d := <-done:
		if d != nil {
			t.Errorf("512-step rho factored a 192-bit semiprime: %v", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rho did not return after budget exhaustion")
	}
}

func TestFactorCompletely(t *testing.T) {
	// 2^2 * 3 * 10007 * 10009
	n := big.NewInt(4 * 3)
	n.Mul(n, big.NewInt(10007))
	n.Mul(n, big.NewInt(10009))
	primes, incomplete := FactorCompletely(n, 256, 1_000_000)
	if len(incomplete) != 0 {
		t.Fatalf("incomplete: %v", incomplete)
	}
	prod := big.NewInt(1)
	for _, p := range primes {
		if !p.ProbablyPrime(20) {
			t.Errorf("non-prime factor %v", p)
		}
		prod.Mul(prod, p)
	}
	if prod.Cmp(n) != 0 {
		t.Errorf("product %v != %v", prod, n)
	}
	// Sorted ascending.
	for i := 1; i < len(primes); i++ {
		if primes[i].Cmp(primes[i-1]) < 0 {
			t.Error("factors not sorted")
		}
	}
}

func TestFactorCompletelyProperty(t *testing.T) {
	f := func(raw uint32) bool {
		n := big.NewInt(int64(raw)%100000 + 2)
		primes, incomplete := FactorCompletely(n, 256, 200000)
		prod := big.NewInt(1)
		for _, p := range primes {
			prod.Mul(prod, p)
		}
		for _, c := range incomplete {
			prod.Mul(prod, c)
		}
		return prod.Cmp(n) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFactorCompletelyIncompleteBudget(t *testing.T) {
	// Two 96-bit primes: rho with a tiny budget cannot split the
	// product, so it lands in incomplete.
	p, err := GenPrimeNaive(testRand(31), 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GenPrimeNaive(testRand(32), 96)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	primes, incomplete := FactorCompletely(n, 64, 10)
	if len(incomplete) != 1 || incomplete[0].Cmp(n) != 0 {
		t.Errorf("expected the whole modulus to resist: primes=%v incomplete=%v", primes, incomplete)
	}
}

// TestFermatSieve holds the quadratic-residue filter to its two
// properties: it never rejects a perfect square (whatever its size, as
// tracked mod fermatSieve), and it passes under 1% of all residues, so
// the ascent skips the Sqrt on ~99% of steps.
func TestFermatSieve(t *testing.T) {
	rng := testRand(47)
	for i := 0; i < 100000; i++ {
		b := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(1+i%200)))
		v := new(big.Int).Mul(b, b)
		if !mayBeSquare(v.Mod(v, big.NewInt(fermatSieve)).Uint64()) {
			t.Fatalf("filter rejected the square of %v", b)
		}
	}
	pass := 0
	for v := uint64(0); v < fermatSieve; v++ {
		if mayBeSquare(v) {
			pass++
		}
	}
	if frac := float64(pass) / fermatSieve; frac >= 0.01 {
		t.Errorf("filter passes %.4f of residues, want < 0.01", frac)
	}
}
