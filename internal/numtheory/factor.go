package numtheory

import "math/big"

// SmallFactors returns the prime factorization of n restricted to primes
// among the first nPrimes primes, as (prime, exponent) pairs in
// ascending order, plus the remaining cofactor. The bit-error analysis
// uses this to show corrupted moduli carrying "divisors that are the
// product of many small prime factors" (Section 3.3.5).
func SmallFactors(n *big.Int, nPrimes int) (factors []PrimePower, cofactor *big.Int) {
	cofactor = new(big.Int).Set(n)
	var q, m, rem big.Int
	for _, p := range FirstPrimes(nPrimes) {
		q.SetUint64(p)
		exp := 0
		for {
			m.QuoRem(cofactor, &q, &rem)
			if rem.Sign() != 0 {
				break
			}
			cofactor.Set(&m)
			exp++
		}
		if exp > 0 {
			factors = append(factors, PrimePower{Prime: p, Exp: exp})
		}
	}
	return factors, cofactor
}

// PrimePower is one (prime, exponent) term of a factorization.
type PrimePower struct {
	Prime uint64
	Exp   int
}

// PollardRho attempts to find one nontrivial factor of the composite n
// using Pollard's rho with Brent's cycle detection, bounded by maxSteps
// iterations. It returns nil if no factor was found within the budget or
// n is prime/1. Deterministic given n (the polynomial constant is swept).
//
// Rho complements the batch GCD in the bit-error forensics: a corrupted
// modulus is an essentially random integer, so its small and medium
// factors fall to trial division and rho even though it shares no prime
// with any other key.
func PollardRho(n *big.Int, maxSteps int) *big.Int {
	if n.Sign() <= 0 || n.Cmp(one) == 0 || n.ProbablyPrime(12) {
		return nil
	}
	if n.Bit(0) == 0 {
		return big.NewInt(2)
	}
	m := NewMont(n)
	for c := int64(1); c <= 8; c++ {
		if d := rhoBrent(m, n, c, maxSteps); d != nil {
			return d
		}
	}
	return nil
}

// rhoBrent is one rho run with f(x) = x² + c mod n and batched GCDs.
// Every value lives in Montgomery form (x·R mod n): the start value is
// 2R, the constant cR, and f(xR) = (xR)²R⁻¹ + cR = (x² + c)R. So the
// sequence is the plain one times the unit R. A batch product of
// |xR - yR| = ±(x - y)R terms, Montgomery-multiplied from R, is
// ±Π(x - y)·R, whose gcd with n is the plain batch's. Each divisor
// found is therefore the one the plain iteration finds.
func rhoBrent(m *Mont, n *big.Int, c int64, maxSteps int) *big.Int {
	L := len(m.n)
	w := make([]big.Word, 6*L)
	x, y, cc, prod, diff, rOne := w[:L], w[L:2*L], w[2*L:3*L], w[3*L:4*L], w[4*L:5*L], w[5*L:]
	m.toMont(x, two)
	copy(y, x)
	m.toMont(cc, big.NewInt(c))
	m.toMont(rOne, one)
	var pb, d big.Int

	step := func(v []big.Word) {
		m.mul(v, v, v)
		m.addMod(v, v, cc)
	}

	const batch = 64
	for steps := 0; steps < maxSteps; {
		// Advance the fast pointer two steps per slow step, batching
		// |x-y| products to amortize the gcd.
		copy(prod, rOne)
		for i := 0; i < batch && steps < maxSteps; i++ {
			step(x)
			step(y)
			step(y)
			if absDiff(diff, x, y) {
				// Cycle without a factor for this c.
				return nil
			}
			m.mul(prod, prod, diff)
			steps++
		}
		d.GCD(nil, nil, pb.SetBits(prod), n)
		if d.Cmp(one) != 0 && d.Cmp(n) != 0 {
			return new(big.Int).Set(&d)
		}
		if d.Cmp(n) == 0 {
			// Overshot: a factor divided the batch product; retry this c
			// step-by-step would be ideal, but sweeping c is simpler and
			// the callers only need best-effort factors.
			return nil
		}
	}
	return nil
}

// fermatSieve is the modulus of Fermat's quadratic-residue filter,
// 64·63·65·11. A perfect square is a square modulo each factor, and
// only ~0.8% of residues mod fermatSieve pass all four.
const fermatSieve = 64 * 63 * 65 * 11

// fermatSquares[i] marks the squares modulo fermatMods[i].
var (
	fermatMods    = [4]uint64{64, 63, 65, 11}
	fermatSquares = func() (sq [4][]bool) {
		for i, m := range fermatMods {
			sq[i] = make([]bool, m)
			for x := uint64(0); x < m; x++ {
				sq[i][x*x%m] = true
			}
		}
		return sq
	}()
)

// mayBeSquare reports whether v mod fermatSieve is a square modulo all
// four sieve factors, which every perfect square is.
func mayBeSquare(v uint64) bool {
	for i, m := range fermatMods {
		if !fermatSquares[i][v%m] {
			return false
		}
	}
	return true
}

// FermatFactor attempts to factor n = p*q with close primes by Fermat's
// method: ascend a from ceil(sqrt(n)) and test whether a² - n is a
// perfect square b²; if so, n = (a-b)(a+b). The budget is the number of
// candidate a values tried (so step 0 tests ceil(sqrt(n)) itself, and a
// pair whose midpoint is k above the root needs a budget of k+1). It
// returns nil, nil when no split lands within the budget or n is even,
// prime, or < 2. A square n = p² splits at step 0 as (p, p).
//
// The ascent tracks a and a² - n modulo fermatSieve in machine words and
// takes the exact square root only where that residue may be a square,
// so ~99% of steps cost a few word operations instead of a Sqrt.
//
// Primes drawn too close together — the "When RSA Fails" prime-selection
// flaw where q is the next prime after p, or p and q share high bits —
// fall in a handful of steps: the required ascent is ~(p-q)²/(8·sqrt(n)),
// so any |p-q| below roughly n^(1/4) is within reach of a tiny budget
// while honestly independent primes sit ~sqrt(n)/2 away.
func FermatFactor(n *big.Int, maxSteps int) (p, q *big.Int) {
	if n.Sign() <= 0 || n.BitLen() < 2 || n.Bit(0) == 0 || n.ProbablyPrime(12) {
		return nil, nil
	}
	a0 := new(big.Int).Sqrt(n)
	aa := new(big.Int).Mul(a0, a0)
	if aa.Cmp(n) < 0 {
		a0.Add(a0, one)
	}
	var r big.Int
	sieve := big.NewInt(fermatSieve)
	am := r.Mod(a0, sieve).Uint64()
	nm := r.Mod(n, sieve).Uint64()
	// b2m = a² - n mod fermatSieve; stepping a to a+1 adds 2a+1.
	b2m := (am*am + fermatSieve - nm) % fermatSieve
	a, b2, b, bb := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for i := 0; i < maxSteps; i++ {
		if mayBeSquare(b2m) {
			a.Add(a0, r.SetInt64(int64(i)))
			b2.Mul(a, a)
			b2.Sub(b2, n)
			b.Sqrt(b2)
			bb.Mul(b, b)
			if bb.Cmp(b2) == 0 {
				p = new(big.Int).Sub(a, b)
				q = new(big.Int).Add(a, b)
				if p.Cmp(one) <= 0 {
					// n itself is the degenerate 1·n split (n a square of
					// nothing useful, or a=(n+1)/2 reached for tiny n).
					return nil, nil
				}
				return p, q
			}
		}
		b2m = (b2m + 2*am + 1) % fermatSieve
		am = (am + 1) % fermatSieve
	}
	return nil, nil
}

// FactorCompletely factors n into probable primes using trial division by
// the first nPrimes primes followed by recursive Pollard rho, each rho
// call bounded by rhoSteps. Factors that resist the budget are returned
// in incomplete. Results are sorted ascending.
func FactorCompletely(n *big.Int, nPrimes, rhoSteps int) (primes []*big.Int, incomplete []*big.Int) {
	small, cofactor := SmallFactors(n, nPrimes)
	for _, pp := range small {
		for i := 0; i < pp.Exp; i++ {
			primes = append(primes, new(big.Int).SetUint64(pp.Prime))
		}
	}
	var rec func(m *big.Int)
	rec = func(m *big.Int) {
		if m.Cmp(one) == 0 {
			return
		}
		if m.ProbablyPrime(12) {
			primes = append(primes, new(big.Int).Set(m))
			return
		}
		d := PollardRho(m, rhoSteps)
		if d == nil {
			incomplete = append(incomplete, new(big.Int).Set(m))
			return
		}
		rec(d)
		rec(new(big.Int).Quo(m, d))
	}
	rec(cofactor)
	sortBig(primes)
	sortBig(incomplete)
	return primes, incomplete
}

func sortBig(xs []*big.Int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].Cmp(xs[j-1]) < 0; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
