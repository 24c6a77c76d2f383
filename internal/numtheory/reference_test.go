package numtheory_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// The math/big bodies PollardRho and FermatFactor had before they moved
// to the Montgomery kernel and the quadratic-residue filter. They are
// kept here only as oracles: the production probes must return exactly
// what these return.

var bigOne = big.NewInt(1)

func referenceRho(n *big.Int, maxSteps int) *big.Int {
	if n.Sign() <= 0 || n.Cmp(bigOne) == 0 || n.ProbablyPrime(12) {
		return nil
	}
	if n.Bit(0) == 0 {
		return big.NewInt(2)
	}
	for c := int64(1); c <= 8; c++ {
		if d := referenceRhoBrent(n, c, maxSteps); d != nil {
			return d
		}
	}
	return nil
}

func referenceRhoBrent(n *big.Int, c int64, maxSteps int) *big.Int {
	x := big.NewInt(2)
	y := new(big.Int).Set(x)
	cc := big.NewInt(c)
	d := new(big.Int)
	prod := big.NewInt(1)
	var diff big.Int
	step := func(v *big.Int) {
		v.Mul(v, v)
		v.Add(v, cc)
		v.Mod(v, n)
	}
	const batch = 64
	for steps := 0; steps < maxSteps; {
		prod.SetInt64(1)
		for i := 0; i < batch && steps < maxSteps; i++ {
			step(x)
			step(y)
			step(y)
			diff.Sub(x, y)
			if diff.Sign() == 0 {
				return nil
			}
			prod.Mul(prod, &diff)
			prod.Mod(prod, n)
			steps++
		}
		d.GCD(nil, nil, prod, n)
		if d.Cmp(bigOne) != 0 && d.Cmp(n) != 0 {
			return new(big.Int).Set(d)
		}
		if d.Cmp(n) == 0 {
			return nil
		}
	}
	return nil
}

func referenceFermat(n *big.Int, maxSteps int) (p, q *big.Int) {
	if n.Sign() <= 0 || n.BitLen() < 2 || n.Bit(0) == 0 || n.ProbablyPrime(12) {
		return nil, nil
	}
	a := new(big.Int).Sqrt(n)
	if new(big.Int).Mul(a, a).Cmp(n) < 0 {
		a.Add(a, bigOne)
	}
	b2 := new(big.Int).Mul(a, a)
	b2.Sub(b2, n)
	b, bb, step := new(big.Int), new(big.Int), new(big.Int)
	for i := 0; i < maxSteps; i++ {
		b.Sqrt(b2)
		bb.Mul(b, b)
		if bb.Cmp(b2) == 0 {
			p = new(big.Int).Sub(a, b)
			q = new(big.Int).Add(a, b)
			if p.Cmp(bigOne) <= 0 {
				return nil, nil
			}
			return p, q
		}
		step.Lsh(a, 1)
		step.Add(step, bigOne)
		b2.Add(b2, step)
		a.Add(a, bigOne)
	}
	return nil, nil
}

// sameInt reports whether two possibly-nil results are equal.
func sameInt(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// diffCase is one input of the differential tests.
type diffCase struct {
	name  string
	n     *big.Int
	steps int
}

// randomComposites draws count odd and even composites of mixed shapes:
// two primes of independent sizes (some close, so Fermat fires), three
// primes, prime squares and plain random integers, with budgets that
// both reach and miss their factors.
func randomComposites(rng *rand.Rand, count int) []diffCase {
	prime := func(bits int) *big.Int {
		for {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(bigOne, uint(bits)))
			v.SetBit(v, bits-1, 1)
			if p := numtheory.NextPrime(v); p.BitLen() <= bits+1 {
				return p
			}
		}
	}
	var out []diffCase
	for len(out) < count {
		var n *big.Int
		switch kind := rng.Intn(5); kind {
		case 0:
			n = new(big.Int).Mul(prime(8+rng.Intn(40)), prime(8+rng.Intn(56)))
		case 1: // close primes
			p := prime(16 + rng.Intn(64))
			n = new(big.Int).Mul(p, numtheory.NextPrime(new(big.Int).Add(p, big.NewInt(int64(2+rng.Intn(1<<16))))))
		case 2:
			n = new(big.Int).Mul(prime(6+rng.Intn(20)), prime(6+rng.Intn(20)))
			n.Mul(n, prime(6+rng.Intn(30)))
		case 3:
			p := prime(8 + rng.Intn(40))
			n = new(big.Int).Mul(p, p)
		default:
			n = new(big.Int).Rand(rng, new(big.Int).Lsh(bigOne, uint(16+rng.Intn(120))))
		}
		if n.BitLen() < 2 || n.ProbablyPrime(12) {
			continue
		}
		out = append(out, diffCase{fmt.Sprintf("random-%d", len(out)), n, 1 + rng.Intn(320)})
	}
	return out
}

// weakKeys returns close-prime and small-factor keys from weakrsa, at
// the serving budgets.
func weakKeys(t *testing.T, rng *rand.Rand) []diffCase {
	var out []diffCase
	for i, bits := range []int{64, 128, 256, 256, 512} {
		k, err := weakrsa.GenerateClosePrimes(rng, weakrsa.Options{Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffCase{fmt.Sprintf("close-%d-%d", bits, i), k.N, 512})
		for _, fb := range []int{10, 20, 24} {
			k, err := weakrsa.GenerateSmallFactor(rng, weakrsa.Options{Bits: bits}, fb)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, diffCase{fmt.Sprintf("small%d-%d-%d", fb, bits, i), k.N, 256})
		}
	}
	return out
}

// TestProbesMatchReference runs PollardRho and FermatFactor against the
// math/big oracles on 2,000 random composites and the weakrsa anomaly
// keys: every divisor and every split must be identical.
func TestProbesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	cases := append(randomComposites(rng, 2000), weakKeys(t, rng)...)
	var rhoHits, fermatHits int
	for _, c := range cases {
		if got, want := numtheory.PollardRho(c.n, c.steps), referenceRho(c.n, c.steps); !sameInt(got, want) {
			t.Errorf("%s: PollardRho(%v, %d) = %v, reference %v", c.name, c.n, c.steps, got, want)
		} else if got != nil {
			rhoHits++
		}
		gp, gq := numtheory.FermatFactor(c.n, c.steps)
		wp, wq := referenceFermat(c.n, c.steps)
		if !sameInt(gp, wp) || !sameInt(gq, wq) {
			t.Errorf("%s: FermatFactor(%v, %d) = %v, %v, reference %v, %v", c.name, c.n, c.steps, gp, gq, wp, wq)
		} else if gp != nil {
			fermatHits++
		}
	}
	// Both outcomes must be well represented, or the comparison is weak.
	for name, hits := range map[string]int{"rho": rhoHits, "fermat": fermatHits} {
		if hits < len(cases)/10 || hits > len(cases)*9/10 {
			t.Errorf("%s split %d of %d cases; the mix should exercise both hit and miss", name, hits, len(cases))
		}
	}
}
