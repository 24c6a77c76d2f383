package keycheck

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// referenceCheck is Snapshot.Check as it was with a math/big sweep,
// r = P mod n against every shard product. It is kept only as the
// oracle for the Montgomery sweep: the two must agree on every verdict.
func referenceCheck(s *Snapshot, n *big.Int) Verdict {
	key := string(n.Bytes())
	home := shardOf(key, len(s.shards))
	v := Verdict{Status: StatusClean, ModulusBits: n.BitLen(), Shard: home}
	if !s.owns(home) {
		// A cluster replica that doesn't own the home shard cannot
		// answer membership: its clean/unknown half is only about the
		// shards it holds. The GCD sweep below still runs over the
		// owned products — a shared prime in any of them is definitive.
		v.Partial = true
	}
	homeShard := s.shards[home]
	inBloom := homeShard.bloom.mayContain(key)
	if inBloom {
		if e, ok := homeShard.factored[key]; ok {
			v.Status = StatusFactored
			v.Known = true
			v.FactorP, v.FactorQ = hexOf(e.P), hexOf(e.Q)
			v.Vendor, v.Attribution = e.Vendor, e.Attribution
			return v
		}
	}
	// GCD path. gcd(n, P mod n) = gcd(n, P) finds the product of n's
	// primes shared with shard product P without ever forming P/n.
	g := new(big.Int).Set(one)
	var proper *big.Int // a proper divisor of n, if any shard yields one
	r := new(big.Int)
	for si, sh := range s.shards {
		product := sh.product()
		if product == nil {
			continue
		}
		r.Mod(product, n)
		if r.Sign() == 0 {
			// n divides the shard product outright. For the home shard
			// with a Bloom hit that means n is a corpus member: batch
			// GCD already ran over the whole corpus at build time, so a
			// member absent from the factored map shares no prime.
			if si == home && inBloom {
				v.Known = true
				continue
			}
			// A novel modulus dividing a product means every prime of n
			// is in the corpus.
			g.Set(n)
			continue
		}
		gi := new(big.Int).GCD(nil, nil, n, r)
		if gi.Cmp(one) <= 0 {
			continue
		}
		if gi.Cmp(n) < 0 {
			proper = gi
		}
		g.Mul(g, gi)
		g.GCD(nil, nil, g, n)
	}
	if g.Cmp(one) == 0 {
		if v.Known {
			// A member with no shared prime can still be anomalous: the
			// same modulus observed under distinct identities at scan
			// time. Any identity holding the private key breaks the rest.
			if cnt, ok := homeShard.shared[key]; ok {
				v.Status = StatusSharedModulus
				v.SharedWith = cnt
			}
			return v
		}
		// Novel modulus the corpus cannot touch: run the bounded anomaly
		// probes (trial division, Fermat ascent, Pollard rho). Members
		// skip this — the offline anomaly pass already swept the corpus —
		// and a probe hit is definitive even on a Partial replica.
		if cls, p, q := s.probe.Factor(n); cls != anomaly.ProbeNone {
			switch cls {
			case anomaly.ProbeFermatWeak:
				v.Status = StatusFermatWeak
			case anomaly.ProbeSmallFactor:
				v.Status = StatusSmallFactor
			}
			if p != nil && q != nil {
				if new(big.Int).Mul(p, q).Cmp(n) == 0 {
					v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
				}
				v.Divisor = hexOf(p)
			}
		}
		return v
	}
	v.Status = StatusSharedFactor
	if g.Cmp(n) == 0 && proper == nil {
		// Both primes live in one shard's product, so every per-shard
		// GCD was degenerate. Recover the split from the known factored
		// primes when possible.
		proper = s.recoverDivisor(n)
	}
	if g.Cmp(n) < 0 {
		proper = g
	}
	if proper != nil {
		p := proper
		q := new(big.Int).Quo(n, p)
		if new(big.Int).Mul(p, q).Cmp(n) == 0 {
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
		}
	}
	v.Divisor = hexOf(g)
	return v
}

// TestCheckMatchesModSweep compares Snapshot.Check with referenceCheck
// on random small corpora, full and partial (replica) snapshots alike.
// The corpora mix 1- and 2-word moduli with even ones; the queries are
// every member plus novel keys sharing one prime, both primes (from two
// members or from one shard), every prime of a member plus a fresh one,
// prime squares, even keys and clean keys.
func TestCheckMatchesModSweep(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1216))
	for trial := 0; trial < 10; trial++ {
		shards := 1 + rng.Intn(8)
		pool := append(genPrimes(rng, 30), smallPrimes(rng, 10)...)
		fresh := genPrimes(rng, 40)
		pick := func() *big.Int { return pool[rng.Intn(len(pool))] }
		freshPrime := func() *big.Int { return fresh[rng.Intn(len(fresh))] }

		store := scanstore.New()
		fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
		var corpus []*big.Int
		seen := make(map[string]bool)
		for size := 20 + rng.Intn(40); len(corpus) < size; {
			p, q := pick(), pick()
			if p.Cmp(q) == 0 {
				continue
			}
			n := new(big.Int).Mul(p, q)
			if rng.Intn(6) == 0 {
				n.Lsh(n, uint(1+rng.Intn(3)))
			}
			if seen[string(n.Bytes())] {
				continue
			}
			seen[string(n.Bytes())] = true
			if n.Bit(0) == 1 && rng.Intn(2) == 0 {
				if p.Cmp(q) > 0 {
					p, q = q, p
				}
				fp.Factors[string(n.Bytes())] = fingerprint.Factors{P: p, Q: q}
			}
			store.AddBareKeyObservation("10.2.0.1", date(2016, 1, 1+len(corpus)%28), scanstore.SourceCensys, scanstore.SSH, n)
			corpus = append(corpus, n)
		}

		queries := append([]*big.Int(nil), corpus...)
		for i := 0; i < 30; i++ {
			m := corpus[rng.Intn(len(corpus))]
			queries = append(queries,
				new(big.Int).Mul(pick(), freshPrime()),                 // one shared prime
				new(big.Int).Mul(pick(), pick()),                       // both primes in the corpus
				new(big.Int).Mul(m, freshPrime()),                      // a member's primes and one more
				new(big.Int).Mul(freshPrime(), freshPrime()),           // clean
				new(big.Int).Lsh(freshPrime(), uint(1+rng.Intn(3))),    // even, clean odd part
				new(big.Int).Lsh(pick(), uint(1+rng.Intn(3))),          // even, shared odd part
				new(big.Int).Lsh(m, 1),                                 // twice a member
				new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(130))), // a power of two
			)
			p := pick()
			queries = append(queries, new(big.Int).Mul(p, p))
		}

		var own []int
		for si := 0; si < shards; si++ {
			if rng.Intn(2) == 0 {
				own = append(own, si)
			}
		}
		for _, in := range []BuildInput{
			{Store: store, Fingerprint: fp, Shards: shards},
			{Store: store, Fingerprint: fp, Shards: shards, OwnShards: own},
		} {
			snap, err := Build(ctx, in)
			if err != nil {
				t.Fatalf("trial %d: build: %v", trial, err)
			}
			for _, n := range queries {
				got, want := snap.Check(n), referenceCheck(snap, n)
				if recovered(snap, n) {
					// recoverDivisor's pick among valid splits follows map
					// order, so only the split's validity can be compared.
					if got.FactorP != "" && !splits(n, got.FactorP, got.FactorQ) {
						t.Fatalf("trial %d n=%x: recovered split %s * %s", trial, n, got.FactorP, got.FactorQ)
					}
					got.FactorP, got.FactorQ, want.FactorP, want.FactorQ = "", "", "", ""
				}
				if got != want {
					t.Fatalf("trial %d (shards=%d, own=%v) n=%x:\n got %+v\nwant %+v", trial, shards, in.OwnShards, n, got, want)
				}
			}
		}
	}
}

// recovered reports whether Check falls back to recoverDivisor for n:
// no owned shard product yields a proper divisor of n, yet n's primes
// all lie in the corpus (some product is a multiple of n, or the
// shards' gcds multiply up to n).
func recovered(s *Snapshot, n *big.Int) bool {
	g := big.NewInt(1)
	for _, sh := range s.shards {
		product := sh.product()
		if product == nil {
			continue
		}
		r := new(big.Int).Mod(product, n)
		gi := new(big.Int).GCD(nil, nil, n, r)
		if gi.Cmp(one) > 0 && gi.Cmp(n) < 0 {
			return false
		}
		if r.Sign() == 0 {
			gi.Set(n)
		}
		g.Mul(g, gi)
		g.GCD(nil, nil, g, n)
	}
	return g.Cmp(n) == 0
}

// splits reports whether hex factors p, q multiply to n.
func splits(n *big.Int, p, q string) bool {
	pi, ok1 := new(big.Int).SetString(p, 16)
	qi, ok2 := new(big.Int).SetString(q, 16)
	return ok1 && ok2 && new(big.Int).Mul(pi, qi).Cmp(n) == 0
}

// smallPrimes returns n distinct primes of 16–30 bits, so a modulus
// built from them fits one word even on 32-bit platforms.
func smallPrimes(rng *rand.Rand, n int) []*big.Int {
	out := make([]*big.Int, 0, n)
	seen := make(map[int64]bool)
	for len(out) < n {
		p := big.NewInt(rng.Int63n(1<<30-1<<16) + 1<<16)
		if !p.ProbablyPrime(20) || seen[p.Int64()] {
			continue
		}
		seen[p.Int64()] = true
		out = append(out, p)
	}
	return out
}

// TestDivisorSweepAgainstMod checks the sweep primitive itself against
// gcd(n, P mod n) and P mod n == 0, for odd, even and power-of-two n
// against products that n divides, shares factors with, or is coprime
// to.
func TestDivisorSweepAgainstMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1217))
	for i := 0; i < 3000; i++ {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(300))))
		n.Add(n, big.NewInt(1))
		p := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(2000))))
		switch rng.Intn(4) {
		case 0:
			p.Mul(p, n)
		case 1:
			p.Lsh(p, uint(rng.Intn(70)))
		case 2:
			p.Mul(p, new(big.Int).Rsh(n, uint(rng.Intn(n.BitLen()))))
		}
		if p.Sign() == 0 {
			p.SetInt64(1)
		}
		r := new(big.Int).Mod(p, n)
		want := new(big.Int).GCD(nil, nil, n, r)
		g, divides := newDivisorSweep(n).gcd(p)
		if divides != (r.Sign() == 0) || (!divides && g.Cmp(want) != 0) {
			t.Fatalf("n=%x p=%x: gcd %v divides %v, want gcd %v divides %v", n, p, g, divides, want, r.Sign() == 0)
		}
	}
}
