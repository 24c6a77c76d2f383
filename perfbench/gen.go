package main

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// Class is the verdict a generated key must receive. The generator
// plants it; the oracle compares the served verdict against it.
type Class string

const (
	ClassClean          = Class(keycheck.StatusClean)
	ClassFactored       = Class(keycheck.StatusFactored)
	ClassSharedModulus  = Class(keycheck.StatusSharedModulus)
	ClassSharedFactor   = Class(keycheck.StatusSharedFactor)
	ClassFermatWeak     = Class(keycheck.StatusFermatWeak)
	ClassSmallFactor    = Class(keycheck.StatusSmallFactor)
	ClassUnsafeExponent = Class(keycheck.StatusUnsafeExponent)
)

// Key is one check submission with its planted verdict.
type Key struct {
	N *big.Int
	// ExponentHex is sent as exponent_hex when set.
	ExponentHex string
	Want        Class
	// Known is whether the modulus is a corpus member.
	Known bool
}

// Hex is the modulus as sent on the wire.
func (k Key) Hex() string { return k.N.Text(16) }

// Corpus is a synthetic scan corpus with every member's planted verdict.
type Corpus struct {
	Members []Key
	// Weak holds one prime of each shared-prime cohort, for planting
	// novel shared-factor keys.
	Weak []*big.Int
	// Store is the corpus as keyserverd -load reads it.
	Store *scanstore.Store
}

// Corpus composition, as shares of the member count. weakShare is the
// paper's vulnerable share of distinct RSA moduli (313,330 of 81.2M,
// EXPERIMENTS.md Table 1). No source counts moduli served at several
// addresses; sharedShare is an assumption that gives every run about 200
// such members.
const (
	weakShare   = 0.0039 // members in shared-prime cohorts of 2-4
	sharedShare = 0.01   // moduli observed under two addresses
)

// stream tags keep the generator's random streams independent.
const (
	streamCorpus uint64 = iota + 1
	streamNovel
	streamFleet
	streamMix
)

// rngFor derives an independent, cheap PCG stream for (seed, stream, i),
// so any element can be made without making the ones before it and
// parallel generation is deterministic.
func rngFor(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^stream<<56, i*0x9e3779b97f4a7c15+stream))
}

// modulusBits is the size of every generated modulus: the study's
// 256-bit keys, two 128-bit primes.
const modulusBits = 256

// sievePrimes are the odd primes candidates are sieved by.
var sievePrimes = numtheory.SmallPrimes(512)[1:]

// genPrime returns a random 128-bit prime with its top two bits set, so
// the product of two is exactly 256 bits. Candidates are sieved by the
// small primes and must pass a base-2 Fermat test; a composite passing
// both is far less likely than a hardware fault. It is about 5x faster
// than numtheory.GenPrimeNaive (115 us against 575 us a prime on one
// core), whose 20 Miller-Rabin rounds would make a corpus's 40,000
// primes take about 12 s of every run instead of about 2.5 s.
func genPrime(rng *rand.Rand) *big.Int {
	res := make([]uint64, len(sievePrimes))
	n, nm1, x := new(big.Int), new(big.Int), new(big.Int)
	for {
		hi, lo := rng.Uint64()|3<<62, rng.Uint64()|1
		for i, s := range sievePrimes {
			_, res[i] = bits.Div64(hi%s, lo, s)
		}
	window:
		for d := uint64(0); d < 1<<12; d += 2 {
			for i, s := range sievePrimes {
				if (res[i]+d)%s == 0 {
					continue window
				}
			}
			clo, carry := bits.Add64(lo, d, 0)
			if hi+carry < hi {
				break // wrapped past 2^128
			}
			n.SetBits([]big.Word{big.Word(clo), big.Word(hi + carry)})
			if x.Exp(two, nm1.Sub(n, one), n).Cmp(one) == 0 {
				return new(big.Int).Set(n)
			}
		}
	}
}

// parallel runs f(i) for i in [0, n) on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// corpusDate stamps every synthetic observation (the paper's last scan).
var corpusDate = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)

// GenCorpus makes n distinct 256-bit moduli: clean
// semiprimes, shared-prime cohorts (factored) and moduli seen at two
// addresses (shared_modulus). The same (seed, n) gives the same corpus.
func GenCorpus(seed int64, n int) *Corpus {
	nWeak := int(float64(n) * weakShare)
	nShared := int(float64(n) * sharedShare)
	c := &Corpus{Members: make([]Key, n)}

	// Cohorts of 2-4 members share their first prime.
	type cohort struct{ start, size int }
	var cohorts []cohort
	cr := rngFor(seed, streamCorpus, 1<<40)
	for at := 0; at < nWeak; {
		size := 2 + cr.IntN(3)
		if at+size > nWeak {
			size = nWeak - at
		}
		if size < 2 {
			break
		}
		cohorts = append(cohorts, cohort{at, size})
		at += size
	}
	shared := make([]*big.Int, len(cohorts))
	parallel(len(cohorts), func(i int) {
		shared[i] = genPrime(rngFor(seed, streamCorpus, 1<<41+uint64(i)))
	})
	cohortOf := make([]int, n)
	for i := range cohortOf {
		cohortOf[i] = -1
	}
	for ci, co := range cohorts {
		for j := co.start; j < co.start+co.size; j++ {
			cohortOf[j] = ci
		}
	}
	parallel(n, func(i int) {
		rng := rngFor(seed, streamCorpus, uint64(i))
		k := Key{Known: true, Want: ClassClean}
		p := (*big.Int)(nil)
		if ci := cohortOf[i]; ci >= 0 {
			p, k.Want = shared[ci], ClassFactored
		} else {
			p = genPrime(rng)
			if i >= nWeak && i < nWeak+nShared {
				k.Want = ClassSharedModulus
			}
		}
		k.N = new(big.Int).Mul(p, genPrime(rng))
		c.Members[i] = k
	})
	c.Weak = shared

	st := scanstore.New()
	for i, m := range c.Members {
		st.AddBareKeyObservation(ipOf(2*i), corpusDate, scanstore.SourceCensys, scanstore.HTTPS, m.N)
		if m.Want == ClassSharedModulus {
			st.AddBareKeyObservation(ipOf(2*i+1), corpusDate, scanstore.SourceCensys, scanstore.HTTPS, m.N)
		}
	}
	c.Store = st
	return c
}

func ipOf(i int) string {
	return fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
}

// Novel key mix, as shares of the novel stream; the rest is clean. No
// source describes what users submit to a check service. The shares are
// assumptions: mostly clean keys, which cost the full sweep and probe,
// and each weak class often enough that every run's oracle sees dozens.
const (
	novelSharedFactor = 0.04
	novelFermat       = 0.03
	novelSmallFactor  = 0.03
	novelExponentOne  = 0.03
)

// NovelKey returns the i-th key of seed's novel stream: a modulus no
// corpus member equals and no other index repeats. Shared-factor keys
// take one prime from a corpus cohort; the others are fresh.
func NovelKey(seed int64, i uint64, weak []*big.Int) Key {
	rng := rngFor(seed, streamNovel, i)
	k := Key{Want: ClassClean}
	u := rng.Float64()
	switch {
	case u < novelSharedFactor && len(weak) > 0:
		k.Want = ClassSharedFactor
		k.N = new(big.Int).Mul(weak[rng.IntN(len(weak))], genPrime(rng))
	case u < novelSharedFactor+novelFermat:
		// q is the next prime after p plus a 40-bit gap: one Fermat step.
		k.Want = ClassFermatWeak
		p := genPrime(rng)
		q := numtheory.NextPrime(new(big.Int).Add(p, new(big.Int).SetUint64(rng.Uint64()>>24|1)))
		k.N = new(big.Int).Mul(p, q)
	case u < novelSharedFactor+novelFermat+novelSmallFactor:
		// A prime from the trial-division table times a prime that
		// brings the modulus to exactly modulusBits bits.
		k.Want = ClassSmallFactor
		s := new(big.Int).SetUint64(numtheory.SmallPrimes(128)[8+rng.IntN(100)])
		lo := new(big.Int).Div(new(big.Int).Lsh(one, modulusBits-1), s)
		span := new(big.Int).Sub(new(big.Int).Div(new(big.Int).Lsh(one, modulusBits), s), lo)
		span.Rsh(span, 1) // NextPrime's gap stays far below half the range
		q := numtheory.NextPrime(lo.Add(lo, randBelow(rng, span)))
		k.N = new(big.Int).Mul(q, s)
	default:
		k.N = new(big.Int).Mul(genPrime(rng), genPrime(rng))
		if u < novelSharedFactor+novelFermat+novelSmallFactor+novelExponentOne {
			k.Want, k.ExponentHex = ClassUnsafeExponent, "1"
		}
	}
	return k
}

var one, two = big.NewInt(1), big.NewInt(2)

// randBelow returns a uniform-enough value in [0, m) for m > 0.
func randBelow(rng *rand.Rand, m *big.Int) *big.Int {
	buf := make([]byte, (m.BitLen()+7)/8+8)
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	return new(big.Int).Mod(new(big.Int).SetBytes(buf), m)
}

// NovelKeys returns keys [from, from+n) of seed's novel stream.
func NovelKeys(seed int64, from uint64, n int, weak []*big.Int) []Key {
	out := make([]Key, n)
	parallel(n, func(i int) { out[i] = NovelKey(seed, from+uint64(i), weak) })
	return out
}

// zipfS is the skew of member reads. No source describes how often a
// check service sees each key again; the skew is an assumption, and it
// alone sets the members workload's cache-hit ratio (reported in the
// detail line; README.md records what it came to).
const zipfS = 1.1
