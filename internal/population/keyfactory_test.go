package population

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func TestHealthyKeysDistinct(t *testing.T) {
	f := NewKeyFactory(1, 128)
	seen := make(map[string]bool)
	var primes []*big.Int
	for i := 0; i < 10; i++ {
		k, err := f.Healthy()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		if k.N.BitLen() != 128 {
			t.Errorf("modulus %d bits", k.N.BitLen())
		}
		if seen[k.N.String()] {
			t.Error("healthy keys must be distinct")
		}
		seen[k.N.String()] = true
		primes = append(primes, k.P, k.Q)
	}
	// No shared primes anywhere.
	for i := range primes {
		for j := i + 1; j < len(primes); j++ {
			if primes[i].Cmp(primes[j]) == 0 {
				t.Fatal("healthy primes collided")
			}
		}
	}
}

func TestSharedPrimeCohorts(t *testing.T) {
	f := NewKeyFactory(2, 128)
	var keys []*weakrsa.PrivateKey
	for i := 0; i < 12; i++ {
		k, err := f.SharedPrime("VendorA", weakrsa.PrimeNaive)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Count distinct first primes: cohort sizes are 2..6, so 12 keys
	// need between 2 and 6 cohorts.
	firsts := make(map[string]int)
	for _, k := range keys {
		firsts[k.P.String()]++
	}
	if len(firsts) < 2 || len(firsts) > 6 {
		t.Errorf("cohort count = %d for 12 keys", len(firsts))
	}
	for p, n := range firsts {
		if n > 6 {
			t.Errorf("cohort %s... has %d members, max 6", p[:8], n)
		}
	}
	// All moduli distinct, and every cohort-mate pair shares exactly the
	// first prime (gcd = P).
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i].N.Cmp(keys[j].N) == 0 {
				t.Fatal("duplicate shared-prime modulus")
			}
			g := new(big.Int).GCD(nil, nil, keys[i].N, keys[j].N)
			if keys[i].P.Cmp(keys[j].P) == 0 {
				if g.Cmp(keys[i].P) != 0 {
					t.Error("cohort mates should share exactly P")
				}
			} else if g.Cmp(big.NewInt(1)) != 0 {
				t.Error("non-mates should be coprime")
			}
		}
	}
}

func TestSharedPrimePoolsIndependent(t *testing.T) {
	f := NewKeyFactory(3, 128)
	a, err := f.SharedPrime("A", weakrsa.PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.SharedPrime("B", weakrsa.PrimeNaive)
	if err != nil {
		t.Fatal(err)
	}
	if a.P.Cmp(b.P) == 0 {
		t.Error("different pools must not share primes")
	}
}

func TestSharedPrimeCrossVendorPool(t *testing.T) {
	// The Dell/Xerox overlap: two callers naming the same pool share
	// prime material.
	f := NewKeyFactory(4, 128)
	a, _ := f.SharedPrime("Xerox", weakrsa.PrimeNaive)
	b, _ := f.SharedPrime("Xerox", weakrsa.PrimeNaive)
	if a.P.Cmp(b.P) != 0 {
		t.Error("same pool should share the cohort prime")
	}
}

func TestSharedPrimeStyleRespected(t *testing.T) {
	f := NewKeyFactory(5, 128)
	k, err := f.SharedPrime("ssl-vendor", weakrsa.PrimeOpenSSL)
	if err != nil {
		t.Fatal(err)
	}
	if !numtheory.SatisfiesOpenSSLProperty(k.P) || !numtheory.SatisfiesOpenSSLProperty(k.Q) {
		t.Error("OpenSSL-style pool must satisfy the fingerprint")
	}
}

func TestCliqueKeyBounded(t *testing.T) {
	f := NewKeyFactory(6, 128)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		k, err := f.CliqueKey("IBM", weakrsa.PrimeNaive)
		if err != nil {
			t.Fatal(err)
		}
		seen[k.N.String()] = true
	}
	if len(seen) > weakrsa.IBMCliqueKeys {
		t.Errorf("%d distinct clique keys, max %d", len(seen), weakrsa.IBMCliqueKeys)
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct clique keys from 100 draws", len(seen))
	}
	if f.Clique("IBM") == nil {
		t.Error("clique should be exposed after first draw")
	}
	if f.Clique("nope") != nil {
		t.Error("unknown clique should be nil")
	}
}

func TestFactoryDeterminism(t *testing.T) {
	a, b := NewKeyFactory(7, 128), NewKeyFactory(7, 128)
	ka, err := a.Healthy()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Healthy()
	if err != nil {
		t.Fatal(err)
	}
	if ka.N.Cmp(kb.N) != 0 {
		t.Error("same seed must reproduce the same keys")
	}
	if a.Bits() != 128 {
		t.Error("Bits accessor wrong")
	}
}

// TestCohortPrimeMustPairWithExponent is the regression for cohorts
// that could issue no key: a cohort prime p ≡ 1 (mod 65537) makes e
// divide φ for every mate, so every draw failed and SharedPrime gave up.
func TestCohortPrimeMustPairWithExponent(t *testing.T) {
	e := weakrsa.DefaultExponent
	// A 128-bit prime p ≡ 1 (mod 2e).
	step := big.NewInt(int64(2 * e))
	p := new(big.Int).Lsh(big.NewInt(1), 127)
	p.Sub(p, new(big.Int).Mod(p, step))
	p.Add(p, step)
	p.Add(p, big.NewInt(1))
	for !p.ProbablyPrime(20) {
		p.Add(p, step)
	}
	if p.BitLen() != 128 || new(big.Int).Mod(p, big.NewInt(int64(e))).Int64() != 1 {
		t.Fatalf("constructed p = %x is not a 128-bit p ≡ 1 (mod %d)", p, e)
	}
	if pairsWithExponent(p, e) {
		t.Errorf("pairsWithExponent accepted p ≡ 1 (mod %d)", e)
	}
	mate, err := numtheory.GenPrimeNaive(rand.New(rand.NewSource(9)), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := assemble(p, mate, e); err == nil {
		t.Errorf("assemble paired p ≡ 1 (mod %d) with a mate", e)
	}
	if !pairsWithExponent(mate, e) {
		t.Errorf("pairsWithExponent rejected %x, p-1 mod e = %v", mate, new(big.Int).Mod(new(big.Int).Sub(mate, big.NewInt(1)), big.NewInt(int64(e))))
	}

	// Seeds whose first 64-bit cohort prime is ≡ 1 (mod e): SharedPrime
	// used to fail on them and must now redraw and succeed.
	for _, c := range []struct {
		seed int64
		gen  weakrsa.PrimeGen
	}{{35689, weakrsa.PrimeNaive}, {64825, weakrsa.PrimeOpenSSL}} {
		f := NewKeyFactory(c.seed, 128)
		k, err := f.SharedPrime("pool", c.gen)
		if err != nil {
			t.Fatalf("seed %d (%v): %v", c.seed, c.gen, err)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("seed %d: %v", c.seed, err)
		}
		if !pairsWithExponent(k.P, e) {
			t.Errorf("seed %d: cohort prime %x has e | p-1", c.seed, k.P)
		}
	}
}

// TestKeyStreamUnchanged pins a seed's key stream: the cohort-prime
// redraw only fires where generation used to fail, so a seed that
// succeeded before draws byte-identical keys.
func TestKeyStreamUnchanged(t *testing.T) {
	f := NewKeyFactory(20160, 256)
	h := sha256.New()
	for i := 0; i < 40; i++ {
		var k *weakrsa.PrivateKey
		var err error
		switch i % 4 {
		case 0, 1:
			k, err = f.SharedPrime("a", weakrsa.PrimeNaive)
		case 2:
			k, err = f.SharedPrime("b", weakrsa.PrimeOpenSSL)
		default:
			k, err = f.Healthy()
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%x %x %x\n", k.N, k.P, k.D)
	}
	const want = "a014ab71da2ef0b78b491d5de6db1fe87dbb1cdc4d36cdb0f5dcd6c3c9bcd2c3"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("key stream digest = %s, want %s", got, want)
	}
}
