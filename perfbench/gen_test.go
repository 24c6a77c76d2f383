package main

import (
	"context"
	"math/big"
	"testing"

	"github.com/factorable/weakkeys/internal/core"
	"github.com/factorable/weakkeys/internal/keycheck"
)

func TestGenPrimeIsBalancedPrime(t *testing.T) {
	rng := rngFor(1, 2, 3)
	for i := 0; i < 300; i++ {
		p := genPrime(rng)
		if !p.ProbablyPrime(20) || p.BitLen() != modulusBits/2 || p.Bit(modulusBits/2-2) != 1 {
			t.Fatalf("genPrime gave %v", p)
		}
	}
}

func TestCorpusDeterministicPerSeed(t *testing.T) {
	a, b, c := GenCorpus(5, 400), GenCorpus(5, 400), GenCorpus(6, 400)
	seen := map[string]bool{}
	for i := range a.Members {
		if a.Members[i].N.Cmp(b.Members[i].N) != 0 || a.Members[i].Want != b.Members[i].Want {
			t.Fatalf("member %d differs between two corpora of one seed", i)
		}
		if a.Members[i].N.Cmp(c.Members[i].N) == 0 {
			t.Fatalf("member %d repeats across seeds", i)
		}
		if a.Members[i].N.BitLen() != modulusBits {
			t.Fatalf("member %d has %d bits", i, a.Members[i].N.BitLen())
		}
		h := a.Members[i].Hex()
		if seen[h] {
			t.Fatalf("member %d repeats", i)
		}
		seen[h] = true
	}
	x, y := NovelKeys(5, 0, 300, a.Weak), NovelKeys(5, 0, 300, a.Weak)
	for i := range x {
		if x[i].N.Cmp(y[i].N) != 0 || x[i].Want != y[i].Want || x[i].ExponentHex != y[i].ExponentHex {
			t.Fatalf("novel key %d differs between two streams of one seed", i)
		}
		if x[i].N.BitLen() != modulusBits || x[i].Known {
			t.Fatalf("novel key %d: %d bits, known=%v", i, x[i].N.BitLen(), x[i].Known)
		}
		if seen[x[i].Hex()] {
			t.Fatalf("novel key %d repeats a member or an earlier key", i)
		}
		seen[x[i].Hex()] = true
	}
}

// TestPlantedClassesAreWhatTheIndexAnswers builds the serving index the
// way keyserverd -load does and checks every planted class in process.
func TestPlantedClassesAreWhatTheIndexAnswers(t *testing.T) {
	ctx := context.Background()
	c := GenCorpus(9, 600)
	st, err := core.AnalyzeStore(ctx, c.Store, core.Options{KeyBits: modulusBits, Subsets: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := keycheck.Build(ctx, keycheck.BuildInput{Store: c.Store, Fingerprint: st.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	classes := map[Class]int{}
	check := func(k Key) {
		v := snap.Check(k.N)
		if k.ExponentHex != "" {
			e, _ := new(big.Int).SetString(k.ExponentHex, 16)
			v = keycheck.ApplyExponent(v, e)
		}
		if err := Judge(k, Verdict{Status: string(v.Status), Known: v.Known}); err != nil {
			t.Fatal(err)
		}
		classes[k.Want]++
	}
	for _, m := range c.Members {
		check(m)
	}
	for _, k := range NovelKeys(9, 0, 400, c.Weak) {
		check(k)
	}
	for _, cls := range []Class{ClassClean, ClassFactored, ClassSharedModulus, ClassSharedFactor,
		ClassFermatWeak, ClassSmallFactor, ClassUnsafeExponent} {
		if classes[cls] == 0 {
			t.Errorf("no %s keys planted", cls)
		}
	}
}

func TestKeyMix(t *testing.T) {
	c := GenCorpus(3, 300)
	novel := Workload{Novel: true}
	open, closed := KeyMix(3, novel, c, phaseOpen, 200), KeyMix(3, novel, c, phaseClosed, 200)
	again := KeyMix(3, novel, c, phaseOpen, 100)
	seen := map[string]bool{}
	for _, m := range c.Members {
		seen[m.Hex()] = true
	}
	for i, k := range append(open, closed...) {
		if i < len(again) && k.N.Cmp(again[i].N) != 0 {
			t.Fatalf("request %d differs between two mixes of one seed", i)
		}
		if k.Known || seen[k.Hex()] {
			t.Fatalf("novel request %d repeats a member or an earlier key of either phase", i)
		}
		seen[k.Hex()] = true
	}
	// Members repeat with a skew but reach past any small working set.
	members, count := KeyMix(3, Workload{}, c, phaseOpen, 2000), map[string]int{}
	for i, k := range members {
		if !k.Known || k.N.Cmp(KeyMix(3, Workload{}, c, phaseOpen, 2000)[i].N) != 0 {
			t.Fatalf("member request %d is not a deterministic corpus member", i)
		}
		count[k.Hex()]++
	}
	top := 0
	for _, n := range count {
		top = max(top, n)
	}
	if len(count) < 150 || top < 100 {
		t.Fatalf("2000 member reads touched %d members, the hottest %d times", len(count), top)
	}
}
