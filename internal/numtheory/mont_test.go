package numtheory

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// wordBits is the big.Word width: 64 on amd64, 32 on 386.
const wordBits = bits.UintSize

// randWords returns a random integer of exactly `words` limbs.
func randWords(rng *rand.Rand, words int) *big.Int {
	v := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(words*wordBits)))
	return v.SetBit(v, words*wordBits-1, 1)
}

// allOnes returns β^words - 1, every limb all-ones.
func allOnes(words int) *big.Int {
	v := new(big.Int).Lsh(one, uint(words*wordBits))
	return v.Sub(v, one)
}

// checkReduce asserts Mont.Reduce(p) against big.Int: r < n and
// r·β^k ≡ p (mod n) for k = len(p.Bits()).
func checkReduce(t *testing.T, n, p *big.Int) {
	t.Helper()
	m := NewMont(n)
	r := m.Reduce(new(big.Int), p)
	if r.Sign() < 0 || r.Cmp(n) >= 0 {
		t.Fatalf("Reduce(%x) mod %x = %x, not in [0, n)", p, n, r)
	}
	back := new(big.Int).Lsh(r, uint(len(p.Bits())*wordBits))
	back.Mod(back, n)
	if want := new(big.Int).Mod(p, n); back.Cmp(want) != 0 {
		t.Fatalf("Reduce(%x) mod %x = %x: r·β^k = %x, want %x", p, n, r, back, want)
	}
}

// checkMul asserts Mont.mul(x, y) against big.Int: z < n and
// z·R ≡ x·y (mod n).
func checkMul(t *testing.T, n, x, y *big.Int) {
	t.Helper()
	m := NewMont(n)
	L := len(m.n)
	xw, yw, zw := make([]big.Word, L), make([]big.Word, L), make([]big.Word, L)
	copy(xw, x.Bits())
	copy(yw, y.Bits())
	m.mul(zw, xw, yw)
	z := new(big.Int).SetBits(zw)
	if z.Cmp(n) >= 0 {
		t.Fatalf("Mul(%x, %x) mod %x = %x, not below n", x, y, n, z)
	}
	got := new(big.Int).Lsh(z, uint(L*wordBits))
	got.Mod(got, n)
	want := new(big.Int).Mul(x, y)
	if want.Mod(want, n); got.Cmp(want) != 0 {
		t.Fatalf("Mul(%x, %x) mod %x = %x: z·R = %x, want %x", x, y, n, z, got, want)
	}
	// In place: z may alias an operand.
	m.mul(xw, xw, yw)
	if new(big.Int).SetBits(xw).Cmp(new(big.Int).SetBits(zw)) != 0 {
		t.Fatalf("Mul(%x, %x) mod %x differs when z aliases x", x, y, n)
	}
}

func TestNewMontRejectsEvenAndSmall(t *testing.T) {
	for _, v := range []int64{-3, 0, 1, 2, 10, 1 << 40} {
		if NewMont(big.NewInt(v)) != nil {
			t.Errorf("NewMont(%d) != nil", v)
		}
	}
	if NewMont(big.NewInt(3)) == nil {
		t.Error("NewMont(3) == nil")
	}
}

// TestMontAgainstBigInt compares mul and Reduce with math/big over
// random odd moduli of 1–40 limbs and the edge cases: P = 0, P < n,
// n | P, all-ones limbs in n or P, and 1-limb moduli.
func TestMontAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for L := 1; L <= 40; L++ {
		for trial := 0; trial < 12; trial++ {
			n := randWords(rng, L)
			n.SetBit(n, 0, 1)
			if trial == 0 {
				n = allOnes(L)
			}
			if n.BitLen() < 2 {
				continue
			}
			x := new(big.Int).Rand(rng, n)
			y := new(big.Int).Rand(rng, n)
			checkMul(t, n, x, y)
			nm1 := new(big.Int).Sub(n, one)
			checkMul(t, n, nm1, nm1)
			checkMul(t, n, new(big.Int), y)

			k := rng.Intn(3*L + 8)
			p := randWords(rng, k+1)
			for _, pv := range []*big.Int{
				p,
				new(big.Int),                             // P = 0
				x,                                        // P < n
				new(big.Int).Mul(n, randWords(rng, k+1)), // n | P
				n,                                        // P = n
				allOnes(k + L),                           // all-ones limbs
			} {
				checkReduce(t, n, pv)
			}
		}
	}
	// 1-limb moduli at both ends of the word range.
	for _, n := range []*big.Int{big.NewInt(3), big.NewInt(5), allOnes(1), new(big.Int).Sub(allOnes(1), big.NewInt(2))} {
		for _, p := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), allOnes(1), allOnes(7), new(big.Int).Mul(n, allOnes(5))} {
			checkReduce(t, n, p)
			if p.Cmp(n) < 0 {
				checkMul(t, n, p, new(big.Int).Sub(n, one))
			}
		}
	}
}

// TestMontReduceReusesStorage pins the allocation-free sweep: once the
// destination has room, Reduce allocates nothing.
func TestMontReduceReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := randWords(rng, 4)
	n.SetBit(n, 0, 1)
	p := randWords(rng, 1000)
	m := NewMont(n)
	r := new(big.Int)
	m.Reduce(r, p)
	if a := testing.AllocsPerRun(20, func() { m.Reduce(r, p) }); a != 0 {
		t.Errorf("Reduce allocated %.1f times per call", a)
	}
}

// fuzzModulus maps arbitrary bytes to a modulus of at most 4096 bits.
// NewMont must accept it exactly when it is odd and above 1; ok reports
// whether it did.
func fuzzModulus(t *testing.T, nb []byte) (n *big.Int, ok bool) {
	n = new(big.Int).SetBytes(nb)
	if n.BitLen() > 4096 {
		return nil, false
	}
	want := n.BitLen() >= 2 && n.Bit(0) == 1
	if got := NewMont(n) != nil; got != want {
		t.Fatalf("NewMont(%x) accepted = %v, want %v", n, got, want)
	}
	return n, want
}

func FuzzMontReduce(f *testing.F) {
	f.Add([]byte{0x0f}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, nb, pb []byte) {
		if n, ok := fuzzModulus(t, nb); ok {
			checkReduce(t, n, new(big.Int).SetBytes(pb))
		}
	})
}

func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0x0f}, []byte{0x0e}, []byte{0x0d})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}, []byte{0x02})
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		n, ok := fuzzModulus(t, nb)
		if !ok {
			return
		}
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		checkMul(t, n, x.Mod(x, n), y.Mod(y, n))
	})
}

func BenchmarkMontReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	n := randWords(rng, 256/wordBits)
	n.SetBit(n, 0, 1)
	p := randWords(rng, 640000/wordBits) // a 10k-word (64-bit) shard product
	m := NewMont(n)
	r := new(big.Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Reduce(r, p)
	}
}

func BenchmarkBigIntMod(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	n := randWords(rng, 256/wordBits)
	n.SetBit(n, 0, 1)
	p := randWords(rng, 640000/wordBits)
	r := new(big.Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Mod(p, n)
	}
}
