package numtheory

import (
	"math/big"
	"math/bits"
)

// Mont is Montgomery arithmetic modulo one fixed odd n > 1 held in L
// machine words (big.Word limbs, least significant first). Write
// β = 2^bits.UintSize for the word base and R = β^L.
//
// It serves the loops that run thousands of modular steps against one
// small modulus: the per-shard sweep of an online check and Pollard rho.
// There math/big's general division allocates a quotient on every call
// and does most of the work. Montgomery reduction needs no division and
// no allocation. Because R is a unit modulo odd n, a Montgomery residue
// has exactly the same gcd with n, and the same zero-ness, as the plain
// residue would.
//
// A Mont owns scratch space, so it is not safe for concurrent use.
type Mont struct {
	n    []big.Word // the modulus, normalised, len L
	ninv big.Word   // -n⁻¹ mod β
	t    []big.Word // mul/reduce scratch, L+1 words
}

// NewMont returns the Montgomery context for n, or nil unless n is odd
// and greater than 1.
func NewMont(n *big.Int) *Mont {
	if n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 2 {
		return nil
	}
	nw := append([]big.Word(nil), n.Bits()...)
	// Newton's iteration for n[0]⁻¹ mod β. Any odd x is its own inverse
	// mod 8, and each step doubles the correct low bits: 3, 6, 12, 24,
	// 48, 96 >= 64.
	inv := nw[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - nw[0]*inv
	}
	return &Mont{n: nw, ninv: -inv, t: make([]big.Word, len(nw)+1)}
}

// mul sets z = x·y·R⁻¹ mod n by the CIOS method (coarsely integrated
// operand scanning), with the multiply and reduce passes fused. x, y and
// z are L words long, x and y below n; z may alias either. The result
// is fully reduced, 0 <= z < n.
func (m *Mont) mul(z, x, y []big.Word) {
	n := m.n
	L := len(n)
	x, y = x[:L], y[:L]
	t := m.t[:L+1]
	clear(t)
	for _, yi := range y {
		// t = (t + x·yi + q·n)/β, q chosen so the low word vanishes.
		// t < 2n before and after, so t[L] is 0 or 1.
		c1, lo := mulAdd(uint(x[0]), uint(yi), uint(t[0]), 0)
		q := lo * uint(m.ninv)
		c2, _ := mulAdd(q, uint(n[0]), lo, 0)
		for j, tl := 1, t[:L]; j < L; j++ {
			c1, lo = mulAdd(uint(x[j]), uint(yi), uint(tl[j]), c1)
			c2, lo = mulAdd(q, uint(n[j]), lo, c2)
			tl[j-1] = big.Word(lo)
		}
		s, c := bits.Add(uint(t[L]), c1, 0)
		s, cc := bits.Add(s, c2, 0)
		t[L-1], t[L] = big.Word(s), big.Word(c+cc)
	}
	m.final(z[:L], t)
}

// mulAdd returns a·b + c + d as (hi, lo); it cannot overflow two words.
func mulAdd(a, b, c, d uint) (hi, lo uint) {
	hi, lo = bits.Mul(a, b)
	lo, cc := bits.Add(lo, c, 0)
	hi += cc
	lo, cc = bits.Add(lo, d, 0)
	return hi + cc, lo
}

// Reduce sets z to the residue r ≡ p·β⁻ᵏ (mod n), 0 <= r < n, where k
// is the number of words in |p|, and returns z. It streams p word by
// word from the least significant end, folding each word into an
// (L+1)-word accumulator that stays below 2n, so a long p costs k·L word
// multiplies and no quotient. Since β is a unit mod n, gcd(n, r) =
// gcd(n, p) and r == 0 exactly when n divides p.
//
// z's storage is reused when it has room, so passing the same z back on
// every call makes a sweep allocation-free.
func (m *Mont) Reduce(z, p *big.Int) *big.Int {
	n := m.n
	L := len(n)
	s := m.t[:L+1]
	clear(s)
	for _, w := range p.Bits() {
		// s = (s + w + q·n)/β, q chosen so the low word vanishes.
		q := (uint(s[0]) + uint(w)) * uint(m.ninv)
		c, _ := mulAdd(q, uint(n[0]), uint(s[0]), uint(w))
		for j, sl := 1, s[:L]; j < L; j++ {
			var lo uint
			c, lo = mulAdd(q, uint(n[j]), uint(sl[j]), c)
			sl[j-1] = big.Word(lo)
		}
		v, cc := bits.Add(uint(s[L]), c, 0)
		s[L-1], s[L] = big.Word(v), big.Word(cc)
	}
	buf := z.Bits()
	if cap(buf) < L {
		buf = make([]big.Word, L)
	}
	buf = buf[:L]
	m.final(buf, s)
	return z.SetBits(buf)
}

// final writes s mod n to z for an (L+1)-word s < 2n.
func (m *Mont) final(z, s []big.Word) {
	L := len(m.n)
	if s[L] == 0 && less(s[:L], m.n) {
		copy(z, s[:L])
		return
	}
	sub(z, s[:L], m.n)
}

// less reports x < y for equal-length little-endian word slices.
func less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// sub sets z = x - y mod β^len(x).
func sub(z, x, y []big.Word) {
	var b uint
	for i := range x {
		var d uint
		d, b = bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
	}
}

// addMod sets z = x + y mod n for x, y < n.
func (m *Mont) addMod(z, x, y []big.Word) {
	var c uint
	for i := range m.n {
		s, cc := bits.Add(uint(x[i]), uint(y[i]), c)
		z[i], c = big.Word(s), cc
	}
	if c != 0 || !less(z, m.n) {
		sub(z, z, m.n)
	}
}

// absDiff sets z = |x - y| and reports whether x == y, leaving z
// untouched then.
func absDiff(z, x, y []big.Word) (equal bool) {
	switch {
	case less(x, y):
		sub(z, y, x)
	case less(y, x):
		sub(z, x, y)
	default:
		return true
	}
	return false
}

// toMont writes x·R mod n (Montgomery form) to z for 0 <= x. It
// allocates, so it belongs in setup, not in a loop.
func (m *Mont) toMont(z []big.Word, x *big.Int) {
	v := new(big.Int).Lsh(x, uint(len(m.n)*bits.UintSize))
	v.Mod(v, new(big.Int).SetBits(m.n))
	clear(z)
	copy(z, v.Bits())
}
