package modem

import (
	"errors"
	"sync"
)

// Reed-Solomon codec over GF(256) with the AES-friendly primitive
// polynomial x⁸+x⁴+x³+x²+1 (0x11D) and generator roots α⁰..α^(p−1).
// A block of n ≤ 255 bytes carrying p parity bytes corrects any
// ⌊p/2⌋ corrupted bytes: syndromes locate nothing by themselves, so
// decoding runs the classic pipeline — Berlekamp-Massey for the error
// locator, Chien search for the positions, Forney for the magnitudes.

var gfExp [512]byte
var gfLog [256]int

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11D
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfInv(a byte) byte { return gfExp[255-gfLog[a]] }

// gfPowA returns α^n for any integer n.
func gfPowA(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// rsGen returns (cached) the monic generator polynomial of degree p,
// coefficients highest degree first: gen[0] = 1.
var rsGenCache sync.Map // int → []byte

func rsGen(p int) []byte {
	if g, ok := rsGenCache.Load(p); ok {
		return g.([]byte)
	}
	gen := []byte{1}
	for i := 0; i < p; i++ {
		root := gfPowA(i)
		next := make([]byte, len(gen)+1)
		for j, c := range gen {
			next[j] ^= c
			next[j+1] ^= gfMul(c, root)
		}
		gen = next
	}
	rsGenCache.Store(p, gen)
	return gen
}

// appendRSParity appends the p check bytes for data (remainder of
// data(x)·x^p divided by the generator) to dst.
func appendRSParity(dst, data []byte, p int) []byte {
	gen := rsGen(p)
	dst, par := extend(dst, p)
	for _, d := range data {
		factor := d ^ par[0]
		copy(par, par[1:])
		par[p-1] = 0
		if factor != 0 {
			for i := 0; i < p; i++ {
				par[i] ^= gfMul(gen[i+1], factor)
			}
		}
	}
	return dst
}

// errRSUncorrectable reports an error pattern beyond the block's
// correction capacity that the algebra could detect (the frame CRC
// catches the ones it cannot).
var errRSUncorrectable = errors.New("modem: reed-solomon block uncorrectable")

// rsCorrect repairs block (data ‖ parity, parity = last p bytes) in
// place and returns how many bytes it fixed. A block is at most 255
// bytes, so every polynomial it builds fits a fixed-size array on the
// stack and correction allocates nothing.
func rsCorrect(block []byte, p int) (int, error) {
	n := len(block)
	if n <= p || n > 255 {
		return 0, errRSUncorrectable
	}
	// Syndromes s[i] = c(α^i); coefficient block[0] is highest-degree.
	var syndBuf [255]byte
	synd := syndBuf[:p]
	clean := true
	for i := 0; i < p; i++ {
		root := gfPowA(i)
		var s byte
		for _, b := range block {
			s = gfMul(s, root) ^ b
		}
		synd[i] = s
		if s != 0 {
			clean = false
		}
	}
	if clean {
		return 0, nil
	}

	// Berlekamp-Massey: find the shortest LFSR (error locator σ,
	// lowest degree first: σ[0] = 1) generating the syndromes. σ holds
	// at most i+2 coefficients after step i, so at most p+1 ≤ 255 in
	// all: σ, the previous σ and a spare rotate among three arrays.
	var sigmaBuf, prevBuf, spareBuf [256]byte
	sigma := append(sigmaBuf[:0], 1)
	prev := append(prevBuf[:0], 1)
	spare := spareBuf[:0]
	var l, m int = 0, 1
	var b byte = 1
	for i := 0; i < p; i++ {
		var d byte = synd[i]
		for j := 1; j <= l; j++ {
			if j < len(sigma) {
				d ^= gfMul(sigma[j], synd[i-j])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := append(spare[:0], sigma...)
			sigma = polyFix(sigma, prev, gfMul(d, gfInv(b)), m)
			prev, spare = tmp, prev
			b, l, m = d, i+1-l, 1
		} else {
			sigma = polyFix(sigma, prev, gfMul(d, gfInv(b)), m)
			m++
		}
	}
	nu := len(sigma) - 1
	for nu > 0 && sigma[nu] == 0 {
		nu--
	}
	sigma = sigma[:nu+1]
	if nu == 0 || nu > p/2 {
		return 0, errRSUncorrectable
	}

	// Chien search: error at byte j ⇔ σ(X_j^{-1}) = 0, with location
	// X_j = α^(n−1−j).
	var posBuf [255]uint8
	positions := posBuf[:0]
	for j := 0; j < n; j++ {
		xinv := gfPowA(-(n - 1 - j))
		var v byte
		for k := nu; k >= 0; k-- {
			v = gfMul(v, xinv) ^ sigma[k]
		}
		if v == 0 {
			positions = append(positions, uint8(j))
		}
	}
	if len(positions) != nu {
		return 0, errRSUncorrectable
	}

	// Forney: Ω(x) = S(x)σ(x) mod x^p; with generator roots starting
	// at α⁰ the magnitude at X_j is X_j·Ω(X_j^{-1})/σ'(X_j^{-1}).
	var omegaBuf [255]byte
	omega := omegaBuf[:p]
	for i := 0; i < p; i++ {
		var v byte
		for j := 0; j <= i && j <= nu; j++ {
			v ^= gfMul(sigma[j], synd[i-j])
		}
		omega[i] = v
	}
	for _, pos := range positions {
		j := int(pos)
		x := gfPowA(n - 1 - j)
		xinv := gfInv(x)
		var om byte
		for k := len(omega) - 1; k >= 0; k-- {
			om = gfMul(om, xinv) ^ omega[k]
		}
		// σ'(x) in characteristic 2: odd-degree terms only.
		var dsig byte
		for k := 1; k <= nu; k += 2 {
			pw := gfPowA((k - 1) * (255 - gfLog[x]) % 255)
			dsig ^= gfMul(sigma[k], pw)
		}
		if dsig == 0 {
			return 0, errRSUncorrectable
		}
		block[j] ^= gfMul(gfMul(x, om), gfInv(dsig))
	}

	// Recheck: repaired codeword must syndrome clean, or the pattern
	// exceeded capacity and the "fix" is fiction.
	for i := 0; i < p; i++ {
		root := gfPowA(i)
		var s byte
		for _, bb := range block {
			s = gfMul(s, root) ^ bb
		}
		if s != 0 {
			return 0, errRSUncorrectable
		}
	}
	return nu, nil
}

// polyFix sets sigma ⊕= scale·x^shift·prev, growing sigma with zeros
// to len(prev)+shift, and returns it. It writes in sigma's backing
// array, which must not be prev's.
func polyFix(sigma, prev []byte, scale byte, shift int) []byte {
	for len(sigma) < len(prev)+shift {
		sigma = append(sigma, 0)
	}
	for i, c := range prev {
		sigma[i+shift] ^= gfMul(c, scale)
	}
	return sigma
}
