package modem

import (
	"bytes"
	"math/rand"
	"testing"
)

// rsCorrectOracle is the allocating Reed-Solomon decoder rsCorrect
// replaced: the same pipeline on freshly made slices. It stays as the
// oracle the stack-array decoder is held to.
func rsCorrectOracle(block []byte, p int) (int, error) {
	n := len(block)
	if n <= p || n > 255 {
		return 0, errRSUncorrectable
	}
	synd := make([]byte, p)
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
	sigma := []byte{1}
	prev := []byte{1}
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
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			sigma = polyFixOracle(sigma, prev, gfMul(d, gfInv(b)), m)
			prev, b, l, m = tmp, d, i+1-l, 1
		} else {
			sigma = polyFixOracle(sigma, prev, gfMul(d, gfInv(b)), m)
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
	var positions []int
	for j := 0; j < n; j++ {
		xinv := gfPowA(-(n - 1 - j))
		var v byte
		for k := nu; k >= 0; k-- {
			v = gfMul(v, xinv) ^ sigma[k]
		}
		if v == 0 {
			positions = append(positions, j)
		}
	}
	if len(positions) != nu {
		return 0, errRSUncorrectable
	}
	omega := make([]byte, p)
	for i := 0; i < p; i++ {
		var v byte
		for j := 0; j <= i && j <= nu; j++ {
			v ^= gfMul(sigma[j], synd[i-j])
		}
		omega[i] = v
	}
	for _, j := range positions {
		x := gfPowA(n - 1 - j)
		xinv := gfInv(x)
		var om byte
		for k := len(omega) - 1; k >= 0; k-- {
			om = gfMul(om, xinv) ^ omega[k]
		}
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

func polyFixOracle(sigma, prev []byte, scale byte, shift int) []byte {
	out := make([]byte, len(sigma))
	copy(out, sigma)
	need := len(prev) + shift
	for len(out) < need {
		out = append(out, 0)
	}
	for i, c := range prev {
		out[i+shift] ^= gfMul(c, scale)
	}
	return out
}

// TestRSCorrectMatchesAllocatingOracle holds the stack-array decoder to
// the allocating one on random codewords of every parity FECByName
// accepts, with 0 to p/2+1 bytes corrupted: one past capacity, where
// the algebra must notice or the frame CRC catch a miscorrection.
// Repaired bytes, correction count and error must all match.
func TestRSCorrectMatchesAllocatingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for p := 8; p <= 120; p += 8 {
		for errs := 0; errs <= p/2+1; errs++ {
			for trial := 0; trial < 4; trial++ {
				data := make([]byte, 1+rng.Intn(255-p))
				rng.Read(data)
				block := appendRSParity(append([]byte(nil), data...), data, p)
				for _, pos := range rng.Perm(len(block))[:errs] {
					block[pos] ^= byte(1 + rng.Intn(255))
				}
				got, want := bytes.Clone(block), bytes.Clone(block)
				n, err := rsCorrect(got, p)
				wantN, wantErr := rsCorrectOracle(want, p)
				if n != wantN || err != wantErr || !bytes.Equal(got, want) {
					t.Fatalf("p=%d, %d errors, %d-byte block: stack-array decoder (%d, %v), oracle (%d, %v), bytes equal %v",
						p, errs, len(block), n, err, wantN, wantErr, bytes.Equal(got, want))
				}
			}
		}
	}
}

// TestFECAppendFormsMatchExported: for every shipped scheme, encoding
// and decoding into a reused buffer that already holds bytes appends
// exactly what the exported Encode and Decode return, clean and
// corrupted, and reports the same corrections and error.
func TestFECAppendFormsMatchExported(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	prefix := []byte("kept")
	for _, f := range fecSchemes() {
		var enc, dec []byte
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, 1+rng.Intn(300))
			rng.Read(data)
			coded := f.Encode(data)
			enc = f.appendEncode(append(enc[:0], prefix...), data)
			if !bytes.Equal(enc[:len(prefix)], prefix) || !bytes.Equal(enc[len(prefix):], coded) {
				t.Fatalf("%s, %d bytes: appendEncode differs from Encode", f.Name(), len(data))
			}
			corruptSymbols(rng, coded, rng.Intn(1+len(coded)/8))
			want, wantN, wantErr := f.Decode(coded, len(data))
			var n int
			var err error
			dec, n, err = f.appendDecode(append(dec[:0], prefix...), coded, len(data))
			if n != wantN || err != wantErr {
				t.Fatalf("%s, %d bytes: appendDecode (%d, %v), Decode (%d, %v)", f.Name(), len(data), n, err, wantN, wantErr)
			}
			if err == nil && (!bytes.Equal(dec[:len(prefix)], prefix) || !bytes.Equal(dec[len(prefix):], want)) {
				t.Fatalf("%s, %d bytes: appendDecode differs from Decode", f.Name(), len(data))
			}
		}
	}
}
