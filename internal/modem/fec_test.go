package modem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func fecSchemes() []FEC {
	return []FEC{FECNone{}, FECHamming{}, FECRS{Parity: DefaultRSParity}, FECRS{Parity: 16}}
}

func TestFECRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range fecSchemes() {
		for _, n := range []int{1, 2, 3, 17, 66, 255, 400} {
			data := make([]byte, n)
			rng.Read(data)
			coded := f.Encode(data)
			if len(coded) != f.CodedLen(n) {
				t.Fatalf("%s: CodedLen(%d)=%d but Encode produced %d",
					f.Name(), n, f.CodedLen(n), len(coded))
			}
			got, corrected, err := f.Decode(coded, n)
			if err != nil || corrected != 0 || !bytes.Equal(got, data) {
				t.Fatalf("%s n=%d: clean decode = (%v, %d, %v)", f.Name(), n, got, corrected, err)
			}
		}
	}
}

func TestFECByIDRoundTrip(t *testing.T) {
	for _, f := range fecSchemes() {
		got, err := FECByID(f.ID())
		if err != nil {
			t.Fatalf("%s: FECByID(%#02x): %v", f.Name(), f.ID(), err)
		}
		if got.Name() != f.Name() {
			t.Errorf("FECByID(%#02x) = %s, want %s", f.ID(), got.Name(), f.Name())
		}
	}
	if _, err := FECByID(0xF0); !errors.Is(err, ErrUnknownFEC) {
		t.Errorf("unknown id err = %v", err)
	}
	if _, err := FECByID(fecKindRS << 4); !errors.Is(err, ErrUnknownFEC) {
		t.Errorf("zero-parity RS id err = %v", err)
	}
}

func TestFECDecodeTooShort(t *testing.T) {
	for _, f := range fecSchemes() {
		coded := f.Encode(make([]byte, 20))
		if _, _, err := f.Decode(coded[:len(coded)-1], 20); !errors.Is(err, ErrCodedTooShort) {
			t.Errorf("%s: short decode err = %v", f.Name(), err)
		}
	}
}

// corruptSymbols flips nSym distinct 4-bit aligned symbols of coded —
// the same damage a corrupted on-air lane symbol causes.
func corruptSymbols(rng *rand.Rand, coded []byte, nSym int) {
	total := 2 * len(coded)
	picked := map[int]bool{}
	for len(picked) < nSym && len(picked) < total {
		i := rng.Intn(total)
		if picked[i] {
			continue
		}
		picked[i] = true
		old := nibbleOf(coded, i)
		setNibble(coded, i, old^(1+rng.Intn(15)))
	}
}

func TestFECRSCorrectsUpToCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := FECRS{Parity: DefaultRSParity}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		data := make([]byte, n)
		rng.Read(data)
		coded := f.Encode(data)
		// Every block corrects Parity/2 corrupted bytes; cap the symbol
		// count there so even the worst case — all symbols in distinct
		// bytes of one block — stays within capacity.
		nSym := 2 * len(coded) / 20 // 5% of symbols, the chaos floor rate
		if nSym > DefaultRSParity/2 {
			nSym = DefaultRSParity / 2
		}
		corruptSymbols(rng, coded, nSym)
		got, corrected, err := f.Decode(coded, n)
		if err != nil {
			t.Fatalf("trial %d n=%d: decode err %v (%d syms corrupted)", trial, n, err, nSym)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d n=%d: decode mismatch after %d corrections", trial, n, corrected)
		}
		if nSym > 0 && corrected == 0 {
			t.Fatalf("trial %d: corruption reported zero corrections", trial)
		}
	}
}

func TestFECRSDetectsOverCapacity(t *testing.T) {
	// Beyond Parity/2 byte errors a block is uncorrectable; the decoder
	// must either report it or be caught by the recheck. Miscorrection
	// into a different valid codeword is cryptographically unlikely at
	// this distance and would be caught by the frame CRC anyway.
	rng := rand.New(rand.NewSource(3))
	f := FECRS{Parity: 16}
	data := make([]byte, 40)
	rng.Read(data)
	coded := f.Encode(data)
	for i := 0; i < 20; i++ { // 20 byte errors >> capacity 8
		coded[i] ^= 0xFF
	}
	if _, _, err := f.Decode(coded, len(data)); err == nil {
		t.Fatal("over-capacity corruption decoded without error")
	}
}

func TestFECHammingCorrectsBursts(t *testing.T) {
	// Two corrupted stream bits land in the same codeword only when
	// their indices agree mod the codeword count (2·dataLen), i.e. when
	// they are at least 2·dataLen bits — dataLen/2 symbols — apart. Any
	// corruption confined to fewer than dataLen/2 consecutive symbols is
	// therefore fully correctable, however dense.
	rng := rand.New(rand.NewSource(4))
	f := FECHamming{}
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(120)
		data := make([]byte, n)
		rng.Read(data)
		coded := f.Encode(data)
		total := 2 * len(coded)
		burst := 1 + rng.Intn(n/2-1)
		start := rng.Intn(total - burst)
		for i := start; i < start+burst; i++ {
			setNibble(coded, i, nibbleOf(coded, i)^(1+rng.Intn(15)))
		}
		got, corrected, err := f.Decode(coded, n)
		if err != nil {
			t.Fatalf("trial %d: decode err %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d n=%d burst=%d@%d: mismatch after %d corrections",
				trial, n, burst, start, corrected)
		}
	}
}

func TestRSParityAlgebra(t *testing.T) {
	// data ‖ parity must evaluate to zero at every generator root.
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{8, 16, 48} {
		data := make([]byte, 100)
		rng.Read(data)
		block := appendRSParity(append([]byte{}, data...), data, p)
		for i := 0; i < p; i++ {
			root := gfPowA(i)
			var s byte
			for _, b := range block {
				s = gfMul(s, root) ^ b
			}
			if s != 0 {
				t.Fatalf("p=%d: syndrome %d nonzero", p, i)
			}
		}
	}
}

func TestGFFieldBasics(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a·a⁻¹ ≠ 1 for a=%d", a)
		}
	}
	if gfMul(0, 7) != 0 || gfMul(7, 0) != 0 {
		t.Error("0 not absorbing")
	}
}
