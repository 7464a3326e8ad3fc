package pecc

import (
	"testing"
	"testing/quick"

	"racetrack/hifi/internal/stripe"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 8); err != nil {
		t.Fatalf("New(1,8): %v", err)
	}
	bad := []struct{ m, l int }{
		{-1, 8}, {7, 8}, {8, 8}, {0, 1}, {1, 0},
	}
	for _, c := range bad {
		if _, err := New(c.m, c.l); err == nil {
			t.Errorf("New(%d,%d) accepted", c.m, c.l)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(-1,8) did not panic")
		}
	}()
	MustNew(-1, 8)
}

func TestSEDProperties(t *testing.T) {
	c := SED(8)
	if c.M() != 0 || c.Window() != 1 || c.Period() != 2 {
		t.Fatalf("SED geometry wrong: m=%d w=%d p=%d", c.M(), c.Window(), c.Period())
	}
	// Pattern is 10101... (alternating), the paper's '10101'.
	for i := 0; i < 10; i++ {
		want := stripe.FromBool(i%2 == 0)
		if c.Bit(i) != want {
			t.Errorf("SED bit %d = %v, want %v", i, c.Bit(i), want)
		}
	}
}

func TestSECDEDGeometry(t *testing.T) {
	c := SECDED(4)
	if c.Window() != 2 || c.Period() != 4 {
		t.Fatalf("SECDED geometry wrong: w=%d p=%d", c.Window(), c.Period())
	}
	// Paper Fig 6: Lseg=4, m=1 needs 9 code domains.
	if c.Length() != 9 {
		t.Errorf("SECDED(4) length = %d, want 9", c.Length())
	}
	if c.GuardDomains() != 2 {
		t.Errorf("guard domains = %d, want 2", c.GuardDomains())
	}
	// §4.2.3 area accounting: Lseg-1+2m.
	if c.AreaLength() != 5 {
		t.Errorf("area length = %d, want 5", c.AreaLength())
	}
}

func TestSECDEDCyclicWindows(t *testing.T) {
	// Fig 6(e): the 2-bit window cycles 11 -> 10 -> 00 -> 01.
	c := SECDED(8)
	want := [][2]stripe.Bit{
		{stripe.One, stripe.One},
		{stripe.One, stripe.Zero},
		{stripe.Zero, stripe.Zero},
		{stripe.Zero, stripe.One},
	}
	for p := 0; p < 4; p++ {
		w := c.ExpectedWindow(p)
		if w[0] != want[p][0] || w[1] != want[p][1] {
			t.Errorf("phase %d window = %v%v, want %v%v", p, w[0], w[1], want[p][0], want[p][1])
		}
	}
}

func TestAllPhasesDistinct(t *testing.T) {
	// The fundamental property making correction possible: all P cyclic
	// windows are distinct, for every strength.
	for m := 0; m <= 5; m++ {
		c := MustNew(m, 16)
		seen := make(map[string]int)
		for p := 0; p < c.Period(); p++ {
			w := c.ExpectedWindow(p)
			key := ""
			for _, b := range w {
				key += b.String()
			}
			if prev, ok := seen[key]; ok {
				t.Errorf("m=%d: phases %d and %d share window %s", m, prev, p, key)
			}
			seen[key] = p
		}
	}
}

func TestDecodeNoError(t *testing.T) {
	c := SECDED(8)
	for off := 0; off < 16; off++ {
		res := c.Decode(off, c.ExpectedWindow(off))
		if res.Detected {
			t.Errorf("offset %d: false positive %+v", off, res)
		}
	}
}

func TestDecodeCorrectsWithinM(t *testing.T) {
	for m := 1; m <= 4; m++ {
		c := MustNew(m, 16)
		for believed := 0; believed < 12; believed++ {
			for e := -m; e <= m; e++ {
				if e == 0 {
					continue
				}
				res := c.Decode(believed, c.ExpectedWindow(believed+e))
				if !res.Detected || !res.Correctable {
					t.Fatalf("m=%d believed=%d e=%+d: not corrected: %+v", m, believed, e, res)
				}
				if res.Offset != e {
					t.Fatalf("m=%d believed=%d: offset %+d decoded as %+d", m, believed, e, res.Offset)
				}
			}
		}
	}
}

func TestDecodeDetectsMPlus1(t *testing.T) {
	for m := 0; m <= 3; m++ {
		c := MustNew(m, 16)
		for _, sign := range []int{1, -1} {
			e := sign * (m + 1)
			res := c.Decode(5, c.ExpectedWindow(5+e))
			if !res.Detected {
				t.Errorf("m=%d e=%+d: not detected", m, e)
			}
			if res.Correctable {
				t.Errorf("m=%d e=%+d: wrongly claimed correctable", m, e)
			}
			if res.Indeterminate {
				t.Errorf("m=%d e=%+d: wrongly indeterminate", m, e)
			}
		}
	}
}

func TestDecodeAliasesBeyondDetection(t *testing.T) {
	// Errors beyond m+1 alias back into the cyclic code: a P-step error is
	// silent (this is why those rates must be negligible — the paper's
	// |k|>=3 rates are "too small"). Document the aliasing explicitly.
	c := SECDED(8)
	res := c.Decode(4, c.ExpectedWindow(4+c.Period()))
	if res.Detected {
		t.Errorf("full-period error should alias to silence, got %+v", res)
	}
}

func TestDecodeIndeterminateOnUnknown(t *testing.T) {
	c := SECDED(8)
	res := c.Decode(0, []stripe.Bit{stripe.Unknown, stripe.One})
	if !res.Detected || !res.Indeterminate {
		t.Errorf("Unknown window should be indeterminate: %+v", res)
	}
}

func TestDecodeNegativeBelievedOffset(t *testing.T) {
	c := SECDED(8)
	res := c.Decode(-3, c.ExpectedWindow(-3))
	if res.Detected {
		t.Errorf("negative believed offset false positive: %+v", res)
	}
	res = c.Decode(-3, c.ExpectedWindow(-2))
	if !res.Correctable || res.Offset != 1 {
		t.Errorf("negative believed offset: %+v", res)
	}
}

func TestDecodeWindowSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short window did not panic")
		}
	}()
	SECDED(8).Decode(0, []stripe.Bit{stripe.One})
}

func TestPatternLength(t *testing.T) {
	c := SECDED(8)
	if got := len(c.Pattern()); got != c.Length() {
		t.Errorf("pattern length %d != Length %d", got, c.Length())
	}
}

func TestQuickDecodeRoundTrip(t *testing.T) {
	// Property: for any believed offset and any error within +-m, encode
	// then decode recovers the error exactly.
	f := func(mRaw, offRaw uint8, eRaw int8) bool {
		m := int(mRaw%4) + 1
		c := MustNew(m, 16)
		believed := int(offRaw % 15)
		e := int(eRaw) % (m + 1)
		res := c.Decode(believed, c.ExpectedWindow(believed+e))
		if e == 0 {
			return !res.Detected
		}
		return res.Correctable && res.Offset == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitNegativeIndex(t *testing.T) {
	c := SECDED(8)
	// Cyclic extension must be consistent both directions.
	for i := -8; i < 8; i++ {
		if c.Bit(i) != c.Bit(i+c.Period()) {
			t.Errorf("Bit not periodic at %d", i)
		}
	}
}

func TestOCodeProperties(t *testing.T) {
	o := MustNewO(1, 8)
	if o.MaxShiftPerOp() != 1 {
		t.Error("p-ECC-O must shift step by step")
	}
	if o.ExtraDomainsPerEnd() != 4 {
		t.Errorf("extra domains per end = %d, want 4 (paper §4.2.4 example)", o.ExtraDomainsPerEnd())
	}
	// Paper: 15.7% cell overhead on a 64-domain stripe ≈ 10 domains.
	if got := o.ExtraDomains(); got != 10 {
		t.Errorf("total extra domains = %d, want 10", got)
	}
	if o.PortsPerEnd() != 3 || o.WritePorts() != 2 {
		t.Errorf("ports per end = %d, write ports = %d", o.PortsPerEnd(), o.WritePorts())
	}
	// Decoding behaviour is inherited unchanged.
	res := o.Decode(2, o.ExpectedWindow(3))
	if !res.Correctable || res.Offset != 1 {
		t.Errorf("OCode decode: %+v", res)
	}
}

func TestNewOValidation(t *testing.T) {
	if _, err := NewO(9, 8); err == nil {
		t.Error("NewO accepted invalid strength")
	}
}

// FuzzDecode: for any strength m, segment length, believed offset b and
// true error k, decoding the window read at b+k classifies k by its
// residue d = k mod P alone: silent at d = 0 (a whole-period error
// aliases), corrected to d or d-P within m steps of a period multiple,
// so |k| <= m always recovers k, and detected but not correctable at
// d = m+1. An Unknown bit anywhere in the window is indeterminate, and
// no window of Window() bits, whatever its bytes, panics Decode.
func FuzzDecode(f *testing.F) {
	f.Add(int8(1), int16(8), int32(4), int32(1), []byte{1, 0})
	f.Add(int8(1), int16(8), int32(4), int32(4), []byte{2, 1})
	f.Add(int8(1), int16(8), int32(-3), int32(-2), []byte{})
	f.Add(int8(0), int16(2), int32(0), int32(-1), []byte{7})
	f.Add(int8(5), int16(64), int32(-1000), int32(-6), []byte{1, 1, 1, 0, 0, 0})
	f.Add(int8(-1), int16(8), int32(0), int32(0), []byte{})
	f.Fuzz(func(t *testing.T, m8 int8, segLen int16, b32, k32 int32, raw []byte) {
		c, err := New(int(m8), int(segLen))
		if err != nil {
			return
		}
		m, p, b, k := c.M(), c.Period(), int(b32), int(k32)
		d := k % p
		if d < 0 {
			d += p
		}
		var want Result
		switch {
		case d == 0:
		case d <= m:
			want = Result{Offset: d, Detected: true, Correctable: true}
		case d >= p-m:
			want = Result{Offset: d - p, Detected: true, Correctable: true}
		case d == m+1:
			want = Result{Detected: true}
		default:
			t.Fatalf("residue %d of period %d fits no class", d, p)
		}
		read := c.ExpectedWindow(b + k)
		if got := c.Decode(b, read); got != want {
			t.Fatalf("m=%d b=%d k=%d: Decode = %+v, want %+v", m, b, k, got, want)
		}
		if -m <= k && k <= m && want.Offset != k {
			t.Fatalf("m=%d: error %d within the radius decodes as %d", m, k, want.Offset)
		}

		for i := range read {
			blind := append([]stripe.Bit(nil), read...)
			blind[i] = stripe.Unknown
			if got := c.Decode(b, blind); !got.Indeterminate || !got.Detected {
				t.Fatalf("m=%d: Unknown bit %d decodes as %+v, want indeterminate", m, i, got)
			}
		}

		arb := make([]stripe.Bit, c.Window())
		for i := range arb {
			if i < len(raw) {
				arb[i] = stripe.Bit(raw[i])
			}
		}
		if got := c.Decode(b, arb); got.Correctable && (got.Offset == 0 || got.Offset < -m || got.Offset > m) {
			t.Fatalf("m=%d: window %v corrects by %d, outside the radius", m, arb, got.Offset)
		}
	})
}
