package timeseries

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// rawBits is the string form of arbitrary 64-bit patterns, finite or not.
func rawBits(us ...uint64) string {
	raw := make([]byte, 8*len(us))
	for i, u := range us {
		binary.LittleEndian.PutUint64(raw[8*i:], u)
	}
	return `"` + base64.StdEncoding.EncodeToString(raw) + `"`
}

// TestBitsRoundTrip: finite values survive bit for bit — the edges of the
// format first, then random bit patterns — at lengths on both sides of
// MarshalText's chunk and of base64's three-byte groups.
func TestBitsRoundTrip(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, math.Pi,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, len(edges), 383, 384, 385, 768, 1000} {
		in := append(Bits{}, edges[:min(n, len(edges))]...)
		for len(in) < n {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				in = append(in, v)
			}
		}
		doc, err := json.Marshal(struct{ A Bits }{in})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := base64.StdEncoding.EncodedLen(8*n) + len(`{"A":""}`); len(doc) != want {
			t.Fatalf("n=%d: document is %d bytes, want %d: not the string form", n, len(doc), want)
		}
		var out struct{ A Bits }
		if err := json.Unmarshal(doc, &out); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out.A) != n {
			t.Fatalf("n=%d: decoded %d values", n, len(out.A))
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(out.A[i]) {
				t.Fatalf("n=%d: value %d: wrote %x, read %x", n, i, math.Float64bits(in[i]), math.Float64bits(out.A[i]))
			}
		}
	}
}

// TestBitsDecodesDecimal: the array form older files hold decodes to the
// values it always did, null leaves the field alone, and only the string
// form is ever written back.
func TestBitsDecodesDecimal(t *testing.T) {
	var got struct{ A, B Bits }
	if err := json.Unmarshal([]byte(`{"A":[0.5,-1e-3,3],"B":null}`), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.A) != 3 || got.A[0] != 0.5 || got.A[1] != -1e-3 || got.A[2] != 3 || got.B != nil {
		t.Fatalf("decoded %+v", got)
	}
	doc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"A":"AAAAAAAA4D/8qfHSTWJQvwAAAAAAAAhA","B":""}`; string(doc) != want {
		t.Fatalf("encoded %s, want %s", doc, want)
	}
}

// TestBitsRejects: what decimal JSON could not carry, and what is not a
// float array at all, fail to decode with an error that says which; and a
// non-finite value fails to encode, as it did in decimal.
func TestBitsRejects(t *testing.T) {
	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1))
	for _, c := range []struct{ doc, want string }{
		{rawBits(math.Float64bits(1), nan), "value 1 is NaN"},
		{rawBits(inf), "value 0 is -Inf"},
		{rawBits(0x7FF0000000000001), "value 0 is NaN"}, // a signalling NaN
		{`"AAAAAAAAAA=="`, "7 bytes is not a whole number of float64s"},
		{`"AAAAAAAAAAAA"`, "9 bytes is not a whole number of float64s"},
		{`"AAAA*AAAAAA="`, "malformed base64"},
		{`"AAAAAAAAAAA"`, "malformed base64"}, // padding missing
		{`[1,"x"]`, "decimal array"},
		{`[1e999]`, "decimal array"},
		{`12`, "want a base64 string or an array"},
		{`{"a":1}`, "want a base64 string or an array"},
		{`true`, "want a base64 string or an array"},
	} {
		var b Bits
		err := json.Unmarshal([]byte(c.doc), &b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.doc, err, c.want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(Bits{1, v}); err == nil || !strings.Contains(err.Error(), "value 1") {
			t.Errorf("encoding %v: error %v, want one naming value 1", v, err)
		}
	}
}

// TestBitsEncodeAllocs: an array costs its text and nothing else the
// codec controls (encoding/json boxes the slice header once more when it
// reaches the field through a pointer).
func TestBitsEncodeAllocs(t *testing.T) {
	b := make(Bits, 1000)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := b.MarshalText(); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("MarshalText allocates %v times, want 1", got)
	}
}

// FuzzBitsDecode: arbitrary bytes either fail to decode or give a value
// that encodes, decodes again to the same bits and encodes to the same
// bytes. Never a panic.
func FuzzBitsDecode(f *testing.F) {
	f.Add([]byte(rawBits()))
	f.Add([]byte(rawBits(math.Float64bits(0.5), math.Float64bits(-3))))
	f.Add([]byte(rawBits(math.Float64bits(math.NaN()))))
	f.Add([]byte(rawBits(math.Float64bits(math.Inf(1)), 0)))
	f.Add([]byte(`"AAAAAAAAAA=="`))
	f.Add([]byte(`"AAAA*AAAAAA="`))
	f.Add([]byte(`"AAAAAAAA\n4D8=A"`))
	f.Add([]byte(`[0.5,-3,1e-300]`))
	f.Add([]byte(`[1,null]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`"`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bits
		if json.Unmarshal(data, &b) != nil {
			return
		}
		first, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted value %v does not encode: %v", b, err)
		}
		var again Bits
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("own encoding %s refused: %v", first, err)
		}
		if len(again) != len(b) {
			t.Fatalf("%d values came back as %d", len(b), len(again))
		}
		for i := range b {
			if math.Float64bits(b[i]) != math.Float64bits(again[i]) {
				t.Fatalf("value %d: %x came back as %x", i, math.Float64bits(b[i]), math.Float64bits(again[i]))
			}
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\n%s", first, second)
		}
	})
}
