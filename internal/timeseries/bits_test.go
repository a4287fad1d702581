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

	"sheriff/internal/alloctest"
)

// rawBits is the string form of arbitrary 64-bit patterns, finite or not.
func rawBits(us ...uint64) string {
	raw := make([]byte, 8*len(us))
	for i, u := range us {
		binary.LittleEndian.PutUint64(raw[8*i:], u)
	}
	return `"` + base64.StdEncoding.EncodeToString(raw) + `"`
}

// pack is Pack for values the test knows are finite.
func pack(t testing.TB, v []float64) Bits {
	t.Helper()
	b, err := Pack(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// unpack is Floats for a value the test knows is well formed.
func unpack(t testing.TB, b Bits) []float64 {
	t.Helper()
	v, err := b.Floats()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// edgeFloats are the values at the edges of the format: both zeros, the
// subnormals, the extremes, and values with no short decimal.
var edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, math.Pi,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1.8p-1040, 0x1p-1022}

// finiteFloats returns n values: the edges cycled through every seventh
// slot, random finite bit patterns in between.
func finiteFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		if len(out)%7 == 0 {
			out = append(out, edgeFloats[len(out)/7%len(edgeFloats)])
			continue
		}
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// TestBitsRoundTrip: finite values survive bit for bit, through Pack, the
// JSON string and Floats, at lengths on both sides of base64's three-byte
// groups.
func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, len(edgeFloats), 383, 384, 385, 768, 1000} {
		in := finiteFloats(rng, n)
		doc, err := json.Marshal(struct{ A Bits }{pack(t, in)})
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
		got := unpack(t, out.A)
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d values", n, len(got))
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d: value %d: wrote %x, read %x", n, i, math.Float64bits(in[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// TestBitsSpellingUnchanged: encoding/json writes a packed array as the
// very bytes the float array's MarshalText wrote (textBits, the oracle),
// at every length up to 1,200 — across the oracle's 384-value chunk edges
// and base64's three-byte groups, with both zeros and subnormals among
// the values. Files written before Bits was packed are the files written
// after.
func TestBitsSpellingUnchanged(t *testing.T) {
	v := finiteFloats(rand.New(rand.NewSource(2)), 1200)
	for n := 0; n <= len(v); n++ {
		got, err := json.Marshal(struct{ A Bits }{pack(t, v[:n])})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := json.Marshal(struct{ A textBits }{v[:n]})
		if err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: packed array spells\n%s\nthe oracle spells\n%s", n, got, want)
		}
	}
}

// TestBitsDecodesDecimal: the array form older files hold decodes to the
// values it always did, null leaves the field alone, and only the string
// form is written back.
func TestBitsDecodesDecimal(t *testing.T) {
	var got struct{ A, B Bits }
	if err := json.Unmarshal([]byte(`{"A":[0.5,-1e-3,3],"B":null}`), &got); err != nil {
		t.Fatal(err)
	}
	if a := unpack(t, got.A); len(a) != 3 || a[0] != 0.5 || a[1] != -1e-3 || a[2] != 3 || got.B != nil {
		t.Fatalf("decoded %v and %v", a, got.B)
	}
	doc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"A":"AAAAAAAA4D/8qfHSTWJQvwAAAAAAAAhA","B":null}`; string(doc) != want {
		t.Fatalf("encoded %s, want %s", doc, want)
	}
}

// TestBitsRejects: what decimal JSON could not carry, and what is not a
// float array at all, fail to decode with an error that says which; and a
// non-finite value fails to pack, as it failed to encode in decimal.
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
		if _, err := Pack([]float64{1, v}); err == nil || !strings.Contains(err.Error(), "value 1") {
			t.Errorf("packing %v: error %v, want one naming value 1", v, err)
		}
		head := pack(t, []float64{2})
		if b, err := AppendPack(head, 1, v); err == nil || !strings.Contains(err.Error(), "value 1") || !bytes.Equal(b, head) {
			t.Errorf("appending %v: %v, error %v; want the head unextended and an error naming value 1", v, b, err)
		}
	}
}

// TestBitsEncodeAllocs: packing costs the packed bytes alone, and
// encoding/json writes them with no buffer of the codec's own — a
// document holding a packed array costs what one holding no array does.
func TestBitsEncodeAllocs(t *testing.T) {
	v := make([]float64, 1000)
	alloctest.Count(t, "pack", func() {
		if _, err := Pack(v); err != nil {
			t.Fatal(err)
		}
	})
	arena := make(Bits, 0, 8*len(v))
	if b, err := AppendPack(arena[:8], v[1:]...); err != nil || !bytes.Equal(b, pack(t, v)) {
		t.Fatalf("appending after a packed value = %d bytes, error %v; want Pack's", len(b), err)
	}
	alloctest.Count(t, "append-pack", func() {
		if _, err := AppendPack(arena, v...); err != nil {
			t.Fatal(err)
		}
	})
	type doc struct {
		N int
		A Bits
	}
	encode := func(window string, d *doc) {
		var buf bytes.Buffer
		buf.Grow(16 << 10)
		enc := json.NewEncoder(&buf)
		alloctest.Count(t, window, func() {
			buf.Reset()
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	encode("encode-empty", &doc{})
	encode("encode-packed", &doc{A: pack(t, v)})
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
		if _, err := b.Floats(); err != nil {
			t.Fatalf("accepted value %x does not unpack: %v", b, err)
		}
		first, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted value %x does not encode: %v", b, err)
		}
		var again Bits
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("own encoding %s refused: %v", first, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%x came back as %x", b, again)
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
