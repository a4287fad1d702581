package timeseries

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Bits holds a []float64 packed for a snapshot: eight little-endian bytes
// of each value's IEEE-754 bits, in order. It types the floats a snapshot
// carries — every section's float columns, the deep pools' parameters
// and state — where shortest-decimal formatting would be most of the cost
// of writing the document. Pack builds one and AppendPack extends one,
// both refusing NaN and ±Inf, and Floats reads it back.
//
// Being a byte slice, it is written by encoding/json's own []byte path: a
// base64 string (standard alphabet, padded), the very bytes the float
// array's text marshaler wrote before Bits was packed. That is why it has
// no MarshalText: a text marshaler would send the same string through a
// buffer of its own and encoding/json's escape scan, for nothing.
// Decoding also accepts the decimal array such a field held before it was
// typed Bits. A nil Bits encodes as null; Pack never returns one.
//
// Reading one from a daemon's snapshot file, past its header line:
//
//	tail -n +2 f.snap | jq -r '.runtime.deep.state' | base64 -d | od -An -t f8
type Bits []byte

// expMask selects a float64's exponent; all ones there is NaN or ±Inf.
const expMask = 0x7FF << 52

// Pack packs v. It refuses NaN and ±Inf, which the decimal form could not
// carry either, so nothing is written that UnmarshalJSON would not read
// back.
func Pack(v []float64) (Bits, error) {
	b, err := AppendPack(make(Bits, 0, 8*len(v)), v...)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendPack appends v to b packed, as Pack packs it, and returns the
// extended slice; within b's capacity it writes in place and allocates
// nothing, so a snapshot can pack all its columns into one array (Carve).
// On a NaN or ±Inf it returns b unextended and an error naming the value's
// index in v.
func AppendPack(b Bits, v ...float64) (Bits, error) {
	at := len(b)
	b = slices.Grow(b, 8*len(v))[:at+8*len(v)]
	for i, x := range v {
		u := math.Float64bits(x)
		if u&expMask == expMask {
			return b[:at], fmt.Errorf("timeseries: bits: value %d is %v, which has no encoding", i, x)
		}
		binary.LittleEndian.PutUint64(b[at+8*i:], u)
	}
	return b, nil
}

// Floats unpacks b. It fails on what Pack could not have written: a
// length that is not a whole number of float64s, or a NaN or ±Inf.
func (b Bits) Floats() ([]float64, error) {
	if err := b.check(); err != nil {
		return nil, err
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// check reports whether b is something Pack could have written.
func (b Bits) check() error {
	if len(b)%8 != 0 {
		return fmt.Errorf("timeseries: bits: %d bytes is not a whole number of float64s", len(b))
	}
	for i := 0; i < len(b); i += 8 {
		if u := binary.LittleEndian.Uint64(b[i:]); u&expMask == expMask {
			return fmt.Errorf("timeseries: bits: value %d is %v, want a finite number", i/8, math.Float64frombits(u))
		}
	}
	return nil
}

// UnmarshalJSON reads the string form or a decimal array. A string must
// be well-formed base64 of a whole number of finite float64s.
func (b *Bits) UnmarshalJSON(data []byte) error {
	if string(data) == "null" { // as for any slice: leave the value alone
		return nil
	}
	if len(data) == 0 {
		return errors.New("timeseries: bits: empty input")
	}
	switch data[0] {
	case '[':
		var dec []float64
		if err := json.Unmarshal(data, &dec); err != nil {
			return fmt.Errorf("timeseries: bits: decimal array: %w", err)
		}
		packed, err := Pack(dec)
		if err != nil {
			return err
		}
		*b = packed
		return nil
	case '"':
		var raw []byte // encoding/json unquotes the string and decodes its base64
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("timeseries: bits: malformed base64: %w", err)
		}
		if err := Bits(raw).check(); err != nil {
			return err
		}
		*b = raw
		return nil
	}
	return errors.New("timeseries: bits: want a base64 string or an array of numbers")
}

// Carve cuts the first n elements off *arena and returns them, their
// capacity capped at n, so that appending to one carved column never
// writes into the next. The snapshot codecs carve every column of one
// element kind from one array sized by a counting pass: one allocation for
// all the kind's columns, and a snapshot that shares nothing with the one
// before it.
func Carve[S ~[]E, E any](arena *S, n int) S {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}
