package timeseries

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Bits is a []float64 whose JSON form is a string: the base64 (standard
// alphabet, padded) of its values' IEEE-754 bits, eight little-endian
// bytes each. It is for the long arrays a snapshot carries that nobody
// reads by eye — histories, weights, error rings — where shortest-decimal
// formatting is most of the cost of writing the document. Decoding also
// accepts the decimal array such a field held before it was typed Bits;
// encoding writes the string only.
//
// To read one from a file:
//
//	jq -r '.runtime.deep[0].history' f.snap | base64 -d | od -An -t f8
type Bits []float64

// expMask selects a float64's exponent; all ones there is NaN or ±Inf.
const expMask = 0x7FF << 52

// MarshalText is the string form. It refuses NaN and ±Inf, which the
// decimal form could not carry either, so nothing is written that
// UnmarshalJSON would not read back.
func (b Bits) MarshalText() ([]byte, error) {
	// The values pass through a fixed scratch a chunk at a time, so the
	// text is the only buffer. A chunk's byte count is a multiple of
	// three: base64 pads nothing but the last one.
	const chunk = 384
	var raw [8 * chunk]byte
	enc := base64.StdEncoding
	text := make([]byte, enc.EncodedLen(8*len(b)))
	for at, dst := 0, text; at < len(b); at += chunk {
		part := b[at:min(at+chunk, len(b))]
		for i, v := range part {
			u := math.Float64bits(v)
			if u&expMask == expMask {
				return nil, fmt.Errorf("timeseries: bits: value %d is %v, which has no encoding", at+i, v)
			}
			binary.LittleEndian.PutUint64(raw[8*i:], u)
		}
		enc.Encode(dst, raw[:8*len(part)])
		dst = dst[enc.EncodedLen(8*len(part)):]
	}
	return text, nil
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
		*b = dec
		return nil
	case '"':
		var raw []byte // encoding/json unquotes the string and decodes its base64
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("timeseries: bits: malformed base64: %w", err)
		}
		if len(raw)%8 != 0 {
			return fmt.Errorf("timeseries: bits: %d bytes is not a whole number of float64s", len(raw))
		}
		out := make(Bits, len(raw)/8)
		for i := range out {
			u := binary.LittleEndian.Uint64(raw[8*i:])
			if u&expMask == expMask {
				return fmt.Errorf("timeseries: bits: value %d is %v, want a finite number", i, math.Float64frombits(u))
			}
			out[i] = math.Float64frombits(u)
		}
		*b = out
		return nil
	}
	return errors.New("timeseries: bits: want a base64 string or an array of numbers")
}
