package timeseries

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// textBits is the float array as it was spelled before Bits became a
// packed byte slice: a []float64 whose MarshalText writes the base64 of
// its values' bits, a 384-value chunk at a time. It is the oracle the
// packed type's spelling is checked against.
type textBits []float64

func (b textBits) MarshalText() ([]byte, error) {
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
