// The triage arithmetics. A service in TriageQuant mode folds each VM's
// quant.Holt (two int32 words) instead of the float level/trend pair;
// offers convert the observed stress to Q16.16 once at the intake
// boundary, and from there the smoothing recursion, the one-step
// prediction, and the threshold compare are integer-only — the shape of a
// pipeline that drops onto a programmable-switch datapath. It is the same
// filter as TriageFloat: the coefficients are smoothing.TriageAlpha and
// TriageBeta snapped to n/256 (triageQ). Both arithmetics run in the one
// drain loop (drainShard); this file only names them.
package ingest

import (
	"fmt"
	"strings"
)

// TriageMode selects the per-update triage arithmetic.
type TriageMode int

const (
	// TriageFloat is the float64 Holt smoother — the default, bit-exact
	// with the pre-quantization service.
	TriageFloat TriageMode = iota
	// TriageQuant is the Q16.16 fixed-point smoother with dyadic
	// coefficients and saturating arithmetic.
	TriageQuant
)

// String returns the canonical mode name accepted by ParseTriageMode.
func (m TriageMode) String() string {
	switch m {
	case TriageFloat:
		return "float"
	case TriageQuant:
		return "quantized"
	default:
		return fmt.Sprintf("TriageMode(%d)", int(m))
	}
}

// ParseTriageMode resolves a mode name; "" means TriageFloat.
func ParseTriageMode(s string) (TriageMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "float":
		return TriageFloat, nil
	case "quantized", "quant", "fixed", "fixed-point":
		return TriageQuant, nil
	default:
		return 0, fmt.Errorf("ingest: unknown triage mode %q (want float or quantized)", s)
	}
}
