package obs

import (
	"encoding/json"
	"io"
)

// Sink receives recorded events. Emit is called under the recorder's
// lock, in sequence order; implementations need no locking of their own
// when used through a single recorder.
type Sink interface {
	Emit(e Event) error
}

// JSONL streams events to a writer as one JSON object per line — the
// trace format behind `sheriffsim -trace` and `sheriffd -trace`. Each
// event is written with a single Write call, so an unbuffered *os.File
// needs no flush.
type JSONL struct {
	w io.Writer
}

// NewJSONL wraps a writer as a JSONL sink.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Emit implements Sink.
func (s *JSONL) Emit(e Event) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = s.w.Write(buf)
	return err
}

// Func adapts a function to the Sink interface: how an in-process reader
// (a test, the benchmark harness) collects the events it wants.
type Func func(e Event) error

// Emit implements Sink.
func (f Func) Emit(e Event) error { return f(e) }
