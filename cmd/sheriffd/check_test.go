package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sheriff/internal/obs"
	"sheriff/internal/timeseries"
)

// addrWriter is a run's stdout that hands over the -listen address as
// soon as the daemon prints it.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the address once
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	const mark = "streaming events on "
	if out := w.buf.String(); !w.sent && strings.Contains(out, mark) {
		rest := out[strings.Index(out, mark)+len(mark):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			w.addr <- rest[:nl]
			w.sent = true
		}
	}
	return len(p), nil
}

// TestRunSurvivesHungSubscriber is the hung-subscriber acceptance test: a
// TCP client attaches to -listen and never reads. Once the socket buffers
// are full the daemon's next event write blocks — inside the recorder, on
// the period loop — and without a write deadline the run never ends. With
// it the run finishes and the daemon has hung up on the client. The daemon
// asks for a small send buffer (subscriberSendBuffer), so a few hundred
// steps' events are more than the connection holds.
func TestRunSurvivesHungSubscriber(t *testing.T) {
	out := &addrWriter{addr: make(chan string, 1)}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-size", "4", "-traces", "surge", "-steps", "1500", "-listen", "127.0.0.1:0"}, out)
	}()
	var conn net.Conn
	select {
	case addr := <-out.addr:
		var err error
		if conn, err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	case err := <-done:
		t.Fatalf("run ended before it listened: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the daemon never announced its -listen address")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("the run did not finish: a subscriber that never reads has stalled the period loop")
	}
	// The subscription died: the daemon closed the connection, so reading
	// it now ends (EOF, or a reset) instead of waiting for more. A run that
	// never filled the buffers leaves the connection open and this times out.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("after %d bytes the hung subscriber's connection is still open: the daemon never gave up on it", n)
	}
	t.Logf("hung subscriber: %d bytes before the daemon hung up (read ended with %v)", n, err)
}

// TestSubscriberWriteTimeoutIsASinkError pins what a stalled write turns
// into: a timeout kept by Subscription.Err, a closed connection, and a
// subscription that takes no further events, on the recorder alone. net.Pipe has no buffer, so the
// first event already waits on a reader that never comes.
func TestSubscriberWriteTimeoutIsASinkError(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	defer client.Close()
	sub, err := subscribeConn(rec, server)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec.Record(obs.Event{Kind: obs.KindIngest})
	if waited := time.Since(start); waited < subscriberWriteTimeout/2 || waited > 10*subscriberWriteTimeout {
		t.Fatalf("the stalled write held the recorder for %v, want about %v", waited, subscriberWriteTimeout)
	}
	var nerr net.Error
	if err := sub.Err(); !errors.As(err, &nerr) || !nerr.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Subscription.Err() = %v, want a write timeout", err)
	}
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read from the subscriber's end = %v, want EOF: the daemon should have hung up", err)
	}
	start = time.Now()
	rec.Record(obs.Event{Kind: obs.KindIngest})
	if waited := time.Since(start); waited > subscriberWriteTimeout/2 {
		t.Fatalf("a dead subscription still held the recorder for %v", waited)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("a subscriber's failure reached the recorder: %v", err)
	}
}

// TestRunCheckNamesTheViolation: -check passes on a sound run, and when a
// link load in the snapshot it resumes from has been tampered with (flow
// restore installs loads verbatim) it fails after the first step (steps
// count from 0, so the resumed run's first is 12), naming the step, the link
// and the two figures. Without -check the same run goes
// through. Tampered ingest counters fail the same way.
func TestRunCheckNamesTheViolation(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	base := []string{"-topology", "bcube", "-size", "4", "-traces", "surge", "-snapshot", snap}
	var out bytes.Buffer
	if err := run(append([]string{"-steps", "12", "-check"}, base...), &out); err != nil {
		t.Fatalf("sound run under -check: %v", err)
	}
	blob, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	orig := blob
	var st daemonState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	loads, err := st.Runtime.Flows.Loads.Load.Floats()
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) == 0 {
		t.Fatal("the snapshot carries no link load to corrupt")
	}
	loads[0] += 0.25
	if st.Runtime.Flows.Loads.Load, err = timeseries.Pack(loads); err != nil {
		t.Fatal(err)
	}
	if blob, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	sound := append([]byte(nil), blob...)
	if err := os.WriteFile(snap, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append([]string{"-steps", "3", "-check"}, base...), &out)
	if err == nil {
		t.Fatal("-check passed a run whose link load does not match its flows")
	}
	for _, want := range []string{"invariant violated after step 12", "flow: load on ", "routed flows sum to"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-check error %q does not say %q", err, want)
		}
	}
	if err := os.WriteFile(snap, sound, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-steps", "3"}, base...), &out); err != nil {
		t.Fatalf("the same run without -check: %v", err)
	}

	// A tail drop the snapshot counts but never offered breaks ingest
	// conservation, and -check names that identity instead.
	var ist daemonState
	if err := json.Unmarshal(orig, &ist); err != nil {
		t.Fatal(err)
	}
	ist.Ingest.Dropped++
	if blob, err = json.Marshal(ist); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append([]string{"-steps", "3", "-check"}, base...), &out)
	if err == nil {
		t.Fatal("-check passed a run whose ingest counters do not add up")
	}
	for _, want := range []string{"invariant violated after step 12", "ingest: offered = accepted + dropped fails"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-check error %q does not say %q", err, want)
		}
	}
}
