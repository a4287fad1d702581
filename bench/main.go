// Command bench is Sheriff's end-to-end benchmark: it drives the daemon
// pipeline cmd/sheriffd runs — ingest.Service.OfferBatch, ProcessPending,
// Poll, runtime.Runtime.StepExternal, Snapshot/Restore — and the
// distributed migration handshake (sim.Sim.RunChaos) through their public
// functions on four workloads, times sample-to-alert and alert-to-relief,
// checks the outputs, and attributes the time to layers in a separate
// traced pass. See README.md.
//
//	bash bench/run.sh                                  # all four workloads, one document
//	bash bench/run.sh -workload ft16-surge -trace 1    # one workload, with the traced pass
//	bash bench/run.sh -compare a1.json,a2.json b1.json,b2.json   # regression verdicts between two sets of runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
)

// A run makes seconds x spec.repsPer10s / 10 repetitions and never fewer
// than minReps, so the work done, and with it the decision digest and the
// depth of the pointwise fold, depends on the arguments, not on how fast
// the host happens to be.
const (
	minReps   = 3
	refRounds = 3 // rounds of reference work per host-speed sample, about 25 ms each
)

func main() {
	goruntime.GOMAXPROCS(maxProcs) // before the first pool is sized
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("an output check or shape assertion failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: all four, each in its own process)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long to measure; sets the number of repetitions")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced pass and reports per-layer metrics")
	outPath := fs.String("out", "", "write the result document here (default with all workloads: .bench_build/result.json)")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans here (default: .bench_build/spans-<workload>.json)")
	compare := fs.Bool("compare", false, "compare two sets of result documents, comma-separated a side: -compare base1.json,base2.json new1.json,new2.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two sets of result documents")
		}
		return compareSets(out, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if *workload == "" {
		if *outPath == "" {
			*outPath = filepath.Join(".bench_build", "result.json")
		}
		return runAll(out, *seed, *seconds, *outPath)
	}
	for _, s := range workloads(fullSizes) {
		if s.name != *workload {
			continue
		}
		if *traceOut == "" {
			*traceOut = filepath.Join(".bench_build", "spans-"+s.name+".json")
		}
		reps := max(minReps, *seconds*s.repsPer10s/10)
		w, err := runWorkload(s, *seed, reps, newHostRef(refRounds), *trace == 1, ".bench_build", *traceOut)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		printWorkload(out, w)
		if *outPath != "" {
			if err := writeDocument(*outPath, *seed, *seconds, []workloadResult{*w}); err != nil {
				return err
			}
		}
		fmt.Fprintln(out, driverLine(w, *trace == 1))
		if !w.Correct {
			return errIncorrect
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", *workload)
}

// runWorkload measures one workload in this process: reps untraced
// repetitions for the end-to-end metrics, then (traced) one more with
// spans and a Recorder for the per-layer metrics.
func runWorkload(s spec, seed int64, reps int, ref *hostRef, traced bool, scratchRoot, spansPath string) (*workloadResult, error) {
	scratch, err := os.MkdirTemp(scratchRoot, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	var untraced []*rep
	for i := 0; i < reps; i++ {
		r, err := runRep(s, seed, ref, nil, scratch)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		untraced = append(untraced, r)
	}
	rss := peakRSSMB() // before the traced pass adds its spans to the heap
	if !traced {
		return assemble(s, seed, untraced, nil, nil, rss), nil
	}
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	r, err := runRep(s, seed, ref, tr, scratch)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	w := assemble(s, seed, untraced, r, tr, rss)
	if spansPath != "" {
		if err := writeSpans(spansPath, s.name, tr.spans); err != nil {
			return nil, err
		}
		w.SpansFile = spansPath
	}
	return w, nil
}

// runAll runs every workload in a process of its own, so that peak RSS
// is the workload's, and gathers their results into one document.
func runAll(out io.Writer, seed int64, seconds int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []workloadResult
	correct := true
	for _, s := range workloads(fullSizes) {
		part := filepath.Join(".bench_build", "part-"+s.name+".json")
		cmd := exec.Command(self, "-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "1", "-out", part)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		runErr := cmd.Run()
		doc, err := readDocument(part)
		os.Remove(part)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, errors.Join(runErr, err))
		}
		results = append(results, doc.Workloads...)
		correct = correct && runErr == nil
	}
	if err := writeDocument(outPath, seed, seconds, results); err != nil {
		return err
	}
	fmt.Fprintf(out, "result document: %s\n", outPath)
	if !correct {
		return errIncorrect
	}
	return nil
}

func writeDocument(path string, seed int64, seconds int, results []workloadResult) error {
	blob, err := json.MarshalIndent(document{Schema: schema, Host: readHost(), Seed: seed, Seconds: seconds, Workloads: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}
