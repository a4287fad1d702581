package main

import (
	"fmt"
	"io"
	"strings"
)

// verdict of one workload x end-to-end metric between two sets of runs.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is by how much of the base b reads worse than a, in the
// metric's own direction (negative: better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// judge compares one metric given each side's runs. The new median may be
// worse than the base's by at most the bound. Where either side's own
// run-to-run quartile spread exceeds the bound, the runs cannot resolve a
// change that size, and the verdict is "unresolved" unless every new run
// reads better than every base run.
func judge(def metricDef, base, cur []float64) string {
	if def.Name == "failed_share" { // its baseline is zero or close to it: the bound is absolute
		if median(cur) > median(base)+failedShareRise {
			return verdictRegressed
		}
		return verdictOK
	}
	if max(spread(base), spread(cur)) > def.Bound {
		for _, b := range cur {
			for _, a := range base {
				if worsening(a, b, def.Better) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictOK
	}
	if worsening(median(base), median(cur), def.Better) > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// runSet is one side of a comparison: the documents of several runs of one
// commit.
type runSet []*document

func readRunSet(paths string) (runSet, error) {
	var set runSet
	for _, p := range strings.Split(paths, ",") {
		doc, err := readDocument(p)
		if err != nil {
			return nil, err
		}
		set = append(set, doc)
	}
	return set, nil
}

// names lists the set's workloads in order of first appearance.
func (s runSet) names() []string {
	var names []string
	seen := make(map[string]bool)
	for _, doc := range s {
		for _, w := range doc.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				names = append(names, w.Name)
			}
		}
	}
	return names
}

func (s runSet) workload(name string) []*workloadResult {
	var ws []*workloadResult
	for _, doc := range s {
		for i := range doc.Workloads {
			if doc.Workloads[i].Name == name {
				ws = append(ws, &doc.Workloads[i])
			}
		}
	}
	return ws
}

// runs returns the metric's value in each run of the workload. A side of
// one run stands in its repetitions instead: they spread wider than runs
// do, since a run's value is already folded over them, so a single run a
// side reads "unresolved" sooner, never "ok" sooner.
func runs(ws []*workloadResult, metric string) []float64 {
	var xs []float64
	for _, w := range ws {
		if v, ok := w.EndToEnd[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	if len(ws) == 1 && len(xs) == 1 && len(ws[0].EndToEnd[metric].Reps) > 1 {
		return ws[0].EndToEnd[metric].Reps
	}
	return xs
}

// compareSets prints one row per workload x end-to-end metric of two sets
// of result documents (comma-separated paths a side) and fails on any
// regression.
func compareSets(out io.Writer, basePaths, curPaths string) error {
	base, err := readRunSet(basePaths)
	if err != nil {
		return err
	}
	cur, err := readRunSet(curPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base: %d runs of %s   new: %d runs of %s\n", len(base), base[0].Host.Commit, len(cur), cur[0].Host.Commit)
	fmt.Fprintf(out, "%-16s %-18s %12s %25s %12s %25s %18s %6s  %s\n",
		"workload", "metric", "base median", "[q1, q3]", "new median", "[q1, q3]", "new/base", "bound", "verdict")
	regressed := 0
	for _, name := range base.names() {
		bws, cws := base.workload(name), cur.workload(name)
		if len(cws) == 0 {
			fmt.Fprintf(out, "%-16s missing from the new runs\n", name)
			regressed++
			continue
		}
		for _, bw := range bws {
			for _, cw := range cws {
				if bw.Seed == cw.Seed && bw.Digest != cw.Digest {
					fmt.Fprintf(out, "%-16s decision digest changed at seed %d: %s -> %s\n", name, bw.Seed, bw.Digest, cw.Digest)
				}
			}
		}
		for _, def := range endToEnd {
			b, c := runs(bws, def.Name), runs(cws, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := judge(def, b, c)
			if v == verdictRegressed {
				regressed++
			}
			bm, cm := median(b), median(c)
			ratio := "-"
			if bm != 0 {
				ratio = fmt.Sprintf("%.3f of %.5g", cm/bm, bm)
			}
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(out, "%-16s %-18s %12.5g %25s %12.5g %25s %18s %6.2f  %s\n", name, def.Name,
				bm, fmt.Sprintf("[%.5g, %.5g]", bq1, bq3), cm, fmt.Sprintf("[%.5g, %.5g]", cq1, cq3), ratio, def.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
