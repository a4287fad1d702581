package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"

	"sheriff/internal/obs"
)

const schema = "sheriff-bench/1"

// value is one reported metric. End-to-end metrics also carry each rep's
// own value and their quartiles; direction and bound are metrics.go's.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n,omitempty"` // samples behind a percentile
	Reps  []float64 `json:"reps,omitempty"`
	Q1    float64   `json:"q1,omitempty"`
	Q3    float64   `json:"q3,omitempty"`
}

// workloadResult is one workload's part of the result document.
type workloadResult struct {
	Name   string         `json:"name"`
	Why    string         `json:"why"`
	Seed   int64          `json:"seed"`
	Reps   int            `json:"reps"`
	Sizes  map[string]int `json:"sizes"`
	Digest string         `json:"digest"`
	// HostFactors are the host-speed factors sampled before and after every
	// rep's measured window (see hostRef): how loaded the host was while
	// this run measured. HostFactor, their first quartile, is what the
	// run's timings are divided by.
	HostFactor  float64          `json:"host_factor"`
	HostFactors []float64        `json:"host_factors"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Checks      []check          `json:"checks"`
	EndToEnd    map[string]value `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	SpansFile   string           `json:"spans_file,omitempty"`
}

// document is the one JSON document a run writes.
type document struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// hostInfo is recorded on every document.
type hostInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	CPU        string `json:"cpu"`
}

func readHost() hostInfo {
	h := hostInfo{Commit: "unknown", Go: goruntime.Version(), OS: goruntime.GOOS + "/" + goruntime.GOARCH,
		Nproc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), Shards: shards, CPU: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// perRep gathers one number from every rep.
func perRep(reps []*rep, get func(*rep) float64) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = get(r)
	}
	return vs
}

// assemble folds the untraced reps (and the traced pass, when there is
// one) into the workload's result.
func assemble(s spec, seed int64, reps []*rep, traced *rep, tr *tracer, rssMB float64) *workloadResult {
	first := reps[0]
	w := &workloadResult{Name: s.name, Why: s.why, Seed: seed, Reps: len(reps), Digest: first.digest,
		EndToEnd: make(map[string]value), Sizes: map[string]int{"units": first.units}}
	if s.episodes == 0 {
		w.Sizes["racks"], w.Sizes["vms"] = first.racks, first.vms
		w.Sizes["warmup_periods"], w.Sizes["measured_periods"] = s.warm, s.measured
	} else {
		w.Sizes["episodes"] = s.episodes
	}

	// e2e records one end-to-end metric: its value, and each rep's own.
	e2e := func(name string, v float64, n int, perRep []float64) {
		def, ok := findMetric(endToEnd, name)
		if !ok {
			panic("undeclared end-to-end metric " + name)
		}
		q1, q3 := quartiles(perRep)
		w.EndToEnd[name] = value{Value: v, Unit: def.Unit, N: n, Reps: perRep, Q1: q1, Q3: q3}
	}
	each := func(get func(*rep) float64) []float64 { return perRep(reps, get) }
	// scalar folds a per-rep number by its median over reps.
	scalar := func(name string, get func(*rep) float64) {
		vs := each(get)
		e2e(name, median(vs), 0, vs)
	}
	// quiet is the run's host factor: the first quartile of the factors
	// sampled around every rep's measured window. Every rep times the same
	// sequence of work, so the reps' timings are folded unit by unit with
	// pointwiseMin (the host adds time to a unit, never removes it), and
	// what the quietest moments of the run cost is held against how fast
	// the host was in its quieter moments. One factor a run, not one a rep:
	// a rep whose two samples happened to catch the host busy would
	// otherwise read fast everywhere and win every minimum.
	var samples []float64
	for _, r := range reps {
		samples = append(samples, r.windowFactors[:]...)
	}
	quiet, _ := quartiles(samples)
	w.HostFactor, w.HostFactors = quiet, samples
	// pct reports a percentile of a per-unit timing, read off the folded
	// series. A sample too small for the percentile leaves the metric out.
	pct := func(name string, get func(*periodLog) []float64, p, scale float64) []float64 {
		series := make([][]float64, len(reps))
		perRep := make([]float64, len(reps))
		for i, r := range reps {
			series[i] = get(r.log)
			v, err := percentile(series[i], p)
			if err != nil {
				return nil
			}
			perRep[i] = v * scale / quiet
		}
		folded := scaled(pointwiseMin(series), 1/quiet)
		v, err := percentile(folded, p)
		if err != nil {
			return nil
		}
		e2e(name, v*scale, len(folded), perRep)
		return folded
	}
	relief := func(l *periodLog) []float64 {
		var out []float64
		for i, d := range l.step {
			if l.relief[i] {
				out = append(out, d)
			}
		}
		return out
	}

	scalar("setup_s", func(r *rep) float64 { return r.setupS / r.setupFactor })
	period := pct("period_p50_ms", func(l *periodLog) []float64 { return l.period }, 50, 1e3)
	e2e("period_mean_ms", 1e3*sum(period)/float64(len(period)), len(period),
		each(func(r *rep) float64 { return 1e3 * sum(r.log.period) / quiet / float64(r.units) }))
	pct("period_p90_ms", func(l *periodLog) []float64 { return l.period }, 90, 1e3)
	scalar("allocs_per_period", func(r *rep) float64 { return r.mallocs / float64(r.units) })
	e2e("peak_rss_mb", rssMB, 0, []float64{rssMB})
	if s.episodes == 0 {
		e2e("updates_per_s", float64(first.updates)/sum(period), 0,
			each(func(r *rep) float64 { return float64(r.updates) * quiet / sum(r.log.period) }))
		pct("prealert_p50_us", func(l *periodLog) []float64 { return l.prealert }, 50, 1e6)
		pct("prealert_p95_us", func(l *periodLog) []float64 { return l.prealert }, 95, 1e6)
		scalar("allocs_per_update", func(r *rep) float64 { return r.mallocs / float64(r.updates) })
	}
	if folded := pct("relief_p50_ms", relief, 50, 1e3); folded != nil {
		pct("relief_p90_ms", relief, 90, 1e3)
		migrated := 0
		for i, m := range first.log.migrations {
			if first.log.relief[i] {
				migrated += m
			}
		}
		e2e("migrations_per_s", float64(migrated)/sum(folded), 0,
			each(func(r *rep) float64 { return float64(migrated) * quiet / sum(relief(r.log)) }))
	}
	if s.snapEvery > 0 {
		pct("snapshot_p50_ms", func(l *periodLog) []float64 { return l.snapshots }, 50, 1e3)
		scalar("restore_s", func(r *rep) float64 { return r.restoreS / r.restoreFactor })
	}

	// Output checks: every rep's own, then agreement between passes.
	all := reps
	if traced != nil {
		all = append(append([]*rep(nil), reps...), traced)
	}
	for i, r := range all {
		for _, c := range r.checks {
			if !c.OK || i == 0 {
				w.Checks = append(w.Checks, c)
			}
		}
		w.Attempted += r.attempted
		w.Failed += r.failed
	}
	same := true
	for _, r := range reps[1:] {
		same = same && r.digest == first.digest && r.log.counters == first.log.counters
	}
	w.Checks = append(w.Checks, check{"decision digest identical across reps", same, fmt.Sprintf("%d reps, %s", len(reps), first.digest)})
	if s.shape != nil {
		// The traced pass makes the same decisions (checked below) and sees
		// more: judge the shape on it when there is one.
		if traced != nil {
			w.Checks = append(w.Checks, s.shape(traced, true)...)
		} else {
			w.Checks = append(w.Checks, s.shape(first, false)...)
		}
	}
	if traced != nil {
		w.PerLayer = layerMetrics(s, w, reps, traced, tr)
		gap := sumError(tr.spans)
		w.Checks = append(w.Checks,
			check{"traced pass makes the same decisions", traced.digest == first.digest, traced.digest},
			check{"span self times sum to each period within 1%", gap <= 0.01, fmt.Sprintf("worst gap %.2g", gap)})
	}
	w.Correct = true
	for _, c := range w.Checks {
		if !c.OK {
			w.Correct = false
			w.Failed++
		}
	}
	return w
}

// layerMetrics derives the per-layer metrics from the traced pass: busy
// time from the spans, work counts from the Recorder and the decision
// counters. Process-level numbers (heap, set-up parts, generator cost)
// are medians over the untraced reps, which span recording does not
// disturb.
func layerMetrics(s spec, w *workloadResult, reps []*rep, traced *rep, tr *tracer) map[string]value {
	m := make(map[string]float64)
	for k, v := range traced.scalars {
		m[k] = v
	}
	over := func(get func(*rep) float64) float64 { return median(perRep(reps, get)) }
	for k := range reps[0].scalars {
		m[k] = over(func(r *rep) float64 { return r.scalars[k] })
	}
	m["process.cpu_ms_per_period"] = over(func(r *rep) float64 { return 1e3 * sum(r.log.cpu) / float64(r.units) })
	m["host.speed_factor"] = w.HostFactor
	raw := make([][]float64, len(reps))
	for i, r := range reps {
		raw[i] = r.log.period
	}
	if p50, err := percentile(pointwiseMin(raw), 50); err == nil {
		m["host.period_p50_raw_ms"] = 1e3 * p50
	}
	total, self := totalByName(tr.spans), selfByName(tr.spans)
	l := traced.log
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["migrate.migrations"] = float64(l.Migrations)
	m["migrate.cost_total"] = l.MigrationCost
	m["migrate.preemptions"] = float64(l.Preemptions)
	m["migrate.requeued"] = float64(l.Requeued)
	// One traced rep against the median untraced one, each held against its
	// own two host samples: no fold to lean on, so it resolves to about 0.1.
	own := func(r *rep) float64 { return sum(r.log.period) / ((r.windowFactors[0] + r.windowFactors[1]) / 2) }
	m["trace.overhead_share"] = share(own(traced), over(own)) - 1
	if s.episodes == 0 {
		updates := float64(traced.updates)
		m["ingest.offer_s"] = total["ingest.offer"]
		m["ingest.drain_s"] = total["ingest.drain"]
		m["ingest.poll_s"] = total["ingest.poll"]
		m["ingest.ns_per_update"] = 1e9 * (total["ingest.offer"] + total["ingest.drain"] + total["ingest.poll"]) / updates
		m["ingest.prealerts"] = float64(l.Prealerts)
		m["ingest.drain_cycles"] = tr.count(string(obs.KindIngest) + "/drain")
		m["runtime.step_s"] = total["runtime.step"]
		m["runtime.predict_s"] = total["runtime.predict"]
		m["runtime.flows_s"] = total["runtime.flows"]
		m["runtime.congestion_s"] = total["runtime.congestion"]
		m["runtime.manage_s"] = total["runtime.manage"]
		m["runtime.manage_other_s"] = self["runtime.manage"]
		m["runtime.unattributed_s"] = self["runtime.step"]
		m["runtime.predict_ns_per_update"] = 1e9 * total["runtime.predict"] / updates
		m["runtime.server_alerts"] = float64(l.ServerAlerts)
		m["runtime.tor_alerts"] = float64(l.ToRAlerts)
		m["runtime.switch_alerts"] = float64(l.SwitchAlerts)
		m["runtime.deep_warnings"] = float64(l.DeepWarnings)
		m["runtime.alert_periods"] = float64(l.AlertPeriods)
		m["runtime.reroutes"] = float64(l.Reroutes)
		m["runtime.hot_switches"] = float64(l.HotSwitches)
		var shim []float64
		for _, sp := range tr.spans {
			if sp.Name == "migrate.shim" {
				shim = append(shim, float64(sp.End-sp.Start)/1e6)
			}
		}
		m["migrate.shim_calls"] = float64(len(shim))
		m["migrate.shim_busy_s"] = total["migrate.shim"]
		if p95, err := percentile(shim, 95); err == nil {
			m["migrate.shim_p95_ms"] = p95
		}
		traced.unplaced = int(tr.count(string(obs.KindUnplaced)))
		m["migrate.unplaced"] = float64(traced.unplaced)
		m["predictor.forecasts"] = tr.count(string(obs.KindForecast))
		if s.snapEvery > 0 {
			m["snapshot.runtime_s"] = total["snapshot.runtime"]
			m["snapshot.ingest_s"] = total["snapshot.ingest"]
			m["snapshot.encode_s"] = total["snapshot.encode"]
			m["snapshot.write_s"] = total["snapshot.write"]
			m["snapshot.bytes"] = float64(l.snapBytes)
			m["snapshot.count"] = float64(len(l.snapshots))
		}
	} else {
		m["migrate.dist_busy_s"] = total["migrate.dist"]
		m["migrate.requests"] = tr.count(string(obs.KindRequest))
		m["migrate.acks"] = tr.count(string(obs.KindAck))
		m["migrate.ack_share"] = share(m["migrate.acks"], m["migrate.requests"])
		m["migrate.unplaced"] = float64(traced.unplaced)
		m["comm.sent"] = tr.count(string(obs.KindSend))
		m["comm.delivered"] = tr.count(string(obs.KindDeliver))
		m["comm.dup"] = tr.count(string(obs.KindDup))
		m["comm.reordered"] = tr.count(string(obs.KindReorder))
	}
	m["migrate.placed_share"] = share(float64(l.Migrations), float64(traced.alerted))

	// failed_share needs the traced pass: only the Recorder sees the VMs
	// an in-shim migration left unplaced.
	fs := share(float64(traced.failed+traced.unplaced), float64(traced.attempted+traced.alerted))
	w.EndToEnd["failed_share"] = value{Value: fs, Unit: "share", Reps: []float64{fs}, Q1: fs, Q3: fs}

	// Only what this workload defines: a layer it bypasses reports nothing,
	// not zeros.
	out := make(map[string]value)
	for k, v := range m {
		def, ok := findMetric(perLayer, k)
		if !ok {
			panic("undeclared per-layer metric " + k)
		}
		out[k] = value{Value: v, Unit: def.Unit}
	}
	return out
}

// driverLine is the last line of standard output: what BENCHMARK.json's
// driver reads. Untraced runs report the gate metrics; traced runs report
// every per-layer metric plus the end-to-end metrics that only some
// workloads define (0 where undefined).
func driverLine(w *workloadResult, traced bool) string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]m)
	for _, def := range endToEnd {
		if def.Gate != traced {
			metrics[def.Name] = m{w.EndToEnd[def.Name].Value, def.Unit}
		}
	}
	if traced {
		for _, def := range perLayer {
			metrics[def.Name] = m{w.PerLayer[def.Name].Value, def.Unit}
		}
	}
	blob, err := json.Marshal(struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(blob)
}

// printWorkload prints every metric by name with its unit, then the
// checks.
func printWorkload(out io.Writer, w *workloadResult) {
	fmt.Fprintf(out, "== %s  seed %d  reps %d  digest %s\n", w.Name, w.Seed, w.Reps, w.Digest)
	fmt.Fprintf(out, "   %s\n", w.Why)
	for _, def := range endToEnd {
		v, ok := w.EndToEnd[def.Name]
		if !ok {
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(out, "  %-24s %14.6g %-6s q1 %.6g q3 %.6g%s\n", def.Name, v.Value, v.Unit, v.Q1, v.Q3, n)
	}
	if w.PerLayer != nil {
		period := w.PerLayer["runtime.step_s"].Value + w.PerLayer["ingest.offer_s"].Value + w.PerLayer["ingest.drain_s"].Value + w.PerLayer["ingest.poll_s"].Value
		for _, def := range perLayer {
			v, ok := w.PerLayer[def.Name]
			if !ok {
				continue // a layer this workload bypasses
			}
			pct := ""
			if def.Unit == "s" && period > 0 && (strings.HasPrefix(def.Name, "ingest.") || strings.HasPrefix(def.Name, "runtime.") || def.Name == "migrate.shim_busy_s") {
				pct = fmt.Sprintf("  %5.1f%% of the period", 100*v.Value/period)
			}
			fmt.Fprintf(out, "  %-32s %14.6g %s%s\n", def.Name, v.Value, v.Unit, pct)
		}
	}
	names := make([]string, 0, len(w.Sizes))
	for k := range w.Sizes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  size %s=%d\n", k, w.Sizes[k])
	}
	for _, c := range w.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  %s %s  %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(out, "  attempted %d failed %d\n", w.Attempted, w.Failed)
}
