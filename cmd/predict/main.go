// Command predict runs Sheriff's prediction phase on a workload trace:
// it generates (or reads) a series, fits the candidate models, runs the
// dynamic-selection rolling forecast over the test split, and reports
// per-model and combined errors.
//
// Usage:
//
//	predict                     # weekly-traffic trace, default split
//	predict -trace cpu          # diurnal CPU trace
//	predict -trace io           # bursty disk I/O trace
//	predict -file data.txt      # newline-separated float series
//	predict -split 0.5 -seed 7
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sheriff/internal/arima"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	trace := fs.String("trace", "traffic", "synthetic trace: traffic, cpu, io")
	file := fs.String("file", "", "read the series from a file instead (one float per line)")
	split := fs.Float64("split", 0.7, "train fraction")
	seed := fs.Int64("seed", 1, "generator / trainer seed")
	horizon := fs.Int("horizon", 5, "closing k-step-ahead forecast horizon")
	if perr := fs.Parse(args); perr != nil {
		if errors.Is(perr, flag.ErrHelp) {
			return nil
		}
		return perr
	}

	series, err := loadSeries(*file, *trace, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, traces.Describe("series", series))

	train, test := series.Split(*split)
	if test.Len() == 0 {
		return errors.New("empty test split")
	}

	// Detect a dominant season and hand it to the extended pool, which
	// adds Holt and Holt–Winters beside the ARIMA/NARNET candidates.
	period := timeseries.DetectPeriod(train, 4, train.Len()/3)
	if period > 0 {
		fmt.Fprintf(out, "detected season length: %d samples\n", period)
	}
	pool, err := predictor.Pool(train, predictor.Options{Pool: predictor.PoolExtended, Period: period, Seed: *seed})
	if err != nil {
		return fmt.Errorf("building pool: %w", err)
	}
	fmt.Fprintf(out, "candidates: ")
	for i, c := range pool {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprint(out, c.Name)
	}
	fmt.Fprintln(out)

	// Individual rolling forecasts.
	for _, c := range pool {
		pred := rolling(c.F, train, test)
		if pred == nil {
			fmt.Fprintf(out, "%-16s rolling forecast failed\n", c.Name)
			continue
		}
		mse, _ := timeseries.MSE(test.Raw(), pred)
		mae, _ := timeseries.MAE(test.Raw(), pred)
		fmt.Fprintf(out, "%-16s test MSE %10.4f  MAE %8.4f\n", c.Name, mse, mae)
	}

	// Combined dynamic selection.
	sel, err := predictor.NewSelector(train, predictor.Config{Window: 15}, pool...)
	if err != nil {
		return err
	}
	combined, shares, err := sel.Run(test)
	if err != nil {
		return fmt.Errorf("selector: %w", err)
	}
	mse, _ := timeseries.MSE(test.Raw(), combined)
	fmt.Fprintf(out, "%-16s test MSE %10.4f  selection shares %v\n", "combined", mse, shares)

	// Closing k-step-ahead forecast from the full series.
	best, err := arima.AutoFit(series, arima.DefaultSearchSpace)
	if err == nil {
		fc, ferr := best.Forecast(*horizon)
		if ferr == nil {
			fmt.Fprintf(out, "%s %d-step-ahead: %v\n", best.Order, *horizon, round2(fc))
		}
	}
	return nil
}

// rolling forecasts test one step at a time, revealing each true value
// after predicting it (the paper's Fig. 7 protocol), into one reused
// buffer; nil when f cannot forecast.
func rolling(f predictor.Forecaster, train, test *timeseries.Series) []float64 {
	history := train.Clone()
	out := make([]float64, test.Len())
	var fc []float64
	for t := range out {
		var err error
		if fc, err = f.ForecastFrom(fc[:0], history, 1); err != nil {
			return nil
		}
		out[t] = fc[0]
		history.Append(test.At(t))
	}
	return out
}

func loadSeries(file, trace string, seed int64) (*timeseries.Series, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// Two accepted layouts: tracegen's "t,value" CSV, or one float
		// per line. Sniff the first non-comment line for a comma.
		var data []float64
		sc := bufio.NewScanner(f)
		csv := false
		first := true
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if first {
				first = false
				if strings.Contains(line, ",") {
					csv = true
				}
			}
			if csv {
				break // re-read through the CSV parser below
			}
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			data = append(data, v)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if csv {
			if _, err := f.Seek(0, 0); err != nil {
				return nil, err
			}
			return traces.ReadCSV(f)
		}
		return timeseries.New(data), nil
	}
	switch trace {
	case "traffic":
		return traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: seed}), nil
	case "cpu":
		return traces.CPU(traces.CPUConfig{Hours: 24, Seed: seed}), nil
	case "io":
		return traces.DiskIO(traces.DiskIOConfig{Hours: 24, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown trace %q (want traffic, cpu, io)", trace)
	}
}

func round2(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}
