// Command benchfig regenerates the paper's figures as text tables.
//
// Usage:
//
//	benchfig                # every figure, Figs. 3–14
//	benchfig -fig 11        # one figure
//	benchfig -ablation swap-size
//	benchfig -seed 42       # change the deterministic seed
//	benchfig -summary       # one line per figure instead of full tables
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sheriff/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	names := make([]string, 0, len(experiments.Ablations))
	for name := range experiments.Ablations {
		names = append(names, name)
	}
	sort.Strings(names)
	ablations := strings.Join(names, ", ")
	fig := fs.String("fig", "", "figure to regenerate (3..14); empty = all")
	ablation := fs.String("ablation", "", "ablation to run ("+ablations+")")
	seed := fs.Int64("seed", 20150707, "deterministic seed")
	summary := fs.Bool("summary", false, "print only headers and notes, not data rows")
	if perr := fs.Parse(args); perr != nil {
		if errors.Is(perr, flag.ErrHelp) {
			return nil
		}
		return perr
	}

	if *ablation != "" {
		gen, ok := experiments.Ablations[*ablation]
		if !ok {
			return fmt.Errorf("unknown ablation %q (want one of %s)", *ablation, ablations)
		}
		return emit(out, gen, *seed, *summary)
	}
	ids := experiments.FigureIDs()
	if *fig != "" {
		ids = []string{*fig}
	}
	for _, id := range ids {
		gen, ok := experiments.Registry[id]
		if !ok {
			return fmt.Errorf("unknown figure %q", id)
		}
		if err := emit(out, gen, *seed, *summary); err != nil {
			return err
		}
	}
	return nil
}

func emit(out io.Writer, gen func(int64) (*experiments.Table, error), seed int64, summary bool) error {
	tab, err := gen(seed)
	if err != nil {
		return err
	}
	if summary {
		fmt.Fprintf(out, "%s — %s (%d rows)\n", tab.Name, tab.Title, len(tab.Rows))
		for _, n := range tab.Notes {
			fmt.Fprintf(out, "  # %s\n", n)
		}
		return nil
	}
	if _, err := tab.WriteTo(out); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	fmt.Fprintln(out)
	return nil
}
