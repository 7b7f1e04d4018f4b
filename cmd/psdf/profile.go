package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/prof"
)

// runProfile implements `psdf profile`: it renders source-attributed
// analysis profiles either from saved psdf-profile/1 JSON reports (as
// written by `psdf -profile-out` or `psdf profile -format json`) or by
// profiling fresh MPL programs in place.
func runProfile(args []string) int {
	fs := flag.NewFlagSet("psdf profile", flag.ExitOnError)
	var (
		format = fs.String("format", "text", "output format: text (heat listing), json (psdf-profile/1) or folded (flamegraph stacks)")
		out    = fs.String("out", "", "write output to this file instead of stdout")
		top    = fs.Int("top", 0, "with -format text, rank only the n hottest source lines instead of the full listing")
		check  = fs.Bool("check", false, "validate JSON report inputs against the psdf-profile/1 schema and exit")
	)
	lf := addLogFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf profile [flags] (report.json | program.mpl) ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	logger := lf.logger()

	// Reports keep argument order; .mpl inputs are profiled together and
	// slotted back in at their positions.
	var jobs []*prof.Report
	var mpl []string
	var slots []int
	for _, path := range fs.Args() {
		if strings.HasSuffix(path, ".json") {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
				return 2
			}
			reps, err := prof.ReadJSON(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdf profile: %s: %v\n", path, err)
				return 2
			}
			jobs = append(jobs, reps...)
			continue
		}
		if *check {
			fmt.Fprintf(os.Stderr, "psdf profile: -check takes JSON reports, got %s\n", path)
			return 2
		}
		mpl = append(mpl, path)
		slots = append(slots, len(jobs))
		jobs = append(jobs, nil)
	}
	reps, err := profilePrograms(mpl, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
		return 2
	}
	for i, rep := range reps {
		jobs[slots[i]] = rep
	}
	if *check {
		fmt.Printf("psdf profile: %d report(s) valid\n", len(jobs))
		return 0
	}

	path := *out
	if path == "" {
		path = "-"
	}
	if err := writeFile(path, func(w io.Writer) error { return renderProfiles(w, jobs, *format, *top) }); err != nil {
		fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
		return 2
	}
	return 0
}

// profilePrograms analyzes MPL source files one at a time with a
// profiler attached to each and returns their source-attributed reports.
func profilePrograms(paths []string, logger *slog.Logger) ([]*prof.Report, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	progs, err := loadPrograms(paths)
	if err != nil {
		return nil, err
	}
	jobs, err := newJobs(progs, "cartesian", core.Options{Log: logger})
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].Opts.Profiler = prof.New()
	}
	reps := make([]*prof.Report, len(jobs))
	for i, jr := range core.AnalyzeAll(jobs, 1) {
		if jr.Err != nil {
			return nil, fmt.Errorf("%s: %w", jr.Name, jr.Err)
		}
		reps[i] = jobs[i].Opts.Profiler.Report(jr.Name, progs[i].src)
	}
	return reps, nil
}

// renderProfiles writes the collected reports in the requested format.
func renderProfiles(w io.Writer, jobs []*prof.Report, format string, top int) error {
	switch format {
	case "json":
		return prof.WriteJSON(w, jobs)
	case "folded":
		for _, rep := range jobs {
			if err := rep.WriteFolded(w); err != nil {
				return err
			}
		}
		return nil
	case "text":
		for i, rep := range jobs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if top > 0 {
				rep.WriteTop(w, top)
				continue
			}
			if err := rep.WriteListing(w); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q (want text, json or folded)", format)
	}
}
