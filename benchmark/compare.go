package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// The compare mode judges a change against its parent from two sets of
// untraced run records with a paired-run rule: a gain is claimed only when
// the change wins at least nine tenths of the pairs (ties count for
// neither) and the medians differ by more than the parent's interquartile
// range; a regression is a median worse than the parent's by more than the
// metric's bound; and where the parent's own spread exceeds the bound the
// verdict is "unresolved", unless every run of the change beats every run
// of the parent.

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("mcoptbench compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcoptbench compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR")
		return 2
	}
	defs, err := readBounds(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcoptbench compare:", err)
		return 1
	}
	base, err := readRecords(fs.Arg(0))
	if err == nil {
		var change map[string][]*runRecord
		if change, err = readRecords(fs.Arg(1)); err == nil {
			err = compareRecords(w, defs, base, change)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcoptbench compare:", err)
		return 1
	}
	return 0
}

func readBounds(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return bf.EndToEnd, nil
}

// readRecords loads the untraced run records in dir, grouped by workload
// and ordered by seed, then start time.
func readRecords(dir string) (map[string][]*runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*runRecord{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rr runRecord
		if err := json.Unmarshal(data, &rr); err != nil || rr.Workload == "" {
			return nil, fmt.Errorf("%s: not a run record", p)
		}
		if !rr.Trace {
			out[rr.Workload] = append(out[rr.Workload], &rr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Seed != rs[j].Seed {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Started.Before(rs[j].Started)
		})
	}
	return out, nil
}

// verdict applies the rule to one metric on one workload. Runs pair up in
// seed order.
func verdict(def metricDef, base, change []float64) (string, int, int) {
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := range pairs {
		if better(change[i], base[i]) {
			wins++
		}
	}
	q1, bm, q3 := quartiles(base)
	_, cm, _ := quartiles(change)
	iqr := q3 - q1
	gap := cm - bm
	if def.Better == "lower" {
		gap = -gap
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gap > iqr:
		return "improved", wins, pairs
	case allBetter(better, change, base):
		return "improved (every run)", wins, pairs
	case bm != 0 && iqr/math.Abs(bm) > def.Bound:
		return "unresolved (spread above bound)", wins, pairs
	case bm != 0 && -gap/math.Abs(bm) > def.Bound:
		return "regressed", wins, pairs
	}
	return "within bound", wins, pairs
}

func allBetter(better func(x, y float64) bool, change, base []float64) bool {
	if len(change) == 0 || len(base) == 0 {
		return false
	}
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

func compareRecords(w io.Writer, defs []metricDef, base, change map[string][]*runRecord) error {
	var names []string
	for name := range base {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has records on both sides")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, name := range names {
		for _, def := range defs {
			values := func(rs []*runRecord) []float64 {
				out := make([]float64, len(rs))
				for i, r := range rs {
					out[i] = r.Metrics[def.Name]
				}
				return out
			}
			b, c := values(base[name]), values(change[name])
			bq1, bm, bq3 := quartiles(b)
			cq1, cm, cq3 := quartiles(c)
			v, wins, pairs := verdict(def, b, c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				name, def.Name, def.Unit, bm, bq1, bq3, cm, cq1, cq3, wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Timing verdicts assume both sides ran on an equally fast host; the
	// calibration probe shows when they did not.
	for _, name := range names {
		calib := func(rs []*runRecord) float64 {
			out := make([]float64, len(rs))
			for i, r := range rs {
				out[i] = r.HostCalibUS
			}
			return median(out)
		}
		b, c := calib(base[name]), calib(change[name])
		if b > 0 && math.Abs(c-b)/b > hostSpeedTolerance {
			fmt.Fprintf(w, "warning: %s: host calibration %.0f us (base) vs %.0f us (change); timing verdicts reflect the host\n", name, b, c)
		}
	}
	return nil
}

// hostSpeedTolerance is how far the two sides' host calibration medians
// may differ before the timing verdicts are flagged.
const hostSpeedTolerance = 0.1
