package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorS is the smallest set-up time change that counts as a
// regression: a tenth of a short set-up is below the noise of
// starting processes.
const setupFloorS = 0.25

// winShare is the share of paired runs a change must win to claim a
// gain.
const winShare = 0.9

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one metric of one workload between a parent's runs
// (old) and a change's runs (new), paired by index. A gain needs the
// change to win at least nine in ten pairs and its median to beat the
// parent's by more than the parent's interquartile range. A loss is a
// median worse than the parent's by more than the bound (bound × the
// parent's median, or floor, whichever is larger). Anything else is
// unchanged — unless the parent's own spread is wider than the bound,
// when "no worse" cannot be shown and the verdict is unresolved, except
// where every new run beats every old one.
func judge(old, new []float64, lowerBetter bool, bound, floor float64) verdict {
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	gain := func(o, n float64) float64 { return sign * (n - o) } // > 0: n is better
	pairs := min(len(old), len(new))
	wins := 0
	for i := 0; i < pairs; i++ {
		if gain(old[i], new[i]) > 0 {
			wins++
		}
	}
	mo, mn := median(old), median(new)
	q1, q3 := quartiles(old)
	iqr := q3 - q1
	if pairs > 0 && float64(wins) >= winShare*float64(pairs) && gain(mo, mn) > iqr {
		return improved
	}
	allowed := math.Max(bound*math.Abs(mo), floor)
	if -gain(mo, mn) > allowed {
		return worse
	}
	if iqr > allowed {
		worstNew, bestOld := math.Inf(1), math.Inf(-1)
		for _, n := range new {
			worstNew = math.Min(worstNew, sign*n)
		}
		for _, o := range old {
			bestOld = math.Max(bestOld, sign*o)
		}
		if worstNew > bestOld {
			return unchanged
		}
		return unresolved
	}
	return unchanged
}

// errorRatio is a run's refused or failed requests over attempted.
func errorRatio(rec record) float64 {
	if rec.Attempted == 0 {
		return 1
	}
	return float64(rec.Failed) / float64(rec.Attempted)
}

// comparison is one row of a compare report.
type comparison struct {
	Workload, Metric string
	Old, New         float64 // medians
	Verdict          verdict
}

// compareRecords judges every end-to-end metric and the error ratio on
// every workload present in both record sets. Traced runs are left
// out: their end-to-end numbers carry the tracing overhead.
func compareRecords(bf benchmarkFile, old, new []record) []comparison {
	group := func(recs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range recs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	og, ng := group(old), group(new)
	workloads := make([]string, 0, len(og))
	for w := range og {
		if _, ok := ng[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var out []comparison
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			values := func(recs []record) []float64 {
				var vs []float64
				for _, r := range recs {
					if v, ok := r.EndToEnd[m.Name]; ok {
						vs = append(vs, v)
					}
				}
				return vs
			}
			ov, nv := values(og[w]), values(ng[w])
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			out = append(out, comparison{w, m.Name, median(ov), median(nv), judge(ov, nv, m.Better == "lower", m.Bound, floor)})
		}
		// The error ratio may not rise at all.
		var oe, ne []float64
		for _, r := range og[w] {
			oe = append(oe, errorRatio(r))
		}
		for _, r := range ng[w] {
			ne = append(ne, errorRatio(r))
		}
		v := unchanged
		if median(ne) > median(oe) || maxOf(ne) > maxOf(oe) {
			v = worse
		}
		out = append(out, comparison{w, "error_ratio", median(oe), median(ne), v})
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// compareMain is `bench compare [-benchmark BENCHMARK.json] old new`:
// it prints one verdict per workload × metric and exits 1 if any is
// worse or unresolved.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bpath := fs.String("benchmark", "", "BENCHMARK.json with the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	if *bpath == "" {
		*bpath = "BENCHMARK.json"
		if _, err := os.Stat(*bpath); err != nil {
			*bpath = "../BENCHMARK.json"
		}
	}
	data, err := os.ReadFile(*bpath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", *bpath, err)
		return 2
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	new, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compareRecords(bf, old, new)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "bench compare: no workload has untraced runs in both files")
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%-10s %-18s %14s %14s %9s  %s\n", "workload", "metric", "old median", "new median", "change", "verdict")
	for _, c := range rows {
		change := 0.0
		if c.Old != 0 {
			change = 100 * (c.New - c.Old) / c.Old
		}
		fmt.Fprintf(out, "%-10s %-18s %14.6g %14.6g %+8.1f%%  %s\n", c.Workload, c.Metric, c.Old, c.New, change, c.Verdict)
		if c.Verdict == worse || c.Verdict == unresolved {
			status = 1
		}
	}
	return status
}
