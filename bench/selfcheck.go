package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON renders BENCHMARK.json from the tables this program
// reports by, so the file and the program cannot name different metrics.
func benchmarkJSON() string {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadWhy {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, metricDoc{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDoc{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return string(data)
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &benchmarkFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worseBy(better string, a, b float64) float64 {
	if better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selfCheck runs two sets of the same code and holds every end-to-end
// metric of the second against the first, with the bounds BENCHMARK.json
// fixes; it also requires the counts of the one-thread workload to repeat
// exactly between the two sets. The return value is the process's exit
// code.
func selfCheck(c config, seed int64, seconds float64, passes int) int {
	file, err := readBenchmarkFile(c.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "")
	for _, w := range file.Workloads {
		var sets [2]*runResult
		for k := range sets {
			if sets[k], err = runEndToEnd(c, w.Name, seed, seconds, passes); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			for _, f := range sets[k].Failures {
				fmt.Println("FAILED:", f)
				bad++
			}
		}
		for _, d := range file.EndToEnd {
			a, b := sets[0].Metrics[d.Name].Value, sets[1].Metrics[d.Name].Value
			by := worseBy(d.Better, a, b)
			word := "agree"
			if by > d.Bound {
				word = "DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %8.2f%% %6.0f%%  %s (base: first = %.6g %s)\n",
				w.Name, d.Name, a, b, 100*by, 100*d.Bound, word, a, d.Unit)
		}
		if w.Name == "table1_seq" {
			bad += exactRepeat(sets[0], sets[1])
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: the two sets agree on every end-to-end metric")
	return 0
}

// exactRepeat requires every check's verdict, ticks (work, on one
// thread), query count and Sat calls to be identical in the two sets.
func exactRepeat(a, b *runResult) int {
	bad := 0
	rows := map[string]checkRow{}
	for _, r := range a.Checks {
		rows[r.Name] = r
	}
	var ticks, queries, sat int64
	for _, r := range b.Checks {
		o := rows[r.Name]
		ticks, queries, sat = ticks+r.Ticks, queries+r.Queries, sat+r.SatCalls
		if o.Verdict != r.Verdict || o.Ticks != r.Ticks || o.Queries != r.Queries || o.SatCalls != r.SatCalls {
			fmt.Printf("table1_seq %s does not repeat: %s/%d ticks/%d queries/%d sat calls, then %s/%d/%d/%d\n",
				r.Name, o.Verdict, o.Ticks, o.Queries, o.SatCalls, r.Verdict, r.Ticks, r.Queries, r.SatCalls)
			bad++
		}
	}
	if bad == 0 {
		fmt.Printf("table1_seq counts repeat exactly: work_ticks %d, query.spawned %d, smt.sat_calls %d, all verdicts equal\n", ticks, queries, sat)
	}
	return bad
}
