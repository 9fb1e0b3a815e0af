package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestWorkloadsRecorded keeps WORKLOADS.json and BENCHMARK.json in step
// with the workloads the program defines.
func TestWorkloadsRecorded(t *testing.T) {
	var recorded struct {
		Workloads []spec `json:"workloads"`
	}
	readJSON(t, "WORKLOADS.json", &recorded)
	if len(recorded.Workloads) != len(specs) {
		t.Fatalf("WORKLOADS.json records %d workloads, the program defines %d", len(recorded.Workloads), len(specs))
	}
	for i, s := range specs {
		r := recorded.Workloads[i]
		want, _ := json.Marshal(s)
		got, _ := json.Marshal(r)
		if string(got) != string(want) {
			t.Errorf("WORKLOADS.json records %s, the program runs %s", got, want)
		}
	}
	// BENCHMARK.json lists the gated workloads; WORKLOADS.json says why
	// any other is left out.
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	for _, w := range bf.Workloads {
		if specByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not define", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: each seeded
// world must converge and pass its checks, and emit exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := s.Name + "/untraced"
			if traced {
				name = s.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := bench(options{
					workload:   s.Name,
					seed:       7,
					seconds:    1.5,
					trace:      traced,
					workdir:    t.TempDir(),
					setups:     2,
					warmup:     200 * time.Millisecond,
					minCommits: 1,
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for n, u := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != u {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", n, m.Unit, u)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s not in BENCHMARK.json", n)
					}
				}
				if traced {
					if _, ok := res.Metrics["failed_frac"]; !ok {
						t.Error("failed_frac not computed")
					}
				} else if res.Metrics["commits_per_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
					t.Errorf("end-to-end metrics read zero: %v", res.Metrics)
				}
			})
		}
	}
}

// TestWindowStatsKeepsQuietWindows checks which windows the rate metrics
// are read off: every quiet one, topped up with the least-stolen others to
// a third of the windows.
func TestWindowStatsKeepsQuietWindows(t *testing.T) {
	build := func(steals ...int64) *recorder {
		r := &recorder{}
		t0 := time.Unix(0, 0)
		var stolen int64
		r.marks = append(r.marks, mark{wall: t0})
		for i, s := range steals {
			stolen += s
			// Window i makes i+1 commits, so its rate names it.
			r.commitMs = append(r.commitMs, make([]float64, i+1)...)
			r.marks = append(r.marks, mark{wall: t0.Add(time.Duration(i+1) * time.Second), commits: len(r.commitMs), steal: stolen})
		}
		return r
	}
	for _, tc := range []struct {
		steals []int64
		kept   []float64
	}{
		{[]int64{0, 1, 2, 0, 1, 0}, []float64{1, 2, 3, 4, 5, 6}},
		{[]int64{9, 0, 50, 30, 2, 40}, []float64{2, 5}},
		{[]int64{9, 50, 30, 20, 40, 10}, []float64{1, 6}},
	} {
		ws := build(tc.steals...).windowStats(minWindow)
		got := append([]float64(nil), ws.perSec...)
		sort.Float64s(got)
		if fmt.Sprint(got) != fmt.Sprint(tc.kept) || ws.total != len(tc.steals) {
			t.Errorf("steals %v: kept rates %v of %d windows, want %v", tc.steals, got, ws.total, tc.kept)
		}
	}
}
