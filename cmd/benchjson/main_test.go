package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fixture is real `go test -bench` output of the benchmarks CI gates on:
// two concatenated runs, as the CI step feeds them, each with its header
// and trailer. Most names carry the GOMAXPROCS suffix; two do not (what
// go test prints at GOMAXPROCS=1).
const fixture = `goos: linux
goarch: amd64
pkg: hybridpart
cpu: Intel(R) Xeon(R) Processor
BenchmarkSweepEngine/serial-recompile-2         	       2	  10680728 ns/op	       561.8 cells/s
BenchmarkSweepEngine/shared-parallel-2          	       2	   1481860 ns/op	      4050 cells/s
BenchmarkSimulate/ofdm-2                        	       2	   1515680 ns/op	 153270922 simcycles/s
BenchmarkSimulate/jpeg                          	       2	  80750047 ns/op	 680217910 simcycles/s
BenchmarkSimulateFrames-2                       	       2	   7404535 ns/op
BenchmarkRegions/r1-2                           	       2	   2738012 ns/op	    399176 sim-makespan	         4.539 sim-speedup
BenchmarkRegions/r1_prefetch-2                  	       2	   2348812 ns/op	    399176 sim-makespan	         4.539 sim-speedup
BenchmarkRegions/r2-2                           	       2	   2223597 ns/op	    358824 sim-makespan	         3.017 sim-speedup
BenchmarkObjective/model-2                      	       2	   1052050 ns/op	         4.000 moves	    380648 sim-makespan	         3.879 sim-speedup
BenchmarkObjective/sim-2                        	       2	   3554476 ns/op	         7.000 moves	    236888 sim-makespan	         6.234 sim-speedup
BenchmarkObjective/rerank3-2                    	       2	   1664530 ns/op	         7.000 moves	    236888 sim-makespan	         6.234 sim-speedup
BenchmarkObjectiveParallel/serial-2             	       2	  21247142 ns/op	         0 pruned	        30.00 scored	    236888 sim-makespan	  988764 B/op	   16607 allocs/op
BenchmarkObjectiveParallel/w1-2                 	       2	   3264914 ns/op	        25.00 pruned	         6.000 scored	    236888 sim-makespan	  847716 B/op	   17956 allocs/op
BenchmarkObjectiveParallel/w2-2                 	       2	   3610882 ns/op	        25.00 pruned	         6.000 scored	    236888 sim-makespan	  848868 B/op	   17967 allocs/op
BenchmarkObjectiveParallel/w4-2                 	       2	   4341988 ns/op	        25.00 pruned	         6.000 scored	    236888 sim-makespan	  849668 B/op	   17966 allocs/op
BenchmarkObjectiveParallel/w8-2                 	       2	   4040571 ns/op	        25.00 pruned	         6.000 scored	    236888 sim-makespan	  850668 B/op	   17975 allocs/op
PASS
ok  	hybridpart	0.655s
goos: linux
goarch: amd64
pkg: hybridpart
cpu: Intel(R) Xeon(R) Processor
BenchmarkTraceOverhead-2       	      10	   7422846 ns/op	   3967221 disabled-ns/op	       -13.00 enabled-pct	         4.862 nilstart-ns	         0.004167 overhead_pct	        34.00 spans/op
BenchmarkTelemetryOverhead     	      10	   2946081 ns/op	   2946081 disabled-ns/op	       530.5 observe-ns	         0.01806 overhead_pct	      4919 sample-ns
PASS
ok  	hybridpart	0.249s
`

// decoded runs the fixture through buildReport and back through JSON, so
// the assertions see exactly what CI's jq sees.
func decoded(t *testing.T, input string) map[string]any {
	t.Helper()
	rep, err := buildReport(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// lookup resolves a family/sub/unit path in a decoded report.
func lookup(rep map[string]any, path ...string) (float64, bool) {
	var cur any = rep
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

func TestReportKeys(t *testing.T) {
	rep := decoded(t, fixture)
	for _, c := range []struct {
		path []string
		want float64
	}{
		{[]string{"SweepEngine", "serial-recompile", "cells/s"}, 561.8},
		{[]string{"Simulate", "jpeg", "ns/op"}, 80750047},
		{[]string{"SimulateFrames", "", "ns/op"}, 7404535},
		{[]string{"Regions", "r1_prefetch", "sim-speedup"}, 4.539},
		{[]string{"ObjectiveParallel", "serial", "allocs/op"}, 16607},
		{[]string{"ObjectiveParallel", "w8", "B/op"}, 850668},
		{[]string{"TraceOverhead", "", "enabled-pct"}, -13},
		{[]string{"TelemetryOverhead", "", "overhead_pct"}, 0.01806},
	} {
		if got, ok := lookup(rep, c.path...); !ok || got != c.want {
			t.Errorf("%q = %v (found %v), want %v", c.path, got, ok, c.want)
		}
	}
	families := map[string]bool{}
	for k := range rep {
		families[k] = true
	}
	want := map[string]bool{"benchmarks": true, "SweepEngine": true, "Simulate": true,
		"SimulateFrames": true, "Regions": true, "Objective": true,
		"ObjectiveParallel": true, "TraceOverhead": true, "TelemetryOverhead": true}
	if !reflect.DeepEqual(families, want) {
		t.Errorf("top-level keys %v, want %v", families, want)
	}
	rows := rep["benchmarks"].([]any)
	if len(rows) != 18 {
		t.Fatalf("%d raw rows, want 18", len(rows))
	}
	first := rows[0].(map[string]any)
	if first["name"] != "BenchmarkSweepEngine/serial-recompile" || first["iterations"] != 2.0 {
		t.Errorf("first raw row %v", first)
	}
}

// TestCIGatePaths: every key path the CI bench gates read resolves to a
// number. Keep in step with the jq gates of the Benchmarks step in
// .github/workflows/ci.yml.
func TestCIGatePaths(t *testing.T) {
	rep := decoded(t, fixture)
	paths := [][]string{
		{"Simulate", "ofdm", "ns/op"},
		{"Simulate", "jpeg", "ns/op"},
		{"Objective", "sim", "sim-makespan"},
		{"Objective", "model", "sim-makespan"},
		{"Objective", "sim", "sim-speedup"},
		{"Objective", "model", "sim-speedup"},
		{"Objective", "rerank3", "sim-makespan"},
		{"ObjectiveParallel", "w8", "pruned"},
		{"ObjectiveParallel", "serial", "ns/op"},
		{"ObjectiveParallel", "w8", "ns/op"},
		{"Regions", "r1", "sim-makespan"},
		{"Regions", "r1_prefetch", "sim-makespan"},
		{"Regions", "r2", "sim-makespan"},
		{"TraceOverhead", "", "overhead_pct"},
		{"TelemetryOverhead", "", "overhead_pct"},
	}
	for _, sub := range []string{"serial", "w1", "w2", "w4", "w8"} {
		paths = append(paths, []string{"ObjectiveParallel", sub, "sim-makespan"})
	}
	for _, p := range paths {
		if _, ok := lookup(rep, p...); !ok {
			t.Errorf("gate path %q does not resolve", p)
		}
	}
}

func TestParseBenchLineIgnores(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: hybridpart",
		"PASS",
		"ok  	hybridpart	0.655s",
		"BenchmarkNoNs-2   	       2	   561.8 cells/s",
		"BenchmarkShort-2   	       2",
		"Benchmark results follow",
	} {
		if r, ok := parseBenchLine(line); ok {
			t.Errorf("%q parsed as %+v, want ignored", line, r)
		}
	}
}

func TestBuildReportEmpty(t *testing.T) {
	for _, input := range []string{"", "goos: linux\nPASS\nok  \thybridpart\t0.1s\n"} {
		if _, err := buildReport(strings.NewReader(input)); err == nil {
			t.Errorf("input %q: no error, want one", input)
		}
	}
}
