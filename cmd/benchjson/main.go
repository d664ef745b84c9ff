// Command benchjson converts `go test -bench` text output on stdin into a
// JSON report on stdout, so CI can gate on benchmark numbers and track them
// across commits. One rule covers every result line: each "<value> <unit>"
// column is filed under report[family][sub][unit], where family is the
// benchmark name without its "Benchmark" prefix and GOMAXPROCS suffix, sub
// is the sub-benchmark path ("" for a benchmark without sub-benchmarks), and
// unit is spelled as `go test` prints it ("ns/op", "allocs/op", or the unit
// given to b.ReportMetric). The parsed rows are kept, in input order, under
// "benchmarks"; when a name repeats (-count > 1), the family entry holds the
// last row's columns.
//
// Usage:
//
//	go test -bench . -run '^$' . | go run ./cmd/benchjson > BENCH.json
//	jq '.Family.sub["ns/op"]' BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// row is one parsed `go test -bench` result line.
type row struct {
	Name    string             `json:"name"`
	Iter    int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	rep, err := buildReport(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// buildReport reads benchmark output and returns the report: the family
// tables plus the raw rows under "benchmarks" (no family can take that key:
// go test only runs names whose part after "Benchmark" does not start with a
// lower-case letter).
// Input without a single result line is an error.
func buildReport(r io.Reader) (map[string]any, error) {
	var rows []row
	families := map[string]map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		res, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		rows = append(rows, res)
		family, sub, _ := strings.Cut(strings.TrimPrefix(res.Name, "Benchmark"), "/")
		if families[family] == nil {
			families[family] = map[string]map[string]float64{}
		}
		families[family][sub] = res.Metrics
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("no benchmark lines on stdin")
	}
	rep := map[string]any{"benchmarks": rows}
	for family, subs := range families {
		rep[family] = subs
	}
	return rep, nil
}

// parseBenchLine parses lines of the shape
//
//	BenchmarkName/sub-8   	      12	  98765432 ns/op	  3.5 widgets/op ...
//
// into the name (GOMAXPROCS suffix stripped), the iteration count and every
// "<value> <unit>" column. It returns ok=false for everything else: headers,
// PASS/ok lines, and result lines without an ns/op column.
func parseBenchLine(line string) (row, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return row{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return row{}, false
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return row{}, false
	}
	metrics := map[string]float64{}
	for j := 2; j+1 < len(fields); j += 2 {
		v, err := strconv.ParseFloat(fields[j], 64)
		if err != nil {
			break
		}
		metrics[fields[j+1]] = v
	}
	if _, ok := metrics["ns/op"]; !ok {
		return row{}, false
	}
	name := fields[0]
	if j := strings.LastIndex(name, "-"); j > 0 {
		if _, err := strconv.Atoi(name[j+1:]); err == nil {
			name = name[:j]
		}
	}
	return row{Name: name, Iter: iter, Metrics: metrics}, true
}
