// Command perfbench is the service benchmark of hybridpart. It starts the
// hservd binary built from the tree under test with default flags on a
// loopback port, drives one seeded workload against it from this process on
// at most nproc connections, checks every response, and prints the
// end-to-end metrics. With -trace 1 it then replays the same seeded inputs
// in-process through each module's public entry points, recording one span
// per call, and prints the per-layer metrics instead. While it runs, a child
// copy of itself keeps every CPU busy at the idle scheduling class (see
// spin.go).
//
// Usage (perfbench/run.sh builds both binaries and passes -hservd):
//
//	perfbench -hservd PATH -workload hit|sim-miss|jpeg-replay|source-miss|all \
//	    -seed N -seconds S -trace 0|1 [-out DIR]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics by name with value and unit. With -workload all
// the workloads run one after another and each metric name is prefixed
// with its workload's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process layer replay and print per-layer metrics")
	bin := flag.String("hservd", "", "path of the hservd binary under test")
	out := flag.String("out", ".bench_build", "directory for the span dump of a traced run")
	spinner := flag.Bool("spin", false, "run as the idle spinner (started by the benchmark itself)")
	flag.Parse()
	if *spinner {
		spin()
	}

	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fail(fmt.Sprintf("unknown -workload %q (have %s, or all)", *name, workloadNames()))
		}
		run = []*workload{w}
	}
	switch {
	case *bin == "":
		fail("-hservd is required")
	case *seconds <= 0:
		fail("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		fail("-trace must be 0 or 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		fail(err.Error())
	}
	// The generator keeps every sample until the run ends; a lazier
	// collector keeps its CPU away from the server it shares the host with.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopSpinner, err := startSpinner()
	if err != nil {
		fail(err.Error())
	}
	defer stopSpinner()
	fmt.Printf("host: %s\n", hostFingerprint())
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res, err := runWorkload(ctx, w, *bin, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			stopSpinner()
			fail(err.Error())
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(run) > 1 {
				// One line for several workloads: names carry the workload.
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	stopSpinner()
	b, err := json.Marshal(total)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(b))
}

// runWorkload runs one workload end to end, and with traced the in-process
// layer replay after it, printing every metric on the way.
func runWorkload(ctx context.Context, w *workload, bin string, seed uint64, seconds float64, traced bool, out string) (*result, error) {
	e, err := runE2E(ctx, bin, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(e.timed()), Failed: e.failed(), Metrics: e2eMetrics(e)}
	printE2E(e, seed)
	failures := e.failures
	if traced {
		lr, err := runLayers(ctx, w, seed, e, out)
		if err != nil {
			return nil, err
		}
		res.Metrics = lr.metrics
		failures = append(failures, lr.failures...)
		printMetrics("per-layer metrics (traced in-process replay)", res.Metrics, lr.notes)
	}
	for _, s := range e.timed() {
		if s.failure != "" {
			failures = append(failures, s.failure)
		}
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("check: ... %d more failures\n", len(failures)-10)
			break
		}
		fmt.Printf("check: FAILED: %s\n", f)
	}
	res.Correct = len(failures) == 0
	return res, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// e2eMetrics are the end-to-end metrics, measured with tracing off.
func e2eMetrics(e *e2eResult) map[string]metric {
	p50, _ := e.windowed(50)
	tail, _ := e.windowed(e.w.tailPct)
	return map[string]metric{
		"setup_s":               {median(e.setups), "s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_tail_ms":       {tail, "ms"},
		"throughput_rps":        {e.throughput(), "req/s"},
		"server_cpu_ms_per_req": {e.cpuMS, "ms"},
		"server_peak_rss_mb":    {e.rssMiB, "MiB"},
	}
}

// printE2E prints every end-to-end metric by name, with unit and sample
// count, plus the run's shape and the properties a later optimisation may
// depend on.
func printE2E(e *e2eResult, seed uint64) {
	w := e.w
	fmt.Printf("workload %s, seed %d: %s\n", w.name, seed, w.mix)
	if w.openRate > 0 {
		fmt.Printf("load: open loop %.0f req/s for %.1f s, then closed loop for %.1f s, %d connections\n",
			w.openRate, e.openSecs, e.satSecs, e.conns)
	} else {
		fmt.Printf("load: closed loop on %d connection, rounds of %d requests, %.1f s\n",
			e.conns, w.block, e.open.elapsed.Seconds())
	}
	n := len(e.open.samples)
	p50, k50 := e.windowed(50)
	tailV, k := e.windowed(w.tailPct)
	tail := fmt.Sprintf("p%g, n=%d, lower quartile of %d windows with %d beyond each", w.tailPct, n, k, beyond(n/k, w.tailPct))
	if w.tailPct == 100 {
		tail = fmt.Sprintf("max, n=%d: too few samples for a percentile with ten beyond it", n)
	}
	thrN := len(e.open.samples)
	if e.sat != nil {
		thrN = len(e.sat.samples)
	}
	rows := []struct {
		name, unit string
		v          float64
		note       string
	}{
		{"setup_s", "s", median(e.setups), fmt.Sprintf("median of %d set-ups: %s", len(e.setups), fmtList(e.setups))},
		{"latency_p50_ms", "ms", p50, fmt.Sprintf("n=%d, timed from the due time, lower quartile of %d windows", n, k50)},
		{"latency_tail_ms", "ms", tailV, tail},
		{"throughput_rps", "req/s", e.throughput(), fmt.Sprintf("n=%d, median of one-second windows", thrN)},
		{"server_cpu_ms_per_req", "ms", e.cpuMS, fmt.Sprintf("n=%d", len(e.timed()))},
		{"server_peak_rss_mb", "MiB", e.rssMiB, "VmHWM at the end of the run"},
		{"error_rate", "ratio", float64(e.failed()) / float64(max(1, len(e.timed()))),
			fmt.Sprintf("%d failed of %d", e.failed(), len(e.timed()))},
	}
	fmt.Println("end-to-end metrics (tracing off):")
	for _, r := range rows {
		fmt.Printf("  %-24s %14.4f %-6s (%s)\n", r.name, r.v, r.unit, r.note)
	}
	fmt.Printf("  %-24s %14.4f ms     (p99 of open-loop send lag; compare with p50)\n",
		"loadgen.send_lag_p99_ms", e.sendLagP99())
	var pcts []string
	for _, p := range []float64{90, 99, 99.9} {
		if beyond(n, p) >= 10 {
			v, k := e.windowed(p)
			pcts = append(pcts, fmt.Sprintf("p%g %.4f ms (%d windows)", p, v, k))
		}
	}
	if len(pcts) > 0 {
		fmt.Printf("latency percentiles: %s\n", strings.Join(pcts, ", "))
	}
	fmt.Printf("inputs: %.1f%% of timed requests reuse an earlier profile, %.1f%% reuse earlier source text\n",
		100*e.profileReuse, 100*e.sourceReuse)
	fmt.Printf("layers loaded: cache.hit_ratio %.4f, partition.replays_per_req %.3f\n", e.hitRatio, e.replaysPerReq)
}

func printMetrics(title string, m map[string]metric, notes map[string]string) {
	fmt.Println(title + ":")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %16.4f %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// hostFingerprint names the machine a run measured.
func hostFingerprint() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
