package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hybridpart"
	"hybridpart/internal/analysis"
	"hybridpart/internal/cache"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/minic"
	"hybridpart/internal/platform"
	"hybridpart/internal/server"
	"hybridpart/internal/sim"
	"hybridpart/internal/store"
)

// span is one recorded call into a layer. IDs start at 1; Parent 0 is a
// root. Req is the request the call served (-1 for set-up).
type span struct {
	Name       string
	ID, Parent int
	Req        int
	Start, End time.Duration
	Counts     []count
}

type count struct {
	Name string
	N    int64
}

// recorder keeps spans in memory until the run ends. With on false, begin
// and end cost a branch, which is what the tracing-overhead measurement
// compares against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Req: req, Start: time.Since(r.t0)})
	return len(r.spans)
}

func (r *recorder) end(id int, counts ...count) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.t0)
	s.Counts = counts
}

// compiled is one profiled application as the layers see it: the lowered
// program, the flattened entry function, its profile, and the facade's view
// of the same for Engine.PartitionProfiled.
type compiled struct {
	fprog *ir.Program
	flat  *ir.Function
	freq  []uint64
	edges []finegrain.EdgeFreq
	app   *hybridpart.App
	prof  *hybridpart.RunProfile
}

// layerRun replays requests through the layers in pipeline order.
type layerRun struct {
	ctx   context.Context
	rec   *recorder
	bench map[string]*compiled // benchmark profiles, built in set-up
	mem   *store.Memory
	cache *cache.Cache
	// hservd holds the service's answer per replayed request, to compare
	// the in-process result with.
	hservd map[int][]byte
	// uncounted is time spent counting allocations, which the overhead
	// comparison leaves out of the traced passes.
	uncounted time.Duration
}

// compile runs minic, lower and interp on src with the given inputs, then
// builds the facade's App and profile for the same program.
func (l *layerRun) compile(src, entry string, inputs map[string][]int32, parent, req int) (*compiled, error) {
	id := l.rec.begin("minic.parse", parent, req)
	file, err := minic.Parse(src)
	l.rec.end(id, count{"source_bytes", int64(len(src))})
	if err != nil {
		return nil, err
	}
	id = l.rec.begin("lower.lower", parent, req)
	prog, err := lower.Lower(file)
	var flat *ir.Function
	if err == nil {
		flat, err = lower.Flatten(prog, entry)
	}
	l.rec.end(id)
	if err != nil {
		return nil, err
	}
	fprog := ir.NewProgram()
	fprog.Globals = prog.Globals
	if err := fprog.AddFunc(flat); err != nil {
		return nil, err
	}

	id = l.rec.begin("interp.run", parent, req)
	m := interp.New(fprog)
	prof := m.EnableProfile()
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		copy(m.Global(n), inputs[n])
	}
	_, err = m.Run(entry)
	l.rec.end(id, count{"steps", int64(m.Steps())})
	if err != nil {
		return nil, err
	}
	c := &compiled{fprog: fprog, flat: flat, freq: append([]uint64(nil), prof.Counts[entry]...)}
	for k, n := range prof.Edges[entry] {
		c.edges = append(c.edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	sort.Slice(c.edges, func(i, j int) bool {
		if c.edges[i].From != c.edges[j].From {
			return c.edges[i].From < c.edges[j].From
		}
		return c.edges[i].To < c.edges[j].To
	})

	// The facade hides its IR, so Engine.PartitionProfiled gets its own
	// compile and profile of the same program; the span keeps that work
	// out of the layer metrics.
	id = l.rec.begin("facade.profile", parent, req)
	defer l.rec.end(id)
	w, err := hybridpart.NewWorkload(src, entry)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := w.SetInput(n, inputs[n]); err != nil {
			return nil, err
		}
	}
	if _, err := w.Run(); err != nil {
		return nil, err
	}
	c.app, c.prof = w.App(), w.Profile()
	return c, nil
}

// prepare builds the benchmark profiles the requests need, as the
// service's profile memo does once per (benchmark, seed).
func (l *layerRun) prepare(reqs []request) error {
	root := l.rec.begin("setup", 0, -1)
	defer l.rec.end(root)
	for i := range reqs {
		rq := &reqs[i]
		if rq.inline() || l.bench[rq.profileID()] != nil {
			continue
		}
		// The benchmark's source with its seeded input vector is what the
		// memo compiles and profiles.
		in := inlineRequest(rq.bench, rq.seed).req
		c, err := l.compile(in.Source, in.Entry, in.Inputs, root, -1)
		if err != nil {
			return err
		}
		l.bench[rq.profileID()] = c
	}
	return nil
}

// platformOf materializes the platform the engine derives from opts (a zero
// cost table selects the default characterization).
func platformOf(o hybridpart.Options) platform.Platform {
	costs := o.Costs
	if costs.IsZero() {
		costs = platform.DefaultOpCosts()
	}
	return platform.Platform{
		Fine: platform.FineGrain{Area: o.AFPGA, ReconfigCycles: o.ReconfigCycles, Regions: o.Regions, Costs: costs},
		Coarse: platform.CoarseGrain{NumCGCs: o.NumCGCs, Rows: o.CGCRows, Cols: o.CGCCols,
			MemPorts: o.MemPorts, ClockRatio: o.ClockRatio, RegBankWords: o.RegBankWords},
		Comm: platform.Comm{CyclesPerWord: o.CommCyclesPerWord, SyncCycles: o.CommSyncCycles},
	}
}

// presetStore answers every lookup with one stored body, so an in-process
// Server.ServeHTTP takes the stored-key path for a request whose key the
// benchmark cannot compute (the fingerprint is the server's own).
type presetStore struct {
	*store.Memory
	body []byte
}

func (p presetStore) Get(string) ([]byte, bool) { return p.body, true }

// replay runs one request through every layer in pipeline order: decode,
// compile and profile (inline source only; benchmark profiles come from
// set-up), analysis, the partitioning engine, the simulator, packing and
// scheduling on the chosen mapping and the all-FPGA baseline, then the
// store, the cache and the HTTP handler on the result.
func (l *layerRun) replay(rq *request, req int) error {
	root := l.rec.begin("request", 0, req)
	defer l.rec.end(root)

	id := l.rec.begin("server.decode", root, req)
	var pr server.PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(rq.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&pr)
	l.rec.end(id, count{"body_bytes", int64(len(rq.body))})
	if err != nil {
		return err
	}
	opts, err := resolve(&pr)
	if err != nil {
		return err
	}

	c := l.bench[rq.profileID()]
	if rq.inline() {
		if c, err = l.compile(pr.Source, pr.Entry, pr.Inputs, root, req); err != nil {
			return err
		}
	}

	id = l.rec.begin("analysis.analyze", root, req)
	analysis.Analyze(c.flat, c.freq, analysis.Weights{
		ALU: opts.WeightALU, Mul: opts.WeightMul, Div: opts.WeightDiv, Mem: opts.WeightMem})
	l.rec.end(id)

	id = l.rec.begin("partition.run", root, req)
	eng, err := hybridpart.NewEngine(hybridpart.WithOptions(opts))
	if err != nil {
		return err
	}
	res, err := eng.PartitionProfiled(l.ctx, c.app, c.prof)
	if err != nil {
		return err
	}
	st := res.SimStats
	l.rec.end(id, count{"moves", int64(len(res.Moved))}, count{"scored", int64(st.Scored)},
		count{"pruned", int64(st.Pruned)}, count{"replays", int64(st.Replays)},
		count{"closed_form", int64(st.ClosedForm)}, count{"incremental", int64(st.Incremental)},
		count{"memo_hits", int64(st.MemoHits)})
	body, err := server.MarshalResult(res)
	if err != nil {
		return err
	}
	if want, ok := l.hservd[req]; ok && !bytes.Equal(body, want) {
		return fmt.Errorf("request %d: in-process result differs from the hservd response", req)
	}
	moved := make([]ir.BlockID, len(res.Moved))
	isMoved := make([]bool, len(c.flat.Blocks))
	for i, b := range res.Moved {
		moved[i], isMoved[b] = ir.BlockID(b), true
	}
	plat := platformOf(opts)

	id = l.rec.begin("sim.trace_build", root, req)
	trace, _, err := sim.BuildTrace(c.flat, c.freq, c.edges)
	l.rec.end(id, count{"entries", int64(len(trace))})
	if err != nil {
		return err
	}
	id = l.rec.begin("sim.replayer_build", root, req)
	rep, err := sim.NewReplayer(sim.Input{Prog: c.fprog, F: c.flat, Plat: plat, Freq: c.freq, Edges: c.edges})
	l.rec.end(id)
	if err != nil {
		return err
	}
	cfg := sim.Config{Frames: max(1, opts.SimFrames), Ports: max(1, opts.SimPorts), Prefetch: opts.SimPrefetch}
	var arena sim.Arena
	entries := int64(rep.TraceLen() * cfg.Frames)
	var makespan int64
	for _, mapping := range [][]ir.BlockID{moved, nil} {
		id = l.rec.begin("sim.replay", root, req)
		ms, err := rep.Makespan(l.ctx, cfg, mapping, &arena)
		l.rec.end(id, count{"entries", entries}, count{"makespan", ms})
		if err != nil {
			return err
		}
		if mapping != nil {
			makespan = ms
		}
	}
	id = l.rec.begin("sim.lower_bound", root, req)
	lb, err := rep.LowerBound(cfg, moved)
	l.rec.end(id, count{"bound", lb}, count{"makespan", makespan})
	if err != nil {
		return err
	}
	id = l.rec.begin("sim.finewalk_bound", root, req)
	fw, err := rep.FineWalkBound(cfg, moved, &arena)
	l.rec.end(id, count{"bound", fw}, count{"makespan", makespan})
	if err != nil {
		return err
	}

	for _, include := range []func(ir.BlockID) bool{func(b ir.BlockID) bool { return !isMoved[b] }, nil} {
		id = l.rec.begin("finegrain.pack", root, req)
		pm, err := finegrain.PackFunction(c.flat, plat.Fine, include)
		if err != nil {
			l.rec.end(id)
			return err
		}
		l.rec.end(id, count{"partitions", int64(pm.NumPartitions)})
	}
	id = l.rec.begin("coarsegrain.schedule", root, req)
	for _, b := range moved {
		if _, err := coarsegrain.BlockCycles(c.fprog, c.flat, c.flat.Blocks[b], plat.Coarse); err != nil {
			l.rec.end(id)
			return err
		}
	}
	l.rec.end(id, count{"kernels", int64(len(moved))})

	sum := sha256.Sum256(rq.body)
	key := hex.EncodeToString(sum[:]) + fmt.Sprint(req)
	id = l.rec.begin("store.put", root, req)
	l.mem.Put(key, body)
	l.rec.end(id)
	id = l.rec.begin("store.get", root, req)
	_, ok := l.mem.Get(key)
	l.rec.end(id)
	if !ok {
		return fmt.Errorf("store lost a fresh key")
	}
	id = l.rec.begin("cache.hit", root, req)
	got, hit, err := l.cache.GetOrCompute(l.ctx, key, func() ([]byte, error) {
		return nil, fmt.Errorf("cache recomputed a present key")
	})
	l.rec.end(id)
	if err != nil || !hit || !bytes.Equal(got, body) {
		return fmt.Errorf("cache lookup of a present key: hit %v, err %v", hit, err)
	}

	srv := server.New(server.Config{Store: presetStore{store.NewMemory(1), body}})
	id = l.rec.begin("server.hit", root, req)
	w := serveOnce(srv, rq.body)
	l.rec.end(id)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), body) || w.Header().Get("X-Cache") != "hit" {
		return fmt.Errorf("in-process ServeHTTP on a stored key: status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	if l.rec.on {
		// Allocations are counted outside the spans, over a few more calls.
		t0 := time.Now()
		defer func() { l.uncounted += time.Since(t0) }()
		const n = 10
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			serveOnce(srv, rq.body)
		}
		runtime.ReadMemStats(&m1)
		l.rec.end(l.rec.begin("server.hit_allocs", root, req), count{"allocs", int64(m1.Mallocs-m0.Mallocs) / n})
	}
	return nil
}

func serveOnce(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
	return w
}

// layerResult is the traced run's output.
type layerResult struct {
	metrics  map[string]metric
	notes    map[string]string
	failures []string
}

// runLayers replays a sample of the run's timed requests in-process: after
// one warm-up pass, in passes with and without span recording (traced,
// untraced, untraced, traced), so the difference is the tracing overhead. The per-layer metrics
// come from the traced passes; the e2e run supplies the counters read from
// hservd and the generator lag.
func runLayers(ctx context.Context, w *workload, seed uint64, e *e2eResult, out string) (*layerResult, error) {
	timed := e.open.samples
	n := min(w.layerSample, len(timed))
	reqs := make([]request, n)
	hservd := map[int][]byte{}
	for i := 0; i < n; i++ {
		reqs[i] = *timed[i].rq
		if timed[i].failure == "" {
			hservd[i] = e.body(timed[i])
		}
	}
	rec := &recorder{t0: time.Now()}
	mem := store.NewMemory(256)
	l := &layerRun{ctx: ctx, rec: rec, bench: map[string]*compiled{}, mem: mem,
		cache: cache.NewBacked(mem), hservd: hservd}
	rec.on = true
	if err := l.prepare(reqs); err != nil {
		return nil, err
	}
	var traced, untraced time.Duration
	for pass, on := range []bool{false, true, false, false, true} {
		rec.on = on
		runtime.GC()
		t0, u0 := time.Now(), l.uncounted
		for i := range reqs {
			if err := l.replay(&reqs[i], i); err != nil {
				return nil, fmt.Errorf("traced replay: %w", err)
			}
		}
		el := time.Since(t0) - (l.uncounted - u0)
		switch {
		case pass == 0:
		case on:
			traced += el
		default:
			untraced += el
		}
	}
	lr := summarize(rec.spans, n*2, e)
	lr.metrics["trace.overhead_pct"] = metric{100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(), "%"}
	lr.notes["trace.overhead_pct"] = fmt.Sprintf("(%d requests x 2 passes each way)", n)
	steps := lr.metrics["interp.steps"].Value
	if (w.name == "source-miss") != (steps > 0) {
		lr.failures = append(lr.failures, fmt.Sprintf("%s: interp.steps %.0f per timed request, want %s",
			w.name, steps, map[bool]string{true: "> 0", false: "0"}[w.name == "source-miss"]))
	}
	path := filepath.Join(out, fmt.Sprintf("perfbench-trace-%s-%d.json", w.name, seed))
	if err := writeTrace(path, rec.spans); err != nil {
		return nil, err
	}
	printSelfTimes(rec.spans)
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	return lr, nil
}

// summarize folds the spans into the per-layer metrics. Times are means
// per call; counts are means per call unless noted; reqs is the number of
// request replays the spans cover.
func summarize(spans []span, reqs int, e *e2eResult) *layerResult {
	type agg struct {
		calls  int
		dur    time.Duration
		counts map[string]int64
	}
	all := map[string]*agg{}
	var reqSteps int64 // interpreter steps on the request path, not set-up
	for _, s := range spans {
		a := all[s.Name]
		if a == nil {
			a = &agg{counts: map[string]int64{}}
			all[s.Name] = a
		}
		a.calls++
		a.dur += s.End - s.Start
		for _, c := range s.Counts {
			a.counts[c.Name] += c.N
			if s.Name == "interp.run" && s.Req >= 0 {
				reqSteps += c.N
			}
		}
	}
	get := func(name string) *agg {
		if a := all[name]; a != nil {
			return a
		}
		return &agg{counts: map[string]int64{}}
	}
	meanDur := func(name string, unit time.Duration) float64 {
		a := get(name)
		if a.calls == 0 {
			return 0
		}
		return float64(a.dur) / float64(a.calls) / float64(unit)
	}
	meanCount := func(name, c string) float64 {
		a := get(name)
		if a.calls == 0 {
			return 0
		}
		return float64(a.counts[c]) / float64(a.calls)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	boundRatio := func(name string) float64 {
		var sum float64
		var k int
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			var b, m int64
			for _, c := range s.Counts {
				switch c.Name {
				case "bound":
					b = c.N
				case "makespan":
					m = c.N
				}
			}
			if m > 0 {
				sum += float64(b) / float64(m)
				k++
			}
		}
		return ratio(sum, float64(k))
	}
	interpAll := get("interp.run")
	part := get("partition.run")
	replay := get("sim.replay")
	us, ms := time.Microsecond, time.Millisecond
	m := map[string]metric{
		"server.decode_us":          {meanDur("server.decode", us), "us"},
		"server.hit_us":             {meanDur("server.hit", us), "us"},
		"server.hit_allocs":         {meanCount("server.hit_allocs", "allocs"), "count"},
		"cache.hit_us":              {meanDur("cache.hit", us), "us"},
		"store.get_us":              {meanDur("store.get", us), "us"},
		"store.put_us":              {meanDur("store.put", us), "us"},
		"cache.hit_ratio":           {e.hitRatio, "ratio"},
		"minic.parse_us":            {meanDur("minic.parse", us), "us"},
		"minic.source_bytes":        {meanCount("minic.parse", "source_bytes"), "bytes"},
		"lower.lower_us":            {meanDur("lower.lower", us), "us"},
		"interp.run_ms":             {meanDur("interp.run", ms), "ms"},
		"interp.steps":              {float64(reqSteps) / float64(reqs), "count"},
		"interp.steps_per_s":        {ratio(float64(interpAll.counts["steps"]), interpAll.dur.Seconds()), "1/s"},
		"analysis.analyze_us":       {meanDur("analysis.analyze", us), "us"},
		"partition.run_ms":          {meanDur("partition.run", ms), "ms"},
		"partition.moves":           {meanCount("partition.run", "moves"), "count"},
		"partition.scored":          {meanCount("partition.run", "scored"), "count"},
		"partition.pruned":          {meanCount("partition.run", "pruned"), "count"},
		"partition.replays":         {meanCount("partition.run", "replays"), "count"},
		"partition.closed_form":     {meanCount("partition.run", "closed_form"), "count"},
		"partition.incremental":     {meanCount("partition.run", "incremental"), "count"},
		"partition.memo_hits":       {meanCount("partition.run", "memo_hits"), "count"},
		"partition.prune_ratio":     {ratio(float64(part.counts["pruned"]), float64(part.counts["pruned"]+part.counts["scored"])), "ratio"},
		"partition.replays_per_req": {e.replaysPerReq, "count"},
		"sim.trace_build_ms":        {meanDur("sim.trace_build", ms), "ms"},
		"sim.trace_entries":         {meanCount("sim.trace_build", "entries"), "count"},
		"sim.replayer_build_ms":     {meanDur("sim.replayer_build", ms), "ms"},
		"sim.replay_ns_per_entry":   {ratio(float64(replay.dur.Nanoseconds()), float64(replay.counts["entries"])), "ns"},
		"sim.lower_bound_us":        {meanDur("sim.lower_bound", us), "us"},
		"sim.finewalk_bound_us":     {meanDur("sim.finewalk_bound", us), "us"},
		"sim.lower_bound_ratio":     {boundRatio("sim.lower_bound"), "ratio"},
		"sim.finewalk_bound_ratio":  {boundRatio("sim.finewalk_bound"), "ratio"},
		"finegrain.pack_us":         {meanDur("finegrain.pack", us), "us"},
		"finegrain.partitions":      {meanCount("finegrain.pack", "partitions"), "count"},
		"coarsegrain.schedule_us":   {meanDur("coarsegrain.schedule", us), "us"},
		"loadgen.send_lag_p99_ms":   {e.sendLagP99(), "ms"},
	}
	notes := map[string]string{
		"cache.hit_ratio":           "(hservd /debug/stats over the timed phase)",
		"partition.replays_per_req": "(hservd /debug/stats over the timed phase)",
		"interp.steps":              "(per timed request; benchmark profiles come from the memo)",
		"loadgen.send_lag_p99_ms":   "(open-loop generator lag; compare with latency_p50_ms)",
		"partition.prune_ratio":     "(pruned / (pruned + scored))",
	}
	return &layerResult{metrics: m, notes: notes}
}

// selfTimes returns each span's duration minus the part of it its children
// cover (children never overlap: the replay is sequential).
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span (traced passes and set-up):")
	for _, k := range names {
		fmt.Printf("  %-24s %12.3f ms\n", k, float64(self[k])/1e6)
	}
}

// writeTrace dumps the spans as Chrome trace-event JSON (Perfetto loads
// it): one complete event per span, request and parent IDs in args.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Req}
		for _, c := range s.Counts {
			args[c.Name] = c.N
		}
		evs[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
