package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run starts and warms hservd; setup_s is
// the median, and the last start serves the timed phase.
const setupRuns = 3

// e2eResult holds what one end-to-end run measured and checked.
type e2eResult struct {
	w                 *workload
	conns             int
	openSecs, satSecs float64
	setups            []float64
	warmBodies        [][]byte // warm-up responses, in plan order
	open, sat         *phase   // sat is nil for the closed-loop workload
	cpuMS             float64
	rssMiB            float64
	hitRatio          float64
	replaysPerReq     float64
	profileReuse      float64
	sourceReuse       float64
	failures          []string // run-level check failures
}

// timed returns every timed sample.
func (r *e2eResult) timed() []*sample {
	out := append([]*sample(nil), r.open.samples...)
	if r.sat != nil {
		out = append(out, r.sat.samples...)
	}
	return out
}

func (r *e2eResult) failed() int { return countFailed(r.timed()) }

// latencies returns the samples' latencies in ms, sorted; a failed request
// counts as missing every limit.
func latencies(samples []*sample) []float64 {
	var out []float64
	for _, s := range samples {
		v := math.Inf(1)
		if s.failure == "" {
			v = float64(s.latency()) / 1e6
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// maxWindows caps how many consecutive windows a phase is split into.
const maxWindows = 10

// windowed splits the latency phase into consecutive windows by due time,
// as many (up to maxWindows) as leave ten samples beyond the percentile in
// each, and returns the lower quartile over windows of the per-window
// percentile, with the window count. On a shared host, noise from outside
// the benchmark only ever adds latency, and it comes in bursts that can
// cover most of a run; the calmest quarter of the windows still shows any
// slowdown of the program, which reaches every window.
func (r *e2eResult) windowed(p float64) (float64, int) {
	samples := r.open.samples
	k := 1
	for k < maxWindows && beyond(len(samples)/(k+1), p) >= 10 {
		k++
	}
	var per []float64
	for w := 0; w < k; w++ {
		per = append(per, percentile(latencies(samples[w*len(samples)/k:(w+1)*len(samples)/k]), p))
	}
	sort.Float64s(per)
	return percentile(per, 25), k
}

// throughput is correct responses per second of the saturation phase (the
// loop's own phase on the closed-loop workload): the median rate over
// equal time windows when each window still holds 50 repeats of the mix,
// else the rate over the whole phase.
func (r *e2eResult) throughput() float64 {
	ph := r.sat
	if ph == nil {
		ph = r.open
	}
	ok := len(ph.samples) - countFailed(ph.samples)
	k := min(maxWindows, ok/(50*r.w.block))
	if k < 2 {
		return float64(ok) / ph.elapsed.Seconds()
	}
	width := ph.elapsed / time.Duration(k)
	per := make([]float64, k)
	for _, s := range ph.samples {
		if w := int(s.done / width); s.failure == "" && w < k {
			per[w]++
		}
	}
	return median(per) / width.Seconds()
}

func countFailed(samples []*sample) int {
	n := 0
	for _, s := range samples {
		if s.failure != "" {
			n++
		}
	}
	return n
}

func (r *e2eResult) sendLagP99() float64 {
	var lags []float64
	for _, s := range r.open.samples {
		lags = append(lags, float64(s.lag())/1e6)
	}
	sort.Float64s(lags)
	return percentile(lags, 99)
}

// percentile is the nearest-rank percentile of sorted values (p = 100 is
// the maximum).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// beyond counts the samples above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runE2E sets hservd up setupRuns times, drives the workload against the
// last instance for the given seconds, and checks every response.
func runE2E(ctx context.Context, bin string, w *workload, seed uint64, seconds float64) (*e2eResult, error) {
	p := w.plan(seed)
	conns := runtime.NumCPU()
	if w.closedConns > 0 {
		conns = w.closedConns
	}
	res := &e2eResult{w: w, conns: conns}
	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()

	var d *daemon
	var warmBodies [][]byte
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, bin, client); err != nil {
			return nil, err
		}
		warmBodies, err = warmUp(ctx, client, d.base, p.warm)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			d.stop()
		}
	}
	defer d.stop()
	res.warmBodies = warmBodies
	for i, a := range anchors {
		if err := checkAnchor(a, warmBodies[i]); err != nil {
			res.failures = append(res.failures, err.Error())
		}
	}

	// Inputs are generated before the clock starts, so the generator only
	// sends during the timed phase.
	var openReqs, pool []request
	gen := p.next
	if w.openRate > 0 {
		res.openSecs = seconds * openShare
		res.satSecs = seconds - res.openSecs
		n := int(w.openRate * res.openSecs)
		for i := 0; i < n; i++ {
			openReqs = append(openReqs, p.next(i))
		}
		// The saturation pool holds more requests than the phase uses at
		// today's throughput (twice or more); should a faster server drain
		// it, the phase ends early and its rate stays right.
		for i := 0; i < int(max(8*w.openRate, 400)*res.satSecs); i++ {
			pool = append(pool, p.next(n+i))
		}
		gen = func(i int) request { return pool[i-n] }
	}

	st0, err := d.stats(client)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	// A hit is checked as it arrives and its body dropped, which keeps
	// the generator's heap, and so its collector, small at thousands of
	// requests per second.
	onDone := func(s *sample) {
		if w.name == "hit" && s.err == nil && s.status == http.StatusOK && s.xcache == "hit" &&
			bytes.Equal(s.body, warmBodies[len(anchors)+s.rq.key]) {
			s.body, s.verified = nil, true
		}
	}
	runtime.GC()
	if w.openRate > 0 {
		res.open = runOpen(ctx, client, d.base, openReqs, w.openRate, conns, onDone)
		first := len(openReqs)
		res.sat = runClosed(ctx, client, d.base, gen, first, conns, func(i int, el time.Duration) bool {
			return i < len(pool) && el.Seconds() < res.satSecs
		}, onDone)
	} else {
		// Whole blocks only: another block starts while the pace so far
		// says it ends within the run's time.
		res.open = runClosed(ctx, client, d.base, gen, 0, conns, func(i int, el time.Duration) bool {
			return i%w.block != 0 || i == 0 || el.Seconds()*float64(i+w.block)/float64(i) <= seconds*1.1
		}, onDone)
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	st1, err := d.stats(client)
	if err != nil {
		return nil, err
	}
	if res.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	d.stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	timed := res.timed()
	res.cpuMS = float64(cpu1-cpu0) * 1000 / clockTick / float64(len(timed))
	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	misses := float64(st1.Cache.Misses - st0.Cache.Misses)
	res.hitRatio = hits / math.Max(1, hits+misses)
	res.replaysPerReq = float64(st1.SimScoring.Replays-st0.SimScoring.Replays) / float64(len(timed))
	res.profileReuse, res.sourceReuse = reuseShares(p.warm, timed)

	checkSamples(ctx, p, w, seed, warmBodies, timed)
	res.failures = append(res.failures, validity(w.name, res.hitRatio, res.replaysPerReq)...)
	return res, nil
}

// body returns a timed sample's response body; a hit the generator
// verified is the body its miss stored during warm-up.
func (r *e2eResult) body(s *sample) []byte {
	if s.verified {
		return r.warmBodies[len(anchors)+s.rq.key]
	}
	return s.body
}

// warmUp sends the warm-up requests one after another and returns the
// response bodies in request order. One connection keeps set-up time free
// of the scheduling luck of spreading slow requests over several.
func warmUp(ctx context.Context, client *http.Client, base string, reqs []request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		status, _, body, err := post(ctx, client, base, reqs[i].body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// reuseShares reports the share of timed requests whose profile, and whose
// source text, an earlier request (warm-up included) already needed — the
// properties a profile or compile cache would depend on.
func reuseShares(warm []request, timed []*sample) (profile, source float64) {
	seenProfile, seenSource := map[string]bool{}, map[string]bool{}
	for i := range warm {
		seenProfile[warm[i].profileID()] = true
		seenSource[warm[i].sourceID()] = true
	}
	var p, s int
	for _, smp := range timed {
		if seenProfile[smp.rq.profileID()] {
			p++
		}
		if seenSource[smp.rq.sourceID()] {
			s++
		}
		seenProfile[smp.rq.profileID()] = true
		seenSource[smp.rq.sourceID()] = true
	}
	n := float64(max(1, len(timed)))
	return float64(p) / n, float64(s) / n
}

// checkSamples applies the response checks: every response is a 200 with a
// well-formed result; a hit is byte-equal to the body its miss stored; a
// seeded sample of miss responses, and every inline-source response, is
// byte-equal to the in-process result. Failures are marked on the samples.
func checkSamples(ctx context.Context, p *plan, w *workload, seed uint64, warmBodies [][]byte, timed []*sample) {
	nAnchors := len(anchors)
	var recheck []*sample
	for _, s := range timed {
		switch {
		case s.verified:
		case s.err != nil:
			s.failure = s.err.Error()
		case s.status != http.StatusOK:
			s.failure = fmt.Sprintf("status %d: %s", s.status, bytes.TrimSpace(s.body))
		case w.name == "hit" && s.xcache != "hit":
			s.failure = "stored key answered as X-Cache " + s.xcache
		case w.name == "hit" && !bytes.Equal(s.body, warmBodies[nAnchors+s.rq.key]):
			s.failure = "hit body differs from the body its miss stored"
		case w.name != "hit" && s.xcache != "miss":
			s.failure = "new key answered as X-Cache " + s.xcache
		default:
			if err := checkShape(s.rq, s.body); err != nil {
				s.failure = err.Error()
			} else if s.rq.inline() {
				recheck = append(recheck, s)
			}
		}
	}
	recheck = append(recheck, recheckSample(p, w, seed, warmBodies, timed)...)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recheck) {
					return
				}
				s := recheck[i]
				if err := checkRecomputed(ctx, s.rq, s.body); err != nil && s.failure == "" {
					s.failure = err.Error()
				}
			}
		}()
	}
	wg.Wait()
}

// recheckSample picks the seeded sample of benchmark-path responses to
// recompute: on hit, warm-set keys (their stored bodies, which every hit
// was compared with); elsewhere timed misses, JPEG first when present.
func recheckSample(p *plan, w *workload, seed uint64, warmBodies [][]byte, timed []*sample) []*sample {
	r := rng(seed, -1000)
	if w.name == "hit" {
		var out []*sample
		for _, k := range r.Perm(len(p.warm) - len(anchors))[:p.recheck] {
			rq := p.warm[len(anchors)+k]
			out = append(out, &sample{rq: &rq, body: warmBodies[len(anchors)+k]})
		}
		return out
	}
	var jpeg, other []*sample
	for _, s := range timed {
		if s.failure != "" || s.rq.inline() {
			continue
		}
		if s.rq.bench == "jpeg" {
			jpeg = append(jpeg, s)
		} else {
			other = append(other, s)
		}
	}
	var out []*sample
	if len(jpeg) > 0 {
		out = append(out, jpeg[r.IntN(len(jpeg))])
	}
	for _, k := range r.Perm(len(other)) {
		if len(out) >= p.recheck {
			break
		}
		out = append(out, other[k])
	}
	return out
}

// validity checks that the workload loaded the layers it claims: hit runs
// never miss and never replay; the miss workloads never hit; only the sim
// workloads replay traces.
func validity(name string, hitRatio, replaysPerReq float64) []string {
	var out []string
	wantHit := 0.0
	if name == "hit" {
		wantHit = 1
	}
	if hitRatio != wantHit {
		out = append(out, fmt.Sprintf("%s: cache.hit_ratio %.4f, want %.0f", name, hitRatio, wantHit))
	}
	replays := name == "sim-miss" || name == "jpeg-replay"
	if replays != (replaysPerReq > 0) {
		out = append(out, fmt.Sprintf("%s: partition.replays_per_req %.3f, want %s", name, replaysPerReq,
			map[bool]string{true: "> 0", false: "0"}[replays]))
	}
	return out
}
