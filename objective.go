package hybridpart

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
	"hybridpart/internal/partition"
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// Objective selects what the move loop optimizes — the closed-form t_total
// of eq. 2 (ObjectiveModel, the paper's engine) or the simulated makespan of
// each candidate mapping (ObjectiveSimulated). See internal/partition for
// the selection semantics.
type Objective = partition.Objective

// Move-loop objectives.
const (
	ObjectiveModel     = partition.ObjectiveModel
	ObjectiveSimulated = partition.ObjectiveSimulated
)

// ParseObjective parses the flag/wire spelling of an objective ("model",
// "sim" or "simulated"; "" selects ObjectiveModel).
func ParseObjective(s string) (Objective, error) { return partition.ParseObjective(s) }

// SimScoreStats breaks down how a simulation-scored partitioning run paid
// for its candidate evaluations. Scored counts distinct mappings; every
// further request for one of them is a memo hit. Of the distinct mappings,
// Replays went through the full discrete-event engine and ClosedForm through
// the additive single-frame fast path (sim.Replayer.ClosedForm: a
// reconfiguration walk, no event bookkeeping). Pruned counts candidates the
// branch-and-bound argmin pass skipped because their admissible lower bound
// already exceeded a fully scored incumbent; Parallel counts candidates
// scored on worker-pool goroutines and Workers records the pool width.
// Pruned and Parallel depend on evaluation scheduling and may vary run to
// run — the chosen mapping never does.
type SimScoreStats struct {
	Scored     int `json:"scored"`
	Replays    int `json:"replays"`
	ClosedForm int `json:"closed_form"`
	// Deprecated: the incremental delta tier is gone and Incremental is
	// always 0. The field stays so existing readers keep compiling.
	Incremental int `json:"incremental"`
	MemoHits    int `json:"memo_hits"`
	Pruned      int `json:"pruned"`
	Parallel    int `json:"parallel"`
	Workers     int `json:"workers"`
}

// scoringMode selects how a simScorer evaluates candidates. Only the
// zero value is reachable from the public API; the other two are reference
// paths that same-package tests and benchmarks set on an Engine.
type scoringMode int

const (
	// scoreLive is the production path: memo, then the closed form or the
	// bounded, pruned replay on the worker pool.
	scoreLive scoringMode = iota
	// scoreSerial is the reference: a full-report Simulate per candidate in
	// slate order — no closed form, no pruning, no arena reuse.
	scoreSerial
	// scoreUnpruned is the live path with branch-and-bound pruning off.
	scoreUnpruned
)

// simSpecOf materializes the engine-level co-simulation knobs.
func simSpecOf(o Options) SimSpec {
	return SimSpec{Frames: o.SimFrames, Ports: o.SimPorts, Prefetch: o.SimPrefetch}
}

// simKnobsActive reports whether the knob set asks for any simulation work
// during partitioning: a simulation-scored objective, re-ranking, or an
// explicit co-simulation operating point to report the chosen mapping under.
func simKnobsActive(o Options) bool {
	return o.Objective != ObjectiveModel || o.RerankK != 0 ||
		o.SimFrames > 0 || o.SimPorts > 0 || o.SimPrefetch
}

// simScorer scores candidate mappings by simulated makespan for the move
// loop. The Replayer holds everything mapping-independent (canonical trace,
// live-in/out footprints, data-path schedules); the scorer memoizes every
// scored mapping, so a trajectory walk plus a re-rank pass plus the final
// report never score the same mapping twice. Single-frame no-prefetch
// candidates take the Replayer's closed form instead of the event engine.
// ScoreBatch scores a slate on a bounded worker pool (workers wide, 0 =
// GOMAXPROCS) with per-worker arenas, so a simScorer is safe for concurrent
// use — but build one per partitioning run, its memo is per-(workload, knob)
// tuple.
type simScorer struct {
	rep     *sim.Replayer
	cfg     sim.Config
	workers int
	mode    scoringMode

	mu    sync.Mutex
	memo  map[string]int64
	stats SimScoreStats
}

// newSimScorer builds the scorer for one (application, profile, platform,
// sim spec) tuple. The spec's zero frames/ports normalize to 1.
func newSimScorer(a *App, p *RunProfile, plat platform.Platform, spec SimSpec) (*simScorer, error) {
	if spec.Frames < 0 || spec.Ports < 0 {
		return nil, fmt.Errorf("hybridpart: sim frames and ports must be non-negative, got %d/%d", spec.Frames, spec.Ports)
	}
	if spec.Frames == 0 {
		spec.Frames = 1
	}
	if spec.Ports == 0 {
		spec.Ports = 1
	}
	rep, err := sim.NewReplayer(sim.Input{Prog: a.fprog, F: a.flat, Plat: plat, Freq: p.Freq, Edges: p.edges})
	if err != nil {
		return nil, err
	}
	return &simScorer{
		rep:  rep,
		cfg:  sim.Config{Frames: spec.Frames, Ports: spec.Ports, Prefetch: spec.Prefetch},
		memo: map[string]int64{},
	}, nil
}

// movedKey is the canonical memo key of a moved-set (order-independent).
func movedKey(moved []ir.BlockID) string {
	ids := make([]int, len(moved))
	for i, b := range moved {
		ids[i] = int(b)
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// closedFormRegime reports whether candidates take the closed form instead
// of the event engine: one frame, no prefetch, and not the serial reference.
func (s *simScorer) closedFormRegime() bool {
	return s.cfg.Frames == 1 && !s.cfg.Prefetch && s.mode != scoreSerial
}

// eval scores one mapping in the scorer's regime. a is the caller's
// per-goroutine arena (nil allocates one).
func (s *simScorer) eval(ctx context.Context, moved []ir.BlockID, a *sim.Arena) (int64, error) {
	switch {
	case s.mode == scoreSerial:
		rep, err := s.rep.Simulate(ctx, s.cfg, moved)
		if err != nil {
			return 0, err
		}
		return rep.TotalCycles, nil
	case s.closedFormRegime():
		return s.rep.ClosedForm(s.cfg, moved, a)
	default:
		return s.rep.Makespan(ctx, s.cfg, moved, a)
	}
}

// record memoizes one freshly scored mapping and counts it. Callers hold
// s.mu.
func (s *simScorer) record(key string, v int64, parallel bool) {
	s.memo[key] = v
	s.stats.Scored++
	if s.closedFormRegime() {
		s.stats.ClosedForm++
	} else {
		s.stats.Replays++
	}
	if parallel {
		s.stats.Parallel++
	}
}

// Score returns the simulated makespan (FPGA cycles) of the mapping that
// moves the given blocks to the coarse-grain data-path. The engine uses it
// to report the chosen mapping and the all-FPGA baseline, which the argmin
// pass has usually memoized already. Calls serialize on the scorer's lock.
func (s *simScorer) Score(ctx context.Context, moved []ir.BlockID) (int64, error) {
	key := movedKey(moved)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.memo[key]; ok {
		s.stats.MemoHits++
		return v, nil
	}
	v, err := s.eval(ctx, moved, nil)
	if err != nil {
		return 0, err
	}
	s.record(key, v, false)
	return v, nil
}

// ScoreBatch scores a whole candidate slate for the argmin pass. It has the
// partition.Config.SimCostBatch signature.
//
// Memo hits resolve first; the rest score on the worker pool, each worker
// with its own arena. In the replay regime the slate goes through best-first
// branch-and-bound: every candidate's admissible lower bound
// (sim.Replayer.LowerBound and FineWalkBound) is computed up front,
// candidates replay in ascending-bound order (ties on slate index), and any
// candidate whose bound strictly exceeds the incumbent best makespan is
// pruned without replaying. The closed form is already cheaper than a fine
// walk bound, so closed-form slates score every candidate in slate order.
// Neither pruning nor parallel scheduling changes the selection: scored
// makespans are exact and deterministic, and a pruned candidate is provably
// strictly worse than the incumbent, so it can never be the index-ordered
// argmin — only the Pruned/Parallel counters vary with scheduling.
func (s *simScorer) ScoreBatch(ctx context.Context, candidates [][]ir.BlockID) ([]partition.SimScore, error) {
	out := make([]partition.SimScore, len(candidates))
	closedForm := s.closedFormRegime()
	regime := "replay"
	if closedForm {
		regime = "closed-form"
	}
	ctx, span := obs.Start(ctx, "sim.ScoreBatch", obs.Int("candidates", len(candidates)))

	// Memo hits resolve immediately and seed the incumbent: every memoized
	// value is the exact makespan of a candidate in this slate.
	incumbent := int64(math.MaxInt64)
	pending := make([]int, 0, len(candidates))
	keys := make([]string, len(candidates))
	s.mu.Lock()
	for i, moved := range candidates {
		keys[i] = movedKey(moved)
		if v, ok := s.memo[keys[i]]; ok {
			s.stats.MemoHits++
			out[i] = partition.SimScore{Cycles: v}
			if v < incumbent {
				incumbent = v
			}
			continue
		}
		pending = append(pending, i)
	}
	s.mu.Unlock()
	if len(pending) == 0 {
		span.Set(obs.Int("scored", 0), obs.Int("pruned", 0),
			obs.Int("memo_hits", len(candidates)), obs.String("regime", regime))
		span.End()
		return out, nil
	}

	// Admissible lower bounds, then best-first order: the candidate most
	// likely to be the argmin replays first, which drops the incumbent
	// early and lets the bound prune the tail. Two tiers: the closed-form
	// resource floor (O(moved)) and the exact fine-fabric occupancy walk
	// (O(trace), still far below a full replay) — the walk is exact on
	// fine-dominated candidates, so once the incumbent is near the optimum
	// almost every other candidate's bound exceeds it.
	prune := s.mode == scoreLive && !closedForm
	var bounds []int64
	if prune {
		bounds = make([]int64, len(candidates))
		var arena sim.Arena
		for _, i := range pending {
			b, err := s.rep.LowerBound(s.cfg, candidates[i])
			if err != nil {
				return nil, err
			}
			if wb, err := s.rep.FineWalkBound(s.cfg, candidates[i], &arena); err != nil {
				return nil, err
			} else if wb > b {
				b = wb
			}
			bounds[i] = b
		}
		sort.SliceStable(pending, func(a, b int) bool { return bounds[pending[a]] < bounds[pending[b]] })
	}

	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.mode == scoreSerial {
		workers = 1
	}
	workers = min(workers, len(pending))
	parallel := workers > 1

	var best atomic.Int64
	best.Store(incumbent)
	var pruned atomic.Int64
	poolCtx, cancel := context.WithCancel(ctx)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	fail := func(e error) {
		errOnce.Do(func() {
			err = e
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena sim.Arena
			for {
				k := int(next.Add(1)) - 1
				if k >= len(pending) {
					return
				}
				if e := poolCtx.Err(); e != nil {
					fail(e)
					return
				}
				i := pending[k]
				if prune && bounds[i] > best.Load() {
					out[i] = partition.SimScore{Pruned: true}
					pruned.Add(1)
					continue
				}
				v, e := s.eval(poolCtx, candidates[i], &arena)
				if e != nil {
					fail(e)
					return
				}
				for {
					cur := best.Load()
					if v >= cur || best.CompareAndSwap(cur, v) {
						break
					}
				}
				s.mu.Lock()
				s.record(keys[i], v, parallel)
				s.mu.Unlock()
				out[i] = partition.SimScore{Cycles: v}
			}
		}()
	}
	wg.Wait()
	cancel()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Pruned += int(pruned.Load())
	s.stats.Workers = workers
	s.mu.Unlock()
	span.Set(obs.Int("scored", len(pending)-int(pruned.Load())), obs.Int("pruned", int(pruned.Load())),
		obs.Int("memo_hits", len(candidates)-len(pending)), obs.Int("workers", workers),
		obs.String("regime", regime))
	span.End()
	return out, nil
}
