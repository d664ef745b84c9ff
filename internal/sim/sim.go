package sim

import (
	"context"
	"fmt"
	"sync"

	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/partition"
	"hybridpart/internal/platform"
)

// Config holds the simulation knobs.
type Config struct {
	// Frames is the number of times the profiled trace is replayed (one
	// replay per application frame); 0 means 1. With more than one frame the
	// fabrics pipeline: frame i+1's fine-grain work proceeds while frame i's
	// kernels still occupy the data-path.
	Frames int
	// Ports is the width of the fabric-to-fabric transfer channel in
	// shared-memory ports; 0 means 1, the analytical model's serialization
	// assumption. A P-port transfer moves ceil(words/P) words per
	// CyclesPerWord slot; overlapping transfers from pipelined frames queue
	// on the channel instead of summing like the model's t_comm.
	Ports int
	// Prefetch overlaps the next temporal partition's bitstream load with
	// data-path execution: while a kernel runs on the CGCs, the sequencer
	// already loads the configuration of the next fine-grain block. Without
	// it the load starts only when the fine-grain block is dispatched.
	Prefetch bool
	// OnFrame, when non-nil, is called after each simulated frame of the
	// partitioned run with the 1-based frame number and the frame's
	// completion time in FPGA cycles. It runs on the simulator's goroutine.
	OnFrame func(frame int, cycles int64)
}

// Input is the simulated system: the flattened CDFG, its platform
// characterization, the dynamic-analysis profile, and the set of kernels
// the partitioning engine moved to the coarse-grain data-path (empty
// simulates the all-FPGA mapping).
type Input struct {
	Prog  *ir.Program
	F     *ir.Function
	Plat  platform.Platform
	Freq  []uint64
	Edges []finegrain.EdgeFreq
	Moved []ir.BlockID
}

// KernelStat is one row of the per-kernel timeline: aggregate fabric
// occupancy of one basic block across every invocation, in FPGA cycles.
type KernelStat struct {
	Block       ir.BlockID
	Name        string
	Fabric      string // "fine" or "coarse"
	Invocations uint64
	// BusyCycles is the block's fabric occupancy: level cycles on the FPGA,
	// data-path latency on the CGCs (transfers are accounted to the memory
	// channel, reconfigurations to the fine fabric).
	BusyCycles int64
	FirstStart int64
	LastEnd    int64
}

// Report is the outcome of one simulation.
type Report struct {
	// TotalCycles is the simulated makespan in FPGA cycles.
	TotalCycles int64
	Frames      int
	Ports       int
	Prefetch    bool
	// Runs is the number of profiled runs folded into the replayed trace.
	Runs int

	// Fine-grain fabric occupancy, FPGA cycles: executing blocks, loading
	// configurations, and idle (makespan minus the other two).
	FineBusy     int64
	FineReconfig int64
	FineIdle     int64
	// Coarse-grain data-path occupancy.
	CoarseBusy int64
	CoarseIdle int64
	// MemBusy is the transfer channel's occupancy.
	MemBusy int64

	// Reconfigs counts performed configuration loads across every frame;
	// ModelCrossings is the count the analytical model charges for the same
	// mapping and frame count (eq. 4's crossing term, once per frame) —
	// they differ when a partition switch hides behind a data-path window
	// (never charged by the model) or survives a frame boundary (always
	// recharged by it).
	Reconfigs      int64
	ModelCrossings int64
	// HiddenReconfigCycles is the portion of the reconfiguration time that
	// prefetching overlapped with data-path execution.
	HiddenReconfigCycles int64

	Kernels []KernelStat
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Replayer is the reusable half of the simulator: the canonical trace, the
// live-in/out footprints and the per-kernel data-path schedules, all of
// which depend only on the application and its profile — not on the mapping.
// Building one Replayer and calling Simulate per candidate moved-set is what
// makes simulated makespan affordable as a move-loop objective: each
// candidate pays only the packing and the replay, never a trace
// reconstruction or a list-scheduling pass.
//
// Concurrency contract: a Replayer is safe for concurrent use. Every table is
// immutable after NewReplayer returns, and the lazy data-path schedule memo
// is mutex-guarded, so any number of goroutines may call Simulate, Makespan,
// ClosedForm, LowerBound and FineWalkBound on one shared Replayer. The only
// per-goroutine state is the Arena: an Arena must not be shared between
// concurrent calls — give each worker its own.
type Replayer struct {
	in     Input
	trace  []ir.BlockID
	runs   int
	liveIO []partition.LiveIO
	arrLen coarsegrain.ArrLenFunc

	// minFineT[b] is a packing-independent lower bound on block b's
	// per-execution fine-grain cost in ticks: the sum over DFG levels of the
	// level's max node latency (min 1). Any packing only splits levels across
	// partition boundaries, and a split level contributes at least its
	// unsplit max, so PerBlockCycles >= minFineT/ratio for every mapping.
	minFineT []int64
	// fineBase is the all-FPGA per-frame floor: Σ_b Freq[b]·minFineT[b].
	fineBase int64
	// blockArea[b] is block b's fine-grain area demand (Σ of its ops' area).
	// Packing never shares operators between blocks, so any packing of a
	// block set spends at least the sum of their areas; partition-boundary
	// waste only adds partitions on top.
	blockArea []int64
	// areaBase is Σ_b Freq[b]>0 · blockArea[b], the all-FPGA area demand of
	// the trace-active blocks.
	areaBase int64

	// schedule memo: per-block data-path latency in T_CGC cycles, or the
	// mapping error. Filled lazily — most blocks are never candidates.
	schedMu   sync.Mutex
	schedDone []bool
	schedLat  []int64
	schedErr  []error

	// The trace as tandem repeats, split on the first ClosedForm call —
	// replays walk the trace itself.
	repeatsOnce sync.Once
	repeats     []repeat
}

// NewReplayer validates the platform, reconstructs the canonical trace and
// computes the mapping-independent tables. in.Moved is ignored — the mapping
// is chosen per Simulate call.
func NewReplayer(in Input) (*Replayer, error) {
	if err := in.Plat.Validate(); err != nil {
		return nil, err
	}
	trace, runs, err := BuildTrace(in.F, in.Freq, in.Edges)
	if err != nil {
		return nil, err
	}
	n := len(in.F.Blocks)
	r := &Replayer{
		in:        in,
		trace:     trace,
		runs:      runs,
		liveIO:    partition.ComputeLiveIO(in.F),
		arrLen:    coarsegrain.ArrLenOf(in.Prog, in.F),
		minFineT:  make([]int64, n),
		blockArea: make([]int64, n),
		schedDone: make([]bool, n),
		schedLat:  make([]int64, n),
		schedErr:  make([]error, n),
	}
	ratio := int64(in.Plat.Coarse.ClockRatio)
	for _, b := range in.F.Blocks {
		d := ir.BuildDFG(in.F, b)
		var cycles, area int64
		for level := 1; level <= d.MaxLevel; level++ {
			maxLat := 0
			for _, u := range d.NodesAtLevel(level) {
				cls := ir.ClassOf(d.Op(u))
				if lat := in.Plat.Fine.Costs.Latency(cls); lat > maxLat {
					maxLat = lat
				}
				area += int64(in.Plat.Fine.Costs.Area(cls))
			}
			cycles += int64(maxLat)
		}
		if cycles < 1 {
			cycles = 1 // control-only sequencing, like PackFunction
		}
		r.minFineT[b.ID] = cycles * ratio
		r.blockArea[b.ID] = area
		if int(b.ID) < len(in.Freq) && in.Freq[b.ID] > 0 {
			r.fineBase += int64(in.Freq[b.ID]) * r.minFineT[b.ID]
			r.areaBase += area
		}
	}
	return r, nil
}

// Runs returns the number of profiled runs folded into the replayed trace.
func (r *Replayer) Runs() int { return r.runs }

// TraceLen returns the number of kernel invocations replayed per frame.
func (r *Replayer) TraceLen() int { return len(r.trace) }

// coarseLatency returns block id's data-path latency in T_CGC cycles (the
// same list schedule the partitioning engine uses), memoized across calls.
// Safe for concurrent use.
func (r *Replayer) coarseLatency(id ir.BlockID) (int64, error) {
	r.schedMu.Lock()
	defer r.schedMu.Unlock()
	if !r.schedDone[id] {
		r.schedDone[id] = true
		sched, err := coarsegrain.MapDFG(ir.BuildDFG(r.in.F, r.in.F.Block(id)), r.in.Plat.Coarse, r.arrLen)
		if err != nil {
			r.schedErr[id] = fmt.Errorf("sim: moved kernel b%d has no data-path schedule: %w", id, err)
		} else {
			r.schedLat[id] = sched.Latency
		}
	}
	return r.schedLat[id], r.schedErr[id]
}

// transferTicks returns block id's per-invocation transfer-channel occupancy
// in ticks when its live-in/out words stripe over the given port count.
func (r *Replayer) transferTicks(id ir.BlockID, ports int) int64 {
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	words := int64(r.liveIO[id].In + r.liveIO[id].Out)
	perSlot := ceilDiv(words, int64(ports))
	return (perSlot*int64(r.in.Plat.Comm.CyclesPerWord) + int64(r.in.Plat.Comm.SyncCycles)) * ratio
}

// normalize folds cfg's documented-equivalent zero knobs onto their defaults
// and rejects negative values.
func (cfg *Config) normalize() error {
	if cfg.Frames < 0 || cfg.Ports < 0 {
		return fmt.Errorf("sim: frames and ports must be non-negative, got %d/%d", cfg.Frames, cfg.Ports)
	}
	if cfg.Frames == 0 {
		cfg.Frames = 1
	}
	if cfg.Ports == 0 {
		cfg.Ports = 1
	}
	return nil
}

// Simulate replays the profiled trace of in against the given mapping under
// cfg. It is deterministic: equal inputs produce equal reports. The context
// is checked between frames and periodically inside each frame's replay.
func Simulate(ctx context.Context, in Input, cfg Config) (*Report, error) {
	r, err := NewReplayer(in)
	if err != nil {
		return nil, err
	}
	return r.Simulate(ctx, cfg, in.Moved)
}

// Arena is the reusable scratch of one replay: the moved mask, the per-block
// cost tables, the per-region sequencer state and the prefetch oracle.
// Makespan grows it on first use and reuses the buffers afterwards, so a
// worker scoring thousands of candidate mappings allocates only on its first
// call. An Arena belongs to exactly one goroutine at a time; the zero value
// is ready to use.
type Arena struct {
	moved    []bool
	latT     []int64 // kernel latency, in ticks (T_CGC cycles)
	txT      []int64 // transfer-channel occupancy per invocation, ticks
	execT    []int64 // fine-grain level cycles per execution, ticks
	nextPart []int32 // prefetch oracle, one entry per trace position

	// Per-region sequencer scratch, one entry per reconfigurable region:
	// the resident partition (replay and walk), the fast-forward snapshot,
	// and FineWalkBound's symbolic first-need record.
	loadedR       []int
	prevLoadedR   []int
	firstNeed     []int
	firstLead     []bool
	firstStraddle []bool
}

// grow sizes the per-block tables for n blocks (the prefetch oracle is grown
// separately, only when a replay needs it).
func (a *Arena) grow(n int) {
	if cap(a.moved) < n {
		a.moved = make([]bool, n)
		a.latT = make([]int64, n)
		a.txT = make([]int64, n)
		a.execT = make([]int64, n)
	}
	a.moved = a.moved[:n]
	a.latT = a.latT[:n]
	a.txT = a.txT[:n]
	a.execT = a.execT[:n]
	for i := range a.moved {
		a.moved[i] = false
	}
}

// growRegions sizes the per-region sequencer scratch for R regions and
// resets it: nothing resident, no region's first need recorded yet.
func (a *Arena) growRegions(regions int) {
	if cap(a.loadedR) < regions {
		a.loadedR = make([]int, regions)
		a.prevLoadedR = make([]int, regions)
		a.firstNeed = make([]int, regions)
		a.firstLead = make([]bool, regions)
		a.firstStraddle = make([]bool, regions)
	}
	a.loadedR = a.loadedR[:regions]
	a.prevLoadedR = a.prevLoadedR[:regions]
	a.firstNeed = a.firstNeed[:regions]
	a.firstLead = a.firstLead[:regions]
	a.firstStraddle = a.firstStraddle[:regions]
	for i := 0; i < regions; i++ {
		a.loadedR[i] = -1
		a.prevLoadedR[i] = -2
		a.firstNeed[i] = -1
		a.firstLead[i] = false
		a.firstStraddle[i] = false
	}
}

// pack marks movedBlocks in the arena's moved mask and packs the
// FPGA-resident rest exactly as the partitioning engine's t_FPGA evaluation
// does — the fine-grain side every evaluator of a mapping starts from.
func (r *Replayer) pack(movedBlocks []ir.BlockID, a *Arena) (*finegrain.PackedMapping, error) {
	n := len(r.in.F.Blocks)
	a.grow(n)
	for _, b := range movedBlocks {
		if int(b) < 0 || int(b) >= n {
			return nil, fmt.Errorf("sim: moved block %d outside the function", b)
		}
		a.moved[b] = true
	}
	return finegrain.PackFunction(r.in.F, r.in.Plat.Fine, func(id ir.BlockID) bool { return !a.moved[id] })
}

// packTables packs the mapping like pack, then fills the arena's per-block
// tick tables for it: a moved block's data-path latency (T_CGC cycles, from
// the same list schedule the engine used) and per-invocation transfer
// occupancy (from its live-in/out footprint), or a kept block's fine-grain
// cycles per execution. Both branches write all three tables — the arena may
// hold a previous mapping's values. The fill is O(blocks), not O(trace).
func (r *Replayer) packTables(movedBlocks []ir.BlockID, ports int, a *Arena) (*finegrain.PackedMapping, error) {
	pm, err := r.pack(movedBlocks, a)
	if err != nil {
		return nil, err
	}
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	for id, moved := range a.moved {
		b := ir.BlockID(id)
		if moved {
			lat, err := r.coarseLatency(b)
			if err != nil {
				return nil, err
			}
			a.latT[id] = lat
			a.txT[id] = r.transferTicks(b, ports)
			a.execT[id] = 0
			continue
		}
		a.latT[id] = 0
		a.txT[id] = 0
		a.execT[id] = pm.PerBlockCycles[id] * ratio
	}
	return pm, nil
}

// Simulate replays the trace against the mapping that moves the given blocks
// to the coarse-grain data-path (nil simulates the all-FPGA mapping).
func (r *Replayer) Simulate(ctx context.Context, cfg Config, movedBlocks []ir.BlockID) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rep := &Report{
		Frames:   cfg.Frames,
		Ports:    cfg.Ports,
		Prefetch: cfg.Prefetch,
		Runs:     r.runs,
	}
	if _, err := r.replay(ctx, cfg, movedBlocks, new(Arena), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Makespan replays the trace against the given mapping and returns only the
// makespan in FPGA cycles — the same value Simulate reports as TotalCycles —
// without building the per-kernel timeline or the occupancy report. With a
// reused Arena the steady state allocates ~nothing, which is what candidate
// scoring wants: the move loop asks for thousands of makespans and exactly
// one report. A nil arena allocates a fresh one.
func (r *Replayer) Makespan(ctx context.Context, cfg Config, movedBlocks []ir.BlockID, a *Arena) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	if a == nil {
		a = new(Arena)
	}
	ticks, err := r.replay(ctx, cfg, movedBlocks, a, nil)
	if err != nil {
		return 0, err
	}
	return ceilDiv(ticks, int64(r.in.Plat.Coarse.ClockRatio)), nil
}

// ClosedForm returns the makespan Makespan reports for a single-frame,
// no-prefetch replay of the given mapping, without the event engine. In that
// regime no resource is ever ahead of program order — every invocation
// window starts where the previous one ended — so the makespan is the sum of
// per-invocation costs plus the sequencer's on-demand configuration loads:
// the same additive structure that makes the simulator agree with the
// analytical model cycle for cycle at the model's operating point. Only the
// loads need the trace, and only the replay's loaded-partition state machine
// runs over it, once or twice per tandem repeat of the trace rather than
// once per entry. cfg must ask for one frame without prefetch. The arena is
// per-goroutine scratch, as in Makespan; nil allocates a fresh one. Safe for
// concurrent use with per-goroutine arenas.
func (r *Replayer) ClosedForm(cfg Config, movedBlocks []ir.BlockID, a *Arena) (int64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	if cfg.Frames != 1 || cfg.Prefetch {
		return 0, fmt.Errorf("sim: the closed form covers one frame without prefetch, got frames=%d prefetch=%v", cfg.Frames, cfg.Prefetch)
	}
	if a == nil {
		a = new(Arena)
	}
	pm, err := r.pack(movedBlocks, a)
	if err != nil {
		return 0, err
	}
	n, moved := len(a.moved), a.moved
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	var ticks int64
	for id := 0; id < n; id++ {
		freq := int64(r.in.Freq[id]) // BuildTrace guarantees len(Freq) >= n
		if freq == 0 {
			continue
		}
		if moved[id] {
			lat, err := r.coarseLatency(ir.BlockID(id))
			if err != nil {
				return 0, err
			}
			ticks += freq * (lat + r.transferTicks(ir.BlockID(id), cfg.Ports))
			continue
		}
		ticks += freq * pm.PerBlockCycles[id] * ratio
	}

	// The replay's sequencer rule: a partition loads only when its region
	// (p % regions) holds something else, for entry and straddle needs
	// alike — with one region every straddled boundary reloads.
	regions := pm.Regions
	firstPart, lastPart := pm.FirstPart, pm.LastPart
	a.growRegions(regions)
	loadedR := a.loadedR
	if pm.NumPartitions == 0 {
		loadedR[0] = 0 // nothing to configure
	}
	walk := func(seg []ir.BlockID) (loads int64) {
		for _, b := range seg {
			if moved[b] {
				continue
			}
			for q := firstPart[b]; q <= lastPart[b]; q++ {
				if reg := q % regions; loadedR[reg] != q {
					loads++
					loadedR[reg] = q
				}
			}
		}
		return loads
	}
	r.repeatsOnce.Do(func() { r.repeats = compressRepeats(r.trace, n) })
	var loads int64
	for _, rp := range r.repeats {
		seg := r.trace[rp.start : rp.start+rp.length]
		loads += walk(seg)
		if rp.reps > 1 {
			// After one pass every region the segment touches holds the
			// last partition the segment needed there, whatever it held
			// before, so every further pass starts from the same state and
			// performs the same loads.
			loads += int64(rp.reps-1) * walk(seg)
		}
	}
	reconT := int64(r.in.Plat.Fine.RegionReconfigCycles()) * ratio
	return ceilDiv(ticks+loads*reconT, ratio), nil
}

// LowerBound returns a cheap admissible lower bound, in FPGA cycles, on the
// makespan Simulate/Makespan report for the mapping that moves the given
// blocks under cfg. Each of the three resources — fine fabric, data-path,
// transfer channel — serves its whole per-frame workload every frame and
// never resets between frames, so its total busy floor bounds the makespan
// from below; the bound is the largest of the three. The fine-grain floor
// combines two packing-independent minima: execution (minFineT — any packing
// only splits DFG levels, and a split level still pays its unsplit max) and
// configuration loads. The remaining trace-active blocks need at least
// k = ceil(area/regionArea) temporal partitions; the first frame loads each
// of them at least once, at most R of them survive any frame boundary (one
// per reconfigurable region), so every later frame reloads at least k−R,
// and every load occupies the fine timeline — the single configuration
// port — for a full region reconfiguration, with or without prefetch, which
// only overlaps the load with data-path windows, never shortens the
// fabric's own busy time. With one region this is the monolithic-context
// floor of frames·(k−1)+1 loads. Branch-and-bound candidate
// scoring uses the bound to skip replays that provably cannot beat an
// incumbent. movedBlocks must not repeat a block (move trajectories never
// do). Safe for concurrent use.
func (r *Replayer) LowerBound(cfg Config, movedBlocks []ir.BlockID) (int64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	n := len(r.in.F.Blocks)
	frames := int64(cfg.Frames)
	fine := r.fineBase
	areaRem := r.areaBase
	var coarse, mem int64
	for _, b := range movedBlocks {
		if int(b) < 0 || int(b) >= n {
			return 0, fmt.Errorf("sim: moved block %d outside the function", b)
		}
		var freq int64
		if int(b) < len(r.in.Freq) {
			freq = int64(r.in.Freq[b])
		}
		if freq == 0 {
			continue
		}
		lat, err := r.coarseLatency(b)
		if err != nil {
			return 0, err
		}
		fine -= freq * r.minFineT[b]
		areaRem -= r.blockArea[b]
		coarse += freq * lat
		mem += freq * r.transferTicks(b, cfg.Ports)
	}
	fineTotal := fine * frames
	if areaRem > 0 {
		fg := r.in.Plat.Fine
		k := ceilDiv(areaRem, int64(fg.RegionArea()))
		loads := k
		if extra := k - int64(fg.NumRegions()); extra > 0 {
			loads += (frames - 1) * extra
		}
		fineTotal += loads * int64(fg.RegionReconfigCycles()) * int64(r.in.Plat.Coarse.ClockRatio)
	}
	floor := fineTotal
	if c := coarse * frames; c > floor {
		floor = c
	}
	if m := mem * frames; m > floor {
		floor = m
	}
	if floor < 0 {
		floor = 0
	}
	return ceilDiv(floor, int64(r.in.Plat.Coarse.ClockRatio)), nil
}

// frameWalk is one pass of FineWalkBound's loaded-partition state machine
// over the trace: the chain costs of one frame, split by resource and by
// position relative to the other fabric's first/last event.
type frameWalk struct {
	fineExec int64 // fine execution + straddling loads (never hideable)
	fineLoad int64 // entry configuration loads (hideable only under prefetch)
	coarse   int64 // Σ data-path latencies over moved windows
	mem      int64 // Σ transfer occupancies over moved windows
	// leadMoved: moved-window chain cost before the frame's first fine
	// event. leadFine: fine chain cost before the frame's first moved
	// window. firstMovedTx: the first moved window's transfer occupancy.
	leadMoved, leadFine, firstMovedTx int64
	sawFine, sawMoved                 bool
	// Each region's first need is start-dependent, so the shared walk
	// leaves those loads out of the totals and records them per region in
	// the arena (firstNeed/firstLead/firstStraddle) for per-variant
	// resolution; the arena's loadedR vector after the walk is the frame's
	// end state.
}

// FineWalkBound returns a tighter admissible lower bound, in FPGA cycles,
// than LowerBound, from the candidate's actual packing: it packs the
// FPGA-resident blocks exactly as the replay does and walks the trace's
// loaded-partition state machine — per-execution cycles, straddling
// crossings, every configuration load and every moved window — for the
// first frame and the steady-state frame, without event bookkeeping, so it
// costs O(trace) instead of O(frames·trace) heavyweight events. It combines
// four floors, each justified by the replay's in-order service discipline:
//
//   - frame 1 is fully serial and later frames never delay it, so its whole
//     chain (under prefetch, minus the loads, which can hide in data-path
//     windows) bounds the makespan;
//   - the fine fabric's timeline is sequential and the replay charges every
//     execution, crossing and load to it (prefetch only overlaps loads with
//     data-path windows, never shortens the fabric's own busy time), so its
//     first event's earliest start (the frame-1 moved-window chain ahead of
//     it), its total occupancy across frames, and the last frame's trailing
//     moved-window chain add up below the makespan;
//   - symmetrically for the data-path: frame 1's leading fine chain, the
//     data-path's total occupancy, and the last frame's trailing fine chain
//     (lead/trail loads are always on-demand — there is no data-path window
//     for prefetch to hide them in — so they count even under prefetch);
//   - the transfer channel's total occupancy.
//
// The bound is exact whenever one fabric dominates, which is what lets
// branch-and-bound scoring kill most full replays once an incumbent near
// the optimum is known. The arena is per-goroutine scratch, as in Makespan;
// nil allocates a fresh one. Safe for concurrent use with per-goroutine
// arenas.
func (r *Replayer) FineWalkBound(cfg Config, movedBlocks []ir.BlockID, a *Arena) (int64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	if a == nil {
		a = new(Arena)
	}
	pm, err := r.packTables(movedBlocks, cfg.Ports, a)
	if err != nil {
		return 0, err
	}
	moved := a.moved
	ratio := int64(r.in.Plat.Coarse.ClockRatio)
	reconT := int64(r.in.Plat.Fine.RegionReconfigCycles()) * ratio
	regions := pm.Regions
	latT, txT, execT := a.latT, a.txT, a.execT
	// A frame's walk depends on the initially resident partitions only
	// through each region's first need: after a region is touched once, its
	// state evolves identically for any starting residency. So one walk
	// (with every region's first load left symbolic) serves both the first
	// frame and the steady-state frames 2..F — which all start and end in
	// the same residency vector, so a single variant covers them and the
	// last frame IS one.
	a.growRegions(regions)
	loadedR, firstNeed, firstLead, firstStraddle := a.loadedR, a.firstNeed, a.firstLead, a.firstStraddle
	var w frameWalk
	for _, b := range r.trace {
		id := int(b)
		if moved[id] {
			w.coarse += latT[id]
			w.mem += txT[id]
			if !w.sawFine {
				w.leadMoved += txT[id] + latT[id]
			}
			if !w.sawMoved {
				w.firstMovedTx = txT[id]
				w.sawMoved = true
			}
			continue
		}
		exec := execT[id]
		var load int64
		p := pm.FirstPart[id]
		if reg := p % regions; firstNeed[reg] < 0 {
			firstNeed[reg] = p
			firstLead[reg] = !w.sawMoved
			loadedR[reg] = p
		} else if loadedR[reg] != p {
			load = reconT
			loadedR[reg] = p
		}
		// Straddling loads ride the execution window — there is no
		// data-path window for prefetch to hide them in.
		for q := p + 1; q <= pm.LastPart[id]; q++ {
			if reg := q % regions; firstNeed[reg] < 0 {
				firstNeed[reg] = q
				firstLead[reg] = !w.sawMoved
				firstStraddle[reg] = true
				loadedR[reg] = q
			} else if loadedR[reg] != q {
				exec += reconT
				loadedR[reg] = q
			}
		}
		w.fineExec += exec
		w.fineLoad += load
		if !w.sawMoved {
			w.leadFine += exec + load
		}
		w.sawFine = true
	}
	// resolve charges each region's symbolic first load against a start
	// residency: the empty fabric (initial=true; with no partitions at all
	// the replay treats partition 0 as trivially resident) or the walk's own
	// end state (the steady-state frames, which start and end in loadedR).
	resolve := func(initial bool) frameWalk {
		v := w
		for reg := 0; reg < regions; reg++ {
			p := firstNeed[reg]
			if p < 0 {
				continue
			}
			if initial {
				start := -1
				if pm.NumPartitions == 0 && reg == 0 {
					start = 0
				}
				if p == start {
					continue
				}
			} else if p == loadedR[reg] {
				continue
			}
			if firstStraddle[reg] {
				v.fineExec += reconT
			} else {
				v.fineLoad += reconT
			}
			if firstLead[reg] {
				v.leadFine += reconT
			}
		}
		return v
	}
	first := resolve(true)
	last := first
	frames := int64(cfg.Frames)
	if cfg.Frames > 1 {
		last = resolve(false)
	}

	// Frame-1 chain: frame 1 is fully serial and later frames never delay
	// it. Prefetch can hide only the configuration loads (inside the
	// frame's own data-path windows), so they are the only term dropped.
	chain1 := first.fineExec + first.coarse + first.mem
	chainS := last.fineExec + last.coarse + last.mem
	if !cfg.Prefetch {
		chain1 += first.fineLoad
		chainS += last.fineLoad
	}
	floor := chain1
	if cfg.Frames > 1 {
		fine1 := first.fineExec + first.fineLoad
		fineS := last.fineExec + last.fineLoad
		if first.sawFine {
			// Fine-anchored: the last frame's first fine event starts no
			// earlier than the fine timeline's F−1 preceding frames of
			// charges (execution, crossings and loads all occupy it, with
			// or without prefetch); from that event the last frame chains
			// serially, minus its leading moved windows.
			if f := fine1 + (frames-2)*fineS + chainS - last.leadMoved; f > floor {
				floor = f
			}
			// Pure fine occupancy — can beat the anchored chain under
			// prefetch, where chainS drops the loads.
			if f := fine1 + (frames-1)*fineS; f > floor {
				floor = f
			}
		}
		if first.sawMoved {
			// Coarse-anchored: the data-path serves frames in order, so the
			// last frame's first kernel starts no earlier than F−1 frames
			// of data-path occupancy; its own transfer precedes that start,
			// so it is excluded from the remaining chain.
			if f := (frames-1)*last.coarse + chainS - last.leadFine - last.firstMovedTx; f > floor {
				floor = f
			}
			// Transfer-channel-anchored: same argument at the first
			// transfer of the last frame.
			if f := (frames-1)*last.mem + chainS - last.leadFine; f > floor {
				floor = f
			}
		}
	}
	return ceilDiv(floor, ratio), nil
}

// replay is the event-driven core shared by Simulate and Makespan: it runs
// the trace against the mapping and returns the makespan in ticks. cfg must
// already be normalized and a must be non-nil. When rep is non-nil the full
// occupancy report and per-kernel timeline are filled in; when it is nil the
// loop tracks only the makespan and skips every per-kernel allocation.
func (r *Replayer) replay(ctx context.Context, cfg Config, movedBlocks []ir.BlockID, a *Arena, rep *Report) (int64, error) {
	in := r.in
	f := in.F
	pm, err := r.packTables(movedBlocks, cfg.Ports, a)
	if err != nil {
		return 0, err
	}
	n, moved := len(a.moved), a.moved
	ratio := int64(in.Plat.Coarse.ClockRatio)
	reconT := int64(in.Plat.Fine.RegionReconfigCycles()) * ratio
	regions := pm.Regions
	latT, txT, execT := a.latT, a.txT, a.execT

	trace := r.trace

	// Prefetch oracle: the temporal partition the sequencer will need next
	// on the fine fabric after each trace position (-1 when no fine-grain
	// block follows). One backward pass, shared by every frame.
	var nextPart []int32
	if cfg.Prefetch {
		if cap(a.nextPart) < len(trace) {
			a.nextPart = make([]int32, len(trace))
		}
		nextPart = a.nextPart[:len(trace)]
		need := int32(-1)
		for i := len(trace) - 1; i >= 0; i-- {
			nextPart[i] = need
			if !moved[trace[i]] {
				need = int32(pm.FirstPart[trace[i]])
			}
		}
	}

	// Event-driven replay over three resources. All times are in ticks
	// (T_CGC cycles = FPGA cycles x ClockRatio), so coarse-grain latencies
	// stay integral and the final makespan converts with one ceiling
	// division — which is what makes contention-free single-frame runs agree
	// with the analytical model cycle for cycle.
	var (
		fineFree, coarseFree, memFree int64
		fineBusyT, fineReconT         int64
		coarseBusyT, memBusyT         int64
		makespan                      int64
		reconfigs, hiddenReconT       int64
		prefetchPart                  = -1
		prefetchReady                 int64
	)
	// Per-region sequencer state: loadedR[reg] is the partition resident in
	// region reg (partition p lives in region p % regions). With one region
	// this is the paper's single loaded-partition scalar.
	a.growRegions(regions)
	loadedR := a.loadedR
	if pm.NumPartitions == 0 {
		loadedR[0] = 0 // nothing to configure
	}
	var invocations []uint64
	var busyT, firstT, lastT []int64
	note := func(ir.BlockID, int64, int64, int64) {}
	if rep != nil {
		invocations = make([]uint64, n)
		busyT = make([]int64, n)
		firstT = make([]int64, n)
		lastT = make([]int64, n)
		for i := range firstT {
			firstT[i] = -1
		}
		note = func(id ir.BlockID, start, end, busy int64) {
			invocations[id]++
			busyT[id] += busy
			if firstT[id] < 0 || start < firstT[id] {
				firstT[id] = start
			}
			if end > lastT[id] {
				lastT[id] = end
			}
		}
	}

	// Steady-state fast-forward (makespan-only replays): every frame runs
	// the identical trace, and within a frame events chain through prevEnd
	// (reset to zero) plus the three resource free-times. If between two
	// consecutive frame starts all three free-times advanced by the same
	// delta and the sequencer state (loaded partition, pending prefetch)
	// matches, the upcoming frame is the previous frame translated by that
	// delta — and by induction so is every frame after it. The remaining
	// frames then contribute exactly prevFrameMax + k*delta, so the replay
	// can stop walking. Detailed reports and OnFrame callbacks need the
	// per-frame events, so they opt out.
	fastForward := rep == nil && cfg.OnFrame == nil
	var (
		pFine, pCoarse, pMem, pReady int64
		pPrefetch                    = -2
		frameMax                     int64
	)
	prevLoadedR := a.prevLoadedR // all -2 after growRegions: never matches frame 0's state
	sameResidency := func() bool {
		for i, v := range loadedR {
			if prevLoadedR[i] != v {
				return false
			}
		}
		return true
	}
	for frame := 0; frame < cfg.Frames; frame++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if fastForward {
			// frameMax still holds the max event end of the frame that just
			// finished — the one the remaining frames would replicate.
			if frame > 0 {
				// The common shift is the largest per-resource advance; a
				// resource whose free time is still zero was never busy and
				// is consulted only through max(x, 0) = x, so it does not
				// constrain the translation (and lands on the shifted
				// pattern itself once its zero-length events move).
				d := max64(fineFree-pFine, max64(coarseFree-pCoarse, memFree-pMem))
				okR := func(free, prev int64) bool {
					return free-prev == d || (prev == 0 && free == 0)
				}
				if okR(fineFree, pFine) && okR(coarseFree, pCoarse) && okR(memFree, pMem) &&
					sameResidency() && prefetchPart == pPrefetch &&
					(prefetchPart < 0 || prefetchReady-pReady == d) {
					if m := frameMax + int64(cfg.Frames-frame)*d; m > makespan {
						makespan = m
					}
					break
				}
			}
			pFine, pCoarse, pMem, pReady = fineFree, coarseFree, memFree, prefetchReady
			copy(prevLoadedR, loadedR)
			pPrefetch = prefetchPart
			frameMax = 0
		}
		var prevEnd int64 // program-order completion within this frame
		for idx, b := range trace {
			if idx&0xffff == 0xffff {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			id := int(b)
			if moved[id] {
				// Transfer live-ins/outs through the shared memory, then
				// execute on the data-path. Both resources serve pipelined
				// frames in order.
				mStart := max64(prevEnd, memFree)
				mEnd := mStart + txT[id]
				memFree = mEnd
				memBusyT += txT[id]
				cStart := max64(mEnd, coarseFree)
				cEnd := cStart + latT[id]
				coarseFree = cEnd
				coarseBusyT += latT[id]
				prevEnd = cEnd
				if cEnd > makespan {
					makespan = cEnd
				}
				if cEnd > frameMax {
					frameMax = cEnd
				}
				note(b, mStart, cEnd, latT[id])

				// The fine fabric idles under this window: with prefetch the
				// sequencer uses it to load the next block's configuration.
				if cfg.Prefetch && prefetchPart < 0 {
					if need := int(nextPart[idx]); need >= 0 && loadedR[need%regions] != need {
						loadStart := max64(fineFree, mStart)
						prefetchReady = loadStart + reconT
						fineFree = prefetchReady
						fineReconT += reconT
						reconfigs++
						prefetchPart = need
					}
				}
				continue
			}

			start := max64(prevEnd, fineFree)
			need := pm.FirstPart[id]
			if reg := need % regions; loadedR[reg] != need {
				if prefetchPart == need {
					// Configuration already (being) loaded during a previous
					// data-path window; any remaining load time still stalls.
					stall := max64(0, prefetchReady-prevEnd)
					hiddenReconT += max64(0, reconT-stall)
					start = max64(start, prefetchReady)
				} else {
					// On-demand load: the region reconfigures, then executes.
					reconfigs++
					fineReconT += reconT
					start += reconT
				}
				loadedR[reg] = need
			}
			prefetchPart = -1
			// Straddling the block across partitions reloads a region only
			// when the next partition's region holds something else — with
			// one region that is every boundary, the paper's model; with
			// more, consecutive partitions land in different regions and
			// only wrap-around revisits reload.
			var strT int64
			for q := need + 1; q <= pm.LastPart[id]; q++ {
				if reg := q % regions; loadedR[reg] != q {
					strT += reconT
					reconfigs++
					loadedR[reg] = q
				}
			}
			end := start + execT[id] + strT
			fineBusyT += execT[id]
			fineReconT += strT
			fineFree = end
			prevEnd = end
			if end > makespan {
				makespan = end
			}
			if end > frameMax {
				frameMax = end
			}
			note(b, start, end, execT[id])
		}
		if cfg.OnFrame != nil {
			cfg.OnFrame(frame+1, ceilDiv(makespan, ratio))
		}
	}

	if rep == nil {
		return makespan, nil
	}

	// The model charges its crossing count once per frame (its per-frame
	// t_FPGA just scales), so the comparable total is crossings × frames —
	// Reconfigs likewise accumulates over frames.
	rep.ModelCrossings = pm.Crossings(in.Freq, in.Edges) * int64(cfg.Frames)
	rep.Reconfigs = reconfigs
	rep.TotalCycles = ceilDiv(makespan, ratio)
	rep.FineBusy = ceilDiv(fineBusyT, ratio)
	rep.FineReconfig = ceilDiv(fineReconT, ratio)
	rep.FineIdle = max64(0, rep.TotalCycles-rep.FineBusy-rep.FineReconfig)
	rep.CoarseBusy = ceilDiv(coarseBusyT, ratio)
	rep.CoarseIdle = max64(0, rep.TotalCycles-rep.CoarseBusy)
	rep.MemBusy = ceilDiv(memBusyT, ratio)
	rep.HiddenReconfigCycles = ceilDiv(hiddenReconT, ratio)

	for id := 0; id < n; id++ {
		if invocations[id] == 0 {
			continue
		}
		fabric := "fine"
		if moved[id] {
			fabric = "coarse"
		}
		rep.Kernels = append(rep.Kernels, KernelStat{
			Block:       ir.BlockID(id),
			Name:        f.Blocks[id].Name,
			Fabric:      fabric,
			Invocations: invocations[id],
			BusyCycles:  ceilDiv(busyT[id], ratio),
			FirstStart:  firstT[id] / ratio,
			LastEnd:     ceilDiv(lastT[id], ratio),
		})
	}
	return makespan, nil
}
