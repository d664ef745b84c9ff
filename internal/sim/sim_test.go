package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
)

// threeStageSrc alternates three distinct basic blocks inside a loop: an
// ALU-heavy stage, a multiply stage (the data-path candidate) and a second
// ALU stage. With a small A_FPGA the stages pack into different temporal
// partitions, which is the regime where configuration scheduling matters.
const threeStageSrc = `
void main_fn() {
  int i; int x; int y; int z;
  i = 0; x = 1; y = 2; z = 3;
  while (i < 16) {
    if (x < 100000) {
      x = x + i + y + x + i + y + x + i + y + x + i + y + x + i;
    }
    if (y < 100000) {
      y = y * x + x * i + y * y + x * y;
    }
    if (z < 100000) {
      z = z + x + i + z + y + i + z + x + i + z + y + i + z + x;
    }
    i = i + 1;
  }
}
`

// divSrc holds a division, which the CGC data-path cannot execute.
const divSrc = `
void main_fn() {
  int i; int x;
  i = 1; x = 100;
  while (i < 8) {
    x = x / i + x;
    i = i + 1;
  }
}
`

// prep lowers src, flattens entry and profiles one run (args-free).
func prep(t *testing.T, src, entry string, runsCount int) (*ir.Program, *ir.Function, []uint64, []finegrain.EdgeFreq) {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	m := interp.New(fp)
	prof := m.EnableProfile()
	for i := 0; i < runsCount; i++ {
		if _, err := m.Run(entry); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	var edges []finegrain.EdgeFreq
	for k, n := range prof.Edges[entry] {
		edges = append(edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	freq := make([]uint64, len(flat.Blocks))
	copy(freq, prof.Counts[entry])
	return fp, flat, freq, edges
}

// smallPlat is the paper platform with A_FPGA shrunk so the three-stage
// program spans several temporal partitions.
func smallPlat(afpga int) platform.Platform {
	p := platform.Default()
	p.Fine.Area = afpga
	return p
}

func TestBuildTraceReplaysProfile(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	trace, runs, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	// Visit counts match the profile exactly.
	seen := make([]uint64, len(flat.Blocks))
	for _, b := range trace {
		seen[b]++
	}
	if !reflect.DeepEqual(seen, freq) {
		t.Fatalf("trace visit counts %v != profiled %v", seen, freq)
	}
	// The multiset of consecutive transitions is exactly the profiled edges.
	got := map[[2]ir.BlockID]uint64{}
	for i := 0; i+1 < len(trace); i++ {
		got[[2]ir.BlockID{trace[i], trace[i+1]}]++
	}
	want := map[[2]ir.BlockID]uint64{}
	for _, e := range edges {
		want[[2]ir.BlockID{e.From, e.To}] += e.N
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace transitions diverge from profiled edges:\ngot  %v\nwant %v", got, want)
	}
	if trace[0] != flat.Entry {
		t.Fatalf("trace starts at block %d, want entry %d", trace[0], flat.Entry)
	}
}

func TestBuildTraceDeterministic(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	a, _, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle the edge order: the reconstruction must not depend on it.
	shuffled := make([]finegrain.EdgeFreq, len(edges))
	copy(shuffled, edges)
	sort.Slice(shuffled, func(i, j int) bool {
		if shuffled[i].To != shuffled[j].To {
			return shuffled[i].To > shuffled[j].To
		}
		return shuffled[i].From > shuffled[j].From
	})
	b, _, err := BuildTrace(flat, freq, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace reconstruction depends on edge input order")
	}
}

func TestBuildTraceMultiRun(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 3)
	trace, runs, err := BuildTrace(flat, freq, edges)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	seen := make([]uint64, len(flat.Blocks))
	for _, b := range trace {
		seen[b]++
	}
	if !reflect.DeepEqual(seen, freq) {
		t.Fatalf("multi-run trace visit counts %v != profiled %v", seen, freq)
	}
}

func TestBuildTraceInconsistentProfile(t *testing.T) {
	_, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	bad := make([]uint64, len(freq))
	copy(bad, freq)
	bad[len(bad)-1] += 5 // executions no edge explains
	if _, _, err := BuildTrace(flat, bad, edges); err == nil {
		t.Fatal("inconsistent profile reconstructed without error")
	}
}

// TestBaselineMatchesPackedModel pins the all-FPGA simulation to the
// analytical fine-grain model: with every block on the FPGA, one frame and
// no contention, the simulated makespan is exactly PackedMapping.TotalCycles.
func TestBaselineMatchesPackedModel(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	for _, afpga := range []int{256, 320, 448, 1500} {
		plat := smallPlat(afpga)
		pm, err := finegrain.PackFunction(flat, plat.Fine, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := pm.TotalCycles(freq, edges, plat.Fine.ReconfigCycles)
		rep, err := Simulate(context.Background(), Input{Prog: fp, F: flat, Plat: plat, Freq: freq, Edges: edges}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalCycles != want {
			t.Errorf("A=%d: simulated %d cycles, model %d", afpga, rep.TotalCycles, want)
		}
		if rep.Reconfigs != rep.ModelCrossings {
			t.Errorf("A=%d: %d reconfigs vs %d model crossings", afpga, rep.Reconfigs, rep.ModelCrossings)
		}
		if rep.CoarseBusy != 0 || rep.MemBusy != 0 {
			t.Errorf("A=%d: all-FPGA run used the data-path (%d) or transfers (%d)", afpga, rep.CoarseBusy, rep.MemBusy)
		}
	}
}

// TestPrefetchHidesReconfiguration exercises the configuration-prefetch
// path: with the multiply stage on the data-path and a partition boundary
// across the window, the naive sequencer stalls on loads the model never
// charges, and prefetch hides part of them — never running slower.
func TestPrefetchHidesReconfiguration(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges, Moved: []ir.BlockID{5}}
	off, err := Simulate(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Simulate(context.Background(), in, Config{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Reconfigs <= off.ModelCrossings {
		t.Fatalf("fixture lost its cross-window loads: %d reconfigs vs %d model crossings",
			off.Reconfigs, off.ModelCrossings)
	}
	if on.TotalCycles >= off.TotalCycles {
		t.Fatalf("prefetch did not help: %d >= %d", on.TotalCycles, off.TotalCycles)
	}
	if on.HiddenReconfigCycles <= 0 {
		t.Fatalf("prefetch hid nothing (total %d vs %d)", on.TotalCycles, off.TotalCycles)
	}
}

// TestPrefetchNeverSlower sweeps areas and moved sets: prefetch must never
// extend the makespan.
func TestPrefetchNeverSlower(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	for afpga := 96; afpga <= 512; afpga += 32 {
		for moved := 0; moved < len(flat.Blocks); moved++ {
			in := Input{Prog: fp, F: flat, Plat: smallPlat(afpga), Freq: freq, Edges: edges,
				Moved: []ir.BlockID{ir.BlockID(moved)}}
			off, err := Simulate(context.Background(), in, Config{})
			if err != nil {
				continue // unmappable moved block etc.
			}
			for _, frames := range []int{1, 5} {
				off, err = Simulate(context.Background(), in, Config{Frames: frames})
				if err != nil {
					t.Fatal(err)
				}
				on, err := Simulate(context.Background(), in, Config{Frames: frames, Prefetch: true})
				if err != nil {
					t.Fatal(err)
				}
				if on.TotalCycles > off.TotalCycles {
					t.Errorf("A=%d moved=%d frames=%d: prefetch slower: %d > %d",
						afpga, moved, frames, on.TotalCycles, off.TotalCycles)
				}
			}
		}
	}
}

func TestFramesPipeline(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges, Moved: []ir.BlockID{5}}
	single, err := Simulate(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var frameEnds []int64
	rep, err := Simulate(context.Background(), in, Config{
		Frames:  4,
		OnFrame: func(frame int, cycles int64) { frameEnds = append(frameEnds, cycles) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles < single.TotalCycles || rep.TotalCycles > 4*single.TotalCycles {
		t.Fatalf("4-frame makespan %d outside [%d, %d]", rep.TotalCycles, single.TotalCycles, 4*single.TotalCycles)
	}
	if len(frameEnds) != 4 {
		t.Fatalf("OnFrame fired %d times, want 4", len(frameEnds))
	}
	for i := 1; i < len(frameEnds); i++ {
		if frameEnds[i] < frameEnds[i-1] {
			t.Fatalf("frame completions regress: %v", frameEnds)
		}
	}
	if frameEnds[3] != rep.TotalCycles {
		t.Fatalf("last frame ends at %d, makespan %d", frameEnds[3], rep.TotalCycles)
	}
}

func TestPortsSpeedTransfers(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges, Moved: []ir.BlockID{5}}
	one, err := Simulate(context.Background(), in, Config{Ports: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Simulate(context.Background(), in, Config{Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.MemBusy >= one.MemBusy {
		t.Fatalf("4 ports did not shorten transfers: %d >= %d", four.MemBusy, one.MemBusy)
	}
	if four.TotalCycles > one.TotalCycles {
		t.Fatalf("4 ports slower overall: %d > %d", four.TotalCycles, one.TotalCycles)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges, Moved: []ir.BlockID{5}}
	cfg := Config{Frames: 3, Ports: 2, Prefetch: true}
	a, err := Simulate(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated simulation diverged")
	}
}

func TestSimulateCancellation(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Simulate(ctx, Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges},
		Config{Frames: 2})
	if err != context.Canceled {
		t.Fatalf("cancelled simulation returned %v", err)
	}
}

func TestSimulateErrors(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	if _, err := Simulate(context.Background(), in, Config{Frames: -1}); err == nil {
		t.Error("negative frames accepted")
	}
	if _, err := Simulate(context.Background(), in, Config{Ports: -1}); err == nil {
		t.Error("negative ports accepted")
	}
	bad := in
	bad.Moved = []ir.BlockID{ir.BlockID(len(flat.Blocks))}
	if _, err := Simulate(context.Background(), bad, Config{}); err == nil {
		t.Error("out-of-range moved block accepted")
	}

	// A kernel the data-path cannot execute must be rejected, like the
	// partitioning engine rejects it.
	dp, dflat, dfreq, dedges := prep(t, divSrc, "main_fn", 1)
	for id := range dflat.Blocks {
		din := Input{Prog: dp, F: dflat, Plat: platform.Default(), Freq: dfreq, Edges: dedges,
			Moved: []ir.BlockID{ir.BlockID(id)}}
		if _, err := Simulate(context.Background(), din, Config{}); err != nil {
			return // found the division block: rejected as expected
		}
	}
	t.Error("no block of the division program was rejected")
}

// TestKernelTimeline sanity-checks the per-kernel rows: every executed
// block appears once, fabrics are labeled correctly, and invocation counts
// scale with the frame count.
func TestKernelTimeline(t *testing.T) {
	fp, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: fp, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges, Moved: []ir.BlockID{5}}
	rep, err := Simulate(context.Background(), in, Config{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	var executed int
	for _, n := range freq {
		if n > 0 {
			executed++
		}
	}
	if len(rep.Kernels) != executed {
		t.Fatalf("%d timeline rows, want %d", len(rep.Kernels), executed)
	}
	for _, k := range rep.Kernels {
		if k.Invocations != 2*freq[k.Block] {
			t.Errorf("block %d: %d invocations, want %d", k.Block, k.Invocations, 2*freq[k.Block])
		}
		wantFabric := "fine"
		if k.Block == 5 {
			wantFabric = "coarse"
		}
		if k.Fabric != wantFabric {
			t.Errorf("block %d on %q, want %q", k.Block, k.Fabric, wantFabric)
		}
		if k.FirstStart < 0 || k.LastEnd > rep.TotalCycles || k.FirstStart > k.LastEnd {
			t.Errorf("block %d timeline [%d, %d] outside [0, %d]", k.Block, k.FirstStart, k.LastEnd, rep.TotalCycles)
		}
	}
}

// TestReplayerMatchesSimulate: the Replayer's per-mapping entry point is
// the one-shot Simulate, mapping for mapping — and one Replayer serves many
// mappings (the move-loop objective's access pattern) without rebuilding
// the trace or the schedules.
func TestReplayerMatchesSimulate(t *testing.T) {
	prog, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Frames: 4, Ports: 2, Prefetch: true}
	// Every mappable singleton plus the empty mapping, all through the one
	// Replayer.
	movedSets := [][]ir.BlockID{nil}
	for id := range flat.Blocks {
		if _, err := r.coarseLatency(ir.BlockID(id)); err == nil {
			movedSets = append(movedSets, []ir.BlockID{ir.BlockID(id)})
		}
	}
	if len(movedSets) < 3 {
		t.Fatalf("fixture yields only %d mappable sets", len(movedSets))
	}
	for _, moved := range movedSets {
		in.Moved = moved
		oneShot, err := Simulate(context.Background(), in, cfg)
		if err != nil {
			t.Fatalf("moved=%v: %v", moved, err)
		}
		reused, err := r.Simulate(context.Background(), cfg, moved)
		if err != nil {
			t.Fatalf("moved=%v: %v", moved, err)
		}
		if !reflect.DeepEqual(oneShot, reused) {
			t.Fatalf("moved=%v: replayer diverges from one-shot Simulate:\n%+v\nvs\n%+v", moved, reused, oneShot)
		}
	}
	// The trace covers the profile exactly: visit counts must match it
	// (the closed form's per-block cost sums rely on this).
	seen := make([]uint64, len(flat.Blocks))
	for _, b := range r.trace {
		seen[b]++
	}
	for id, n := range seen {
		if n != freq[id] {
			t.Fatalf("trace visits block %d %d times, profiled %d", id, n, freq[id])
		}
	}
}

// TestMakespanMatchesSimulate pins the report-free scoring entry point to
// the full Simulate: for every mappable moved set, every frame count and
// both prefetch settings, Makespan must return exactly Report.TotalCycles —
// it is the same replay with the bookkeeping elided, not an approximation.
// A single Arena is reused across all calls to exercise the grow/reset path.
func TestMakespanMatchesSimulate(t *testing.T) {
	prog, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	movedSets := [][]ir.BlockID{nil}
	for id := range flat.Blocks {
		if _, err := r.coarseLatency(ir.BlockID(id)); err == nil {
			movedSets = append(movedSets, []ir.BlockID{ir.BlockID(id)})
		}
	}
	var arena Arena
	for _, frames := range []int{1, 2, 8} {
		for _, prefetch := range []bool{false, true} {
			cfg := Config{Frames: frames, Ports: 2, Prefetch: prefetch}
			for _, moved := range movedSets {
				rep, err := r.Simulate(context.Background(), cfg, moved)
				if err != nil {
					t.Fatalf("moved=%v: %v", moved, err)
				}
				got, err := r.Makespan(context.Background(), cfg, moved, &arena)
				if err != nil {
					t.Fatalf("moved=%v: %v", moved, err)
				}
				if got != rep.TotalCycles {
					t.Fatalf("frames=%d prefetch=%v moved=%v: Makespan %d != Simulate %d",
						frames, prefetch, moved, got, rep.TotalCycles)
				}
				// nil arena allocates a fresh one and must agree too.
				fresh, err := r.Makespan(context.Background(), cfg, moved, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fresh != got {
					t.Fatalf("moved=%v: fresh-arena makespan %d != reused-arena %d", moved, fresh, got)
				}
			}
		}
	}
}

// TestLowerBoundAdmissible is the branch-and-bound soundness property: for
// every moved set (empty, singletons, and all mappable pairs) under every
// region/frame/port/prefetch combination, neither LowerBound nor the
// tighter FineWalkBound ever exceeds the replayed makespan. One
// overestimate would let the scorer prune a true argmin. The same sweep pins
// the closed form to the replay it mirrors — equal cycle for cycle at one
// frame without prefetch, refused elsewhere — and the monolithic identity:
// Regions=1 replays byte-identically to the legacy single-context model
// (Regions unset).
func TestLowerBoundAdmissible(t *testing.T) {
	cases := regionCases(t)
	for _, fixture := range []string{"three-stage", "div"} {
		t.Run(fixture, func(t *testing.T) {
			for _, c := range cases {
				if c.name != fixture {
					continue
				}
				r, regions := c.r, c.regions
				legacyIn := r.in
				legacyIn.Plat.Fine.Regions = 0
				legacy, err := NewReplayer(legacyIn)
				if err != nil {
					t.Fatal(err)
				}
				var arena Arena
				for _, frames := range []int{1, 4} {
					for _, ports := range []int{1, 2, 4} {
						for _, prefetch := range []bool{false, true} {
							cfg := Config{Frames: frames, Ports: ports, Prefetch: prefetch}
							for _, moved := range c.movedSets {
								bound, err := r.LowerBound(cfg, moved)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								full, err := r.Makespan(context.Background(), cfg, moved, &arena)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								if bound > full {
									t.Fatalf("regions=%d frames=%d ports=%d prefetch=%v moved=%v: bound %d exceeds makespan %d",
										regions, frames, ports, prefetch, moved, bound, full)
								}
								walk, err := r.FineWalkBound(cfg, moved, &arena)
								if err != nil {
									t.Fatalf("moved=%v: %v", moved, err)
								}
								if walk > full {
									t.Fatalf("regions=%d frames=%d ports=%d prefetch=%v moved=%v: fine-walk bound %d exceeds makespan %d",
										regions, frames, ports, prefetch, moved, walk, full)
								}
								cf, err := r.ClosedForm(cfg, moved, &arena)
								if frames > 1 || prefetch {
									if err == nil {
										t.Fatalf("frames=%d prefetch=%v: closed form accepted a config outside its regime", frames, prefetch)
									}
								} else if err != nil || cf != full {
									t.Fatalf("regions=%d ports=%d moved=%v: closed form %d (%v), makespan %d",
										regions, ports, moved, cf, err, full)
								}
								if regions == 1 {
									want, err := legacy.Makespan(context.Background(), cfg, moved, nil)
									if err != nil {
										t.Fatal(err)
									}
									if full != want {
										t.Fatalf("frames=%d ports=%d prefetch=%v moved=%v: Regions=1 makespan %d != legacy %d",
											frames, ports, prefetch, moved, full, want)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestReplayerConcurrentUse is the race-detector pin for the documented
// concurrency contract: one Replayer, 16 goroutines, each hammering the
// replay API — Simulate, Makespan (with its own Arena), LowerBound and the
// lazy schedule memo — while asserting every result equals the serially
// computed golden value. TestClosedFormConcurrentUse covers the closed form.
// Run under -race in CI.
func TestReplayerConcurrentUse(t *testing.T) {
	prog, flat, freq, edges := prep(t, threeStageSrc, "main_fn", 1)
	in := Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges}
	r, err := NewReplayer(in)
	if err != nil {
		t.Fatal(err)
	}
	var moved []ir.BlockID
	for id := range flat.Blocks {
		if _, err := r.coarseLatency(ir.BlockID(id)); err == nil {
			moved = append(moved, ir.BlockID(id))
			if len(moved) == 2 {
				break
			}
		}
	}
	cfg := Config{Frames: 4, Ports: 2, Prefetch: true}
	goldenRep, err := r.Simulate(context.Background(), cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	goldenBound, err := r.LowerBound(cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	goldenLat, err := r.coarseLatency(moved[0])
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena Arena // per-goroutine, per the contract
			for i := 0; i < 20; i++ {
				rep, err := r.Simulate(context.Background(), cfg, moved)
				if err != nil {
					errs <- err
					return
				}
				if rep.TotalCycles != goldenRep.TotalCycles {
					errs <- fmt.Errorf("concurrent Simulate: %d != %d", rep.TotalCycles, goldenRep.TotalCycles)
					return
				}
				mk, err := r.Makespan(context.Background(), cfg, moved, &arena)
				if err != nil {
					errs <- err
					return
				}
				if mk != goldenRep.TotalCycles {
					errs <- fmt.Errorf("concurrent Makespan: %d != %d", mk, goldenRep.TotalCycles)
					return
				}
				b, err := r.LowerBound(cfg, moved)
				if err != nil {
					errs <- err
					return
				}
				if b != goldenBound {
					errs <- fmt.Errorf("concurrent LowerBound: %d != %d", b, goldenBound)
					return
				}
				lat, err := r.coarseLatency(moved[0])
				if err != nil {
					errs <- err
					return
				}
				if lat != goldenLat {
					errs <- fmt.Errorf("concurrent coarseLatency: %d != %d", lat, goldenLat)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// regionCase is one Replayer of the region sweep plus every mappable moved
// set of at most two kernels (and the empty mapping).
type regionCase struct {
	name      string
	regions   int
	r         *Replayer
	movedSets [][]ir.BlockID
}

// regionCases builds the region sweep: both fixtures at Regions ∈ {1, 2, 4},
// with the total area scaled by the region count so the per-region area —
// what packing sees — stays fixed and R only changes the residency
// dynamics.
func regionCases(t *testing.T) []regionCase {
	t.Helper()
	var cases []regionCase
	for _, src := range []struct {
		name, src string
		area      int
	}{
		{"three-stage", threeStageSrc, 320},
		{"div", divSrc, 260},
	} {
		prog, flat, freq, edges := prep(t, src.src, "main_fn", 1)
		for _, regions := range []int{1, 2, 4} {
			plat := smallPlat(src.area * regions)
			plat.Fine.Regions = regions
			r, err := NewReplayer(Input{Prog: prog, F: flat, Plat: plat, Freq: freq, Edges: edges})
			if err != nil {
				t.Fatal(err)
			}
			var mappable []ir.BlockID
			for id := range flat.Blocks {
				if _, err := r.coarseLatency(ir.BlockID(id)); err == nil {
					mappable = append(mappable, ir.BlockID(id))
				}
			}
			movedSets := [][]ir.BlockID{nil}
			for i, a := range mappable {
				movedSets = append(movedSets, []ir.BlockID{a})
				for _, b := range mappable[i+1:] {
					movedSets = append(movedSets, []ir.BlockID{a, b})
				}
			}
			cases = append(cases, regionCase{src.name, regions, r, movedSets})
		}
	}
	return cases
}

// TestClosedFormConcurrentUse is the race-detector pin for the closed form:
// goroutines share one Replayer, each with its own Arena, and every result
// must equal the serially computed one — across both fixtures, Regions ∈
// {1, 2, 4} and ports ∈ {1, 2, 4}. Run under -race in CI.
func TestClosedFormConcurrentUse(t *testing.T) {
	t.Parallel()
	for _, c := range regionCases(t) {
		for _, ports := range []int{1, 2, 4} {
			cfg := Config{Frames: 1, Ports: ports}
			golden := make([]int64, len(c.movedSets))
			for i, moved := range c.movedSets {
				v, err := c.r.ClosedForm(cfg, moved, nil)
				if err != nil {
					t.Fatal(err)
				}
				golden[i] = v
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var arena Arena // per-goroutine, per the contract
					// Each goroutine starts at a different moved set so the
					// shared Replayer sees interleaved mappings.
					for k := range c.movedSets {
						i := (k + g) % len(c.movedSets)
						v, err := c.r.ClosedForm(cfg, c.movedSets[i], &arena)
						if err != nil {
							errs <- err
							return
						}
						if v != golden[i] {
							errs <- fmt.Errorf("%s regions=%d ports=%d moved=%v: concurrent closed form %d != serial %d",
								c.name, c.regions, ports, c.movedSets[i], v, golden[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
	}
}

// TestCompressRepeatsExpandsToTrace: the tandem-repeat split covers the
// trace exactly — expanding every repeat in order rebuilds it entry for
// entry — on the fixtures' traces, on random traces over small alphabets
// (dense accidental repeats), and on a trace built to exhaust the
// comparison budget.
func TestCompressRepeatsExpandsToTrace(t *testing.T) {
	check := func(name string, trace []ir.BlockID, nBlocks int) {
		t.Helper()
		var got []ir.BlockID
		for _, rp := range compressRepeats(trace, nBlocks) {
			if rp.length <= 0 || rp.reps <= 0 {
				t.Fatalf("%s: degenerate repeat %+v", name, rp)
			}
			for k := 0; k < rp.reps; k++ {
				got = append(got, trace[rp.start:rp.start+rp.length]...)
			}
		}
		if !reflect.DeepEqual(got, trace) && len(got)+len(trace) > 0 {
			t.Fatalf("%s: repeats expand to %d entries that differ from the %d-entry trace", name, len(got), len(trace))
		}
	}
	for _, src := range []string{threeStageSrc, divSrc} {
		prog, flat, freq, edges := prep(t, src, "main_fn", 1)
		r, err := NewReplayer(Input{Prog: prog, F: flat, Plat: smallPlat(320), Freq: freq, Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		check("fixture", r.trace, len(flat.Blocks))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		nBlocks := 1 + rng.Intn(4)
		trace := make([]ir.BlockID, rng.Intn(300))
		for j := range trace {
			trace[j] = ir.BlockID(rng.Intn(nBlocks))
		}
		check(fmt.Sprintf("random %d", i), trace, nBlocks)
	}
	// Periods of 0 1 2 ... 50 X, X drawn at random from three blocks: every
	// entry recurs one period later and the period check fails only at the
	// next X, about 25 comparisons per entry, so the budget runs out part
	// way through.
	var hostile []ir.BlockID
	for len(hostile) < 20000 {
		for k := 0; k <= 50; k++ {
			hostile = append(hostile, ir.BlockID(k))
		}
		hostile = append(hostile, ir.BlockID(51+rng.Intn(3)))
	}
	check("hostile", hostile, 54)
}
