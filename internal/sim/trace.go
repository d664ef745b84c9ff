// Package sim is a deterministic discrete-event co-simulator of the hybrid
// platform of Figure 1: it replays the profiled CDFG trace of an application
// against a computed partitioning, modeling the sequencer dispatching each
// kernel invocation to its assigned fabric — fine-grain blocks with temporal
// partition swaps (optionally prefetched during data-path windows),
// coarse-grain kernels from their list schedules, shared-memory transfer
// slots with a configurable port count, and the two-stage frame pipeline —
// and reports the simulated makespan, per-fabric utilization and a
// per-kernel timeline. Where the analytical model of internal/partition sums
// closed-form terms (eq. 2), the simulator executes the trace event by
// event, which is what lets it check the model's assumptions (mutually
// exclusive fabrics, full reconfiguration per crossing, uncontended
// transfers) instead of restating them.
package sim

import (
	"fmt"
	"sort"

	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
)

// rem is one outgoing edge of the trace multigraph with its remaining
// traversal count.
type rem struct {
	to ir.BlockID
	n  uint64
}

// BuildTrace reconstructs a canonical basic-block execution trace from the
// dynamic-analysis profile: per-block execution counts plus taken-edge
// counts. The profiled edges form an Eulerian trail (one per profiled run)
// over the control-flow multigraph, and a Hierholzer walk with
// smallest-successor-first edge selection rebuilds a trail deterministically.
// Any such trail visits every block exactly its profiled count and contains
// exactly the profiled multiset of consecutive transitions — the two
// properties the simulator's accounting depends on — so the reconstruction
// is equivalent to the recorded execution order for every order-insensitive
// quantity and canonical (input-independent) for the rest.
//
// Profiles accumulated over several runs are replayed back to back: the
// walk returns to the entry block once per run. The number of runs folded
// into the trace is returned alongside it.
func BuildTrace(f *ir.Function, freq []uint64, edges []finegrain.EdgeFreq) (trace []ir.BlockID, runs int, err error) {
	n := len(f.Blocks)
	var total uint64
	for id, c := range freq {
		if id >= n && c > 0 {
			return nil, 0, fmt.Errorf("sim: profile counts block %d of a %d-block function", id, n)
		}
		total += c
	}
	if total == 0 {
		return nil, 0, nil
	}
	if len(freq) < n {
		grown := make([]uint64, n)
		copy(grown, freq)
		freq = grown
	}

	succ := make([][]rem, n)
	in := make([]uint64, n)
	out := make([]uint64, n)
	var edgeTotal uint64
	for _, e := range edges {
		if e.N == 0 {
			continue
		}
		if int(e.From) >= n || int(e.To) >= n {
			return nil, 0, fmt.Errorf("sim: profiled edge %d->%d outside the function", e.From, e.To)
		}
		succ[e.From] = append(succ[e.From], rem{to: e.To, n: e.N})
		out[e.From] += e.N
		in[e.To] += e.N
		edgeTotal += e.N
	}

	// Each profiled run starts at the entry block and ends at some return
	// block, so runs = entry visits not explained by incoming edges. Virtual
	// back-edges from the surplus end blocks to the entry stitch the runs
	// into one Eulerian trail; the end block with the highest ID keeps its
	// surplus so the stitched trail terminates there deterministically.
	entry := f.Entry
	if freq[entry] < in[entry] {
		return nil, 0, fmt.Errorf("sim: block %d enters more often than it executes", entry)
	}
	runs = int(freq[entry] - in[entry])
	if runs == 0 {
		return nil, 0, fmt.Errorf("sim: profile has no run starting at the entry block")
	}
	last := -1
	for id := n - 1; id >= 0; id-- {
		if freq[id] > out[id] {
			last = id
			break
		}
	}
	for id := 0; id < n; id++ {
		if out[id] > freq[id] {
			return nil, 0, fmt.Errorf("sim: block %d exits more often than it executes", id)
		}
		ends := freq[id] - out[id]
		if id == last {
			ends-- // the trail's final stop keeps its surplus
		}
		if ends > 0 {
			succ[id] = append(succ[id], rem{to: entry, n: ends})
			edgeTotal += ends
		}
	}
	for id := range succ {
		sort.Slice(succ[id], func(i, j int) bool { return succ[id][i].to < succ[id][j].to })
	}

	// Iterative Hierholzer: follow the smallest-numbered unexhausted
	// successor; when stuck, pop to the (reversed) trail. Cycles splice in
	// automatically as the stack unwinds through their junction vertices.
	next := make([]int, n)
	stack := make([]ir.BlockID, 0, 64)
	stack = append(stack, entry)
	trace = make([]ir.BlockID, 0, total)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		sv := succ[v]
		for next[v] < len(sv) && sv[next[v]].n == 0 {
			next[v]++
		}
		if next[v] < len(sv) {
			sv[next[v]].n--
			stack = append(stack, sv[next[v]].to)
		} else {
			trace = append(trace, v)
			stack = stack[:len(stack)-1]
		}
	}
	for i, j := 0, len(trace)-1; i < j; i, j = i+1, j-1 {
		trace[i], trace[j] = trace[j], trace[i]
	}

	// A consistent profile is fully consumed: the trail covers every edge
	// and visits every block exactly its profiled count.
	if uint64(len(trace)) != total || uint64(len(trace)) != edgeTotal+1 {
		return nil, 0, fmt.Errorf("sim: profile is not replayable: %d of %d block executions reconstructed", len(trace), total)
	}
	seen := make([]uint64, n)
	for _, b := range trace {
		seen[b]++
	}
	for id := range seen {
		if seen[id] != freq[id] {
			return nil, 0, fmt.Errorf("sim: profile is not replayable: block %d reconstructed %d times, profiled %d", id, seen[id], freq[id])
		}
	}
	return trace, runs, nil
}

// repeat is one stretch of the canonical trace: the segment
// trace[start:start+length], executed reps times back to back.
type repeat struct {
	start, length, reps int
}

// compressRepeats splits the trace into tandem repeats. Hierholzer's
// smallest-successor-first walk spins each loop until its back edge is
// exhausted, so loop bodies come out as long runs of one segment: JPEG's
// 1.2M-entry trace is 41 repeats whose segments total under a thousand
// entries. At each position the candidate period is the distance to the
// block's next occurrence; the segment repeats while the following copies
// match it, and positions that start no repeat accumulate into a literal
// stretch (reps 1). Periods are capped at maxPeriod so the next-occurrence
// table takes one byte per entry, a quarter of the trace's own size; longer
// ones stay literal. Failed period checks are capped at a few passes over
// the trace in total, past which the rest is one literal stretch, so the
// split stays linear on any trace.
func compressRepeats(trace []ir.BlockID, nBlocks int) []repeat {
	const maxPeriod = 255
	n := len(trace)
	next := make([]uint8, n) // distance to trace[i]'s next occurrence, 0 = none within maxPeriod
	seen := make([]int, nBlocks)
	for i := range seen {
		seen[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if j := seen[trace[i]]; j >= 0 && j-i <= maxPeriod {
			next[i] = uint8(j - i)
		}
		seen[trace[i]] = i
	}
	// matched is the length of the common prefix of trace[a:a+length] and
	// trace[b:b+length].
	matched := func(a, b, length int) int {
		k := 0
		for k < length && trace[a+k] == trace[b+k] {
			k++
		}
		return k
	}
	var out []repeat
	budget := 4 * n // element comparisons allowed for failed period checks
	lit := 0        // start of the pending literal stretch
	for i := 0; i < n && budget > 0; i++ {
		p := int(next[i])
		if p == 0 || i+2*p > n {
			continue
		}
		if m := matched(i, i+p, p); m < p {
			budget -= m + 1
			continue
		}
		reps := 2
		for i+(reps+1)*p <= n && matched(i, i+reps*p, p) == p {
			reps++
		}
		if lit < i {
			out = append(out, repeat{lit, i - lit, 1})
		}
		out = append(out, repeat{i, p, reps})
		i += reps*p - 1
		lit = i + 1
	}
	if lit < n {
		out = append(out, repeat{lit, n - lit, 1})
	}
	return out
}
