package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.plan(7), w.plan(7), w.plan(8)
		if len(a.warm) != len(b.warm) {
			t.Fatalf("%s: warm-up sizes differ for one seed", w.name)
		}
		for i := range a.warm {
			if !bytes.Equal(a.warm[i].body, b.warm[i].body) {
				t.Fatalf("%s: warm-up request %d differs for one seed", w.name, i)
			}
		}
		differs := false
		for i := 0; i < 60; i++ {
			x, y := a.next(i), b.next(i)
			if !bytes.Equal(x.body, y.body) {
				t.Fatalf("%s: request %d differs for one seed", w.name, i)
			}
			differs = differs || !bytes.Equal(x.body, other.next(i).body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same 60 requests", w.name)
		}
	}
}

// TestMissKeysAreNew checks the miss workloads never repeat a request, so
// every timed request is a new cache key.
func TestMissKeysAreNew(t *testing.T) {
	for _, w := range workloads {
		if w.name == "hit" {
			continue
		}
		p := w.plan(3)
		seen := map[string]bool{}
		for i := range p.warm {
			seen[string(p.warm[i].body)] = true
		}
		for i := 0; i < 2000; i++ {
			b := string(p.next(i).body)
			if seen[b] {
				t.Fatalf("%s: request %d repeats an earlier body", w.name, i)
			}
			seen[b] = true
		}
	}
}

func TestCheckerRejectsCorruptBody(t *testing.T) {
	ctx := context.Background()
	for _, rq := range []request{simMissPlan(5).next(1), inlineRequest("ofdm", 99)} {
		body, err := recompute(ctx, &rq, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRecomputed(ctx, &rq, body); err != nil {
			t.Fatalf("correct body rejected: %v", err)
		}
		if err := checkShape(&rq, body); err != nil {
			t.Fatalf("correct body fails the shape check: %v", err)
		}
		bad := bytes.Replace(body, []byte(`"final_cycles":`), []byte(`"final_cycles":1`), 1)
		if err := checkRecomputed(ctx, &rq, bad); err == nil {
			t.Error("corrupted body accepted")
		}
		if err := checkShape(&rq, body[:len(body)/2]); err == nil {
			t.Error("truncated body passes the shape check")
		}
	}
}

func TestCheckerRejectsWrongAnchor(t *testing.T) {
	ctx := context.Background()
	for i, rq := range anchorRequests() {
		body, err := recompute(ctx, &rq, false)
		if err != nil {
			t.Fatal(err)
		}
		a := anchors[i]
		if err := checkAnchor(a, body); err != nil {
			t.Fatalf("paper anchor fails: %v", err)
		}
		a.final++
		if err := checkAnchor(a, body); err == nil {
			t.Errorf("%s: wrong anchor accepted", a.bench)
		}
	}
}

// TestWorkloadsLoadTheirLayers runs every workload briefly against hservd
// built from this tree, with the traced replay, and requires a clean run:
// every response checks out, and the layer counters hold — cache.hit_ratio
// 1 on hit and 0 elsewhere, trace replays only on the sim workloads, and
// interpreter steps only in source-miss timed requests.
func TestWorkloadsLoadTheirLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hservd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hservd")
	if out, err := exec.Command("go", "build", "-o", bin, "hybridpart/cmd/hservd").CombinedOutput(); err != nil {
		t.Fatalf("build hservd: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, err := runE2E(ctx, bin, w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			lr, err := runLayers(ctx, w, 1, e, dir)
			if err != nil {
				t.Fatal(err)
			}
			fails := append(append([]string(nil), e.failures...), lr.failures...)
			for _, s := range e.timed() {
				if s.failure != "" {
					fails = append(fails, s.failure)
				}
			}
			if len(fails) > 0 {
				t.Fatalf("%d failures: %s", len(fails), strings.Join(fails, "; "))
			}
			if len(e.timed()) == 0 {
				t.Fatal("no timed requests")
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
}
