package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"hybridpart"
	"hybridpart/internal/server"
)

// anchor is one of the paper's reproduction numbers: the model objective on
// the default platform at the benchmark's evaluation constraint, seed 1.
type anchor struct {
	bench          string
	constraint     int64
	initial, final int64
}

var anchors = []anchor{
	{bench: "ofdm", constraint: ofdmConstraint, initial: 184613, final: 47609},
	{bench: "jpeg", constraint: jpegConstraint, initial: 34355368, final: 20570963},
}

// checkAnchor verifies a response body against the anchor for its
// benchmark.
func checkAnchor(a anchor, body []byte) error {
	var r server.ResultJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("anchor %s: %w", a.bench, err)
	}
	if r.InitialCycles != a.initial || r.FinalCycles != a.final {
		return fmt.Errorf("anchor %s: got %d -> %d cycles, want %d -> %d",
			a.bench, r.InitialCycles, r.FinalCycles, a.initial, a.final)
	}
	return nil
}

// checkShape is the check every 200 response passes: a well-formed result
// whose objective and simulated fields fit the request.
func checkShape(rq *request, body []byte) error {
	var r server.ResultJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("malformed result: %v", err)
	}
	opts, err := resolve(&rq.req)
	if err != nil {
		return err
	}
	switch {
	case r.Objective != opts.Objective.String():
		return fmt.Errorf("objective %q, want %q", r.Objective, opts.Objective)
	case r.InitialCycles <= 0 || r.FinalCycles <= 0 || r.FinalCycles > r.InitialCycles:
		return fmt.Errorf("implausible cycles %d -> %d", r.InitialCycles, r.FinalCycles)
	case r.Constraint != opts.Constraint:
		return fmt.Errorf("constraint %d, want %d", r.Constraint, opts.Constraint)
	case opts.Objective == hybridpart.ObjectiveSimulated && r.SimulatedCycles <= 0:
		return fmt.Errorf("sim objective without simulated_cycles")
	}
	return nil
}

// resolve is the service's knob resolution for the request fields the
// workloads use: a full Options override or the default options, the
// constraint, and the co-simulation shortcuts, with the service default
// objective (sim) applied when the request leaves the objective open.
func resolve(pr *server.PartitionRequest) (hybridpart.Options, error) {
	opts := hybridpart.DefaultOptions()
	if pr.Options != nil {
		opts = *pr.Options
	}
	if pr.Constraint > 0 {
		opts.Constraint = pr.Constraint
	}
	obj := pr.Objective
	if obj == "" && pr.Options == nil && pr.Rerank == 0 {
		obj = "sim"
	}
	if obj != "" {
		o, err := hybridpart.ParseObjective(obj)
		if err != nil {
			return opts, err
		}
		opts.Objective = o
	}
	if pr.Frames > 0 {
		opts.SimFrames = pr.Frames
	}
	if pr.Ports > 0 {
		opts.SimPorts = pr.Ports
	}
	if pr.Prefetch {
		opts.SimPrefetch = true
	}
	if pr.Regions > 0 {
		opts.Regions = pr.Regions
	}
	return opts, nil
}

// recompute produces, in-process, the bytes the service must answer rq
// with: the benchmark path (profile of rq's application and input seed,
// Engine.PartitionProfiled, server.MarshalResult). For an inline request
// that is the benchmark-path response for the same seed and knobs. memo
// selects the process-wide profile memo; without it the profile is built
// afresh, so inline checks never grow the memo.
func recompute(ctx context.Context, rq *request, memo bool) ([]byte, error) {
	opts, err := resolve(&rq.req)
	if err != nil {
		return nil, err
	}
	eng, err := hybridpart.NewEngine(hybridpart.WithOptions(opts))
	if err != nil {
		return nil, err
	}
	profile := hybridpart.ProfileBenchmark
	if memo {
		profile = hybridpart.ProfileBenchmarkCached
	}
	app, prof, err := profile(rq.bench, rq.seed)
	if err != nil {
		return nil, err
	}
	res, err := eng.PartitionProfiled(ctx, app, prof)
	if err != nil {
		return nil, err
	}
	return server.MarshalResult(res)
}

// checkRecomputed compares a service response with the in-process result.
func checkRecomputed(ctx context.Context, rq *request, body []byte) error {
	want, err := recompute(ctx, rq, !rq.inline())
	if err != nil {
		return fmt.Errorf("recompute: %w", err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s seed %d: response differs from the in-process result", rq.bench, rq.seed)
	}
	return nil
}
