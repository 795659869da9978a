package core

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"accals/internal/aiger"
	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/dispatch"
	"accals/internal/errmetric"
	"accals/internal/runctl"
)

// runTrajectory runs the flow at a worker count and returns the final
// circuit's serialized bytes plus every round's measured error.
func runTrajectory(t *testing.T, metric errmetric.Kind, workers int) ([]byte, []float64, *Result) {
	t.Helper()
	g := circuits.ArrayMult(4)
	opt := Options{
		NumPatterns: 1024,
		Workers:     workers,
		Params:      Params{Seed: 7, MaxRounds: 30},
	}
	res := Run(g, metric, 0.03, opt)
	var buf bytes.Buffer
	if err := aiger.WriteASCII(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		errs[i] = r.Error
	}
	return buf.Bytes(), errs, res
}

// compareTrajectories asserts bit-identity of two runs: same circuit
// bytes, same per-round errors, same final error and stop reason.
func compareTrajectories(t *testing.T, label string, wantBytes []byte, wantErrs []float64, wantRes *Result, gotBytes []byte, gotErrs []float64, gotRes *Result) {
	t.Helper()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("%s: final circuit differs", label)
	}
	if len(gotErrs) != len(wantErrs) {
		t.Fatalf("%s: %d rounds vs %d", label, len(gotErrs), len(wantErrs))
	}
	for i := range wantErrs {
		if gotErrs[i] != wantErrs[i] {
			t.Fatalf("%s round %d: error %g, want %g (must be bit-identical)", label, i, gotErrs[i], wantErrs[i])
		}
	}
	if gotRes.Error != wantRes.Error || gotRes.StopReason != wantRes.StopReason {
		t.Fatalf("%s: result (%g, %v) vs (%g, %v)", label,
			gotRes.Error, gotRes.StopReason, wantRes.Error, wantRes.StopReason)
	}
}

// TestWorkersBitIdentical asserts the tentpole determinism contract:
// a run with Workers: N produces a bit-identical output circuit and
// identical per-round measured errors to Workers: 1, across metric
// families (bit-level ER, hamming MHD, word-level NMED).
func TestWorkersBitIdentical(t *testing.T) {
	for _, metric := range []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED} {
		wantBytes, wantErrs, wantRes := runTrajectory(t, metric, 1)
		if len(wantErrs) < 3 {
			t.Fatalf("%v: only %d rounds ran; trajectory too short to be meaningful", metric, len(wantErrs))
		}
		for _, workers := range []int{2, 4, 8} {
			gotBytes, gotErrs, gotRes := runTrajectory(t, metric, workers)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%v: final circuit differs between Workers=1 and Workers=%d", metric, workers)
			}
			if len(gotErrs) != len(wantErrs) {
				t.Fatalf("%v Workers=%d: %d rounds vs %d", metric, workers, len(gotErrs), len(wantErrs))
			}
			for i := range wantErrs {
				if gotErrs[i] != wantErrs[i] {
					t.Fatalf("%v Workers=%d round %d: error %g, want %g (must be bit-identical)",
						metric, workers, i, gotErrs[i], wantErrs[i])
				}
			}
			if gotRes.Error != wantRes.Error || gotRes.StopReason != wantRes.StopReason {
				t.Fatalf("%v Workers=%d: result (%g, %v) vs (%g, %v)", metric, workers,
					gotRes.Error, gotRes.StopReason, wantRes.Error, wantRes.StopReason)
			}
		}
	}
}

// TestWorkersBitIdenticalExactMode covers the exact-estimate ablation
// path, which shards across candidates instead of outputs.
func TestWorkersBitIdenticalExactMode(t *testing.T) {
	run := func(workers int) *Result {
		g := circuits.CLA(6)
		return Run(g, errmetric.ER, 0.05, Options{
			NumPatterns:    512,
			Workers:        workers,
			ExactEstimates: true,
			Params:         Params{Seed: 3, MaxRounds: 12},
		})
	}
	want := run(1)
	got := run(4)
	var wb, gb bytes.Buffer
	if err := aiger.WriteASCII(&wb, want.Final); err != nil {
		t.Fatal(err)
	}
	if err := aiger.WriteASCII(&gb, got.Final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) || got.Error != want.Error {
		t.Fatal("exact-mode trajectories diverge between Workers=1 and Workers=4")
	}
}

// TestParallelCancellation drives the parallel engine (including the
// prefetch goroutine) into cancellation and deadline stops; run under
// -race this exercises the pool's happens-before edges. The result
// must be a valid best-so-far circuit with the matching stop reason.
func TestParallelCancellation(t *testing.T) {
	g := circuits.ArrayMult(5)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res := RunCtx(ctx, g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Params:      Params{Seed: 1},
		Progress: func(RoundStats) {
			rounds++
			if rounds == 3 {
				cancel()
			}
		},
	})
	if res.StopReason != runctl.Cancelled {
		t.Fatalf("stop reason %v, want Cancelled", res.StopReason)
	}
	if res.Final == nil || res.Error > 0.4 {
		t.Fatalf("cancelled run returned invalid best-so-far: err=%g", res.Error)
	}

	// Deadline that expires mid-run (likely mid-shard on slow hosts).
	res = Run(g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Params:      Params{Seed: 1},
		MaxRuntime:  5 * time.Millisecond,
	})
	if res.StopReason != runctl.DeadlineExceeded && res.StopReason != runctl.Bounded && res.StopReason != runctl.Stagnated {
		t.Fatalf("deadline run stopped with %v", res.StopReason)
	}
	if res.Final == nil {
		t.Fatal("deadline run returned no circuit")
	}
}

// TestCheckpointResumeWorkers4 covers the checkpoint x parallel
// interaction: a run checkpointed mid-flight and resumed at Workers 4
// (over a BLIF-renumbered graph) must land on the byte-identical final
// circuit and replay the uninterrupted run's tail exactly.
func TestCheckpointResumeWorkers4(t *testing.T) {
	g := circuits.ArrayMult(5)
	const bound = 0.4
	opts := func() Options {
		return Options{
			NumPatterns: 2048,
			Workers:     4,
			Params:      Params{Seed: 7, MaxRounds: 30},
		}
	}

	// Uninterrupted reference run.
	want := Run(g, errmetric.ER, bound, opts())
	if len(want.Rounds) < 6 {
		t.Fatalf("reference run too short (%d rounds) to interrupt meaningfully", len(want.Rounds))
	}

	// Interrupted run: checkpoint every round, cancel after round 3.
	dir := t.TempDir()
	w, err := checkpoint.NewWriter(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opt := opts()
	opt.Progress = func(rs RoundStats) {
		snap := &checkpoint.Snapshot{Round: rs.Round, Error: rs.Error, Seed: 7, HasSeed: true}
		if err := snap.SetGraph(rs.Graph); err != nil {
			t.Error(err)
			return
		}
		if err := w.Save(snap); err != nil {
			t.Error(err)
			return
		}
		if rs.Round == 3 {
			cancel()
		}
	}
	interrupted := RunCtx(ctx, g, errmetric.ER, bound, opt)
	if interrupted.StopReason != runctl.Cancelled {
		t.Fatalf("interrupted run stopped with %v, want Cancelled", interrupted.StopReason)
	}

	// Resume from the latest snapshot.
	snap, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ropt := opts()
	ropt.Start = &StartState{Graph: sg, Round: snap.Round + 1}
	got := Run(g, errmetric.ER, bound, ropt)

	var wb, gb bytes.Buffer
	if err := aiger.WriteASCII(&wb, want.Final); err != nil {
		t.Fatal(err)
	}
	if err := aiger.WriteASCII(&gb, got.Final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) || got.Error != want.Error || got.StopReason != want.StopReason {
		t.Fatalf("resumed run diverged: (%g, %v) vs (%g, %v)",
			got.Error, got.StopReason, want.Error, want.StopReason)
	}
	// The resumed rounds must replay the uninterrupted tail exactly.
	tail := want.Rounds[snap.Round+1:]
	if len(got.Rounds) != len(tail) {
		t.Fatalf("resumed run ran %d rounds, want %d", len(got.Rounds), len(tail))
	}
	for i := range tail {
		if got.Rounds[i].Error != tail[i].Error || got.Rounds[i].Round != tail[i].Round {
			t.Fatalf("resumed round %d: (%d, %g) vs (%d, %g)", i,
				got.Rounds[i].Round, got.Rounds[i].Error, tail[i].Round, tail[i].Error)
		}
	}
}

// TestEvaluatorPoolBitIdentical runs a full synthesis with candidate
// estimation farmed to an in-process dispatch server and asserts the
// trajectory is bit-identical to a purely local run.
func TestEvaluatorPoolBitIdentical(t *testing.T) {
	wantBytes, wantErrs, wantRes := runTrajectory(t, errmetric.NMED, 2)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &dispatch.Server{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	defer func() {
		cancel()
		<-done
	}()

	g := circuits.ArrayMult(4)
	opt := Options{
		NumPatterns: 1024,
		Workers:     2,
		Params:      Params{Seed: 7, MaxRounds: 30},
	}
	pool := dispatch.NewPool([]string{ln.Addr().String()}, errmetric.NMED, g, opt.Patterns(g), nil)
	pool.MinBatch = 1
	defer pool.Close()
	opt.Evaluators = pool

	res := Run(g, errmetric.NMED, 0.03, opt)
	var buf bytes.Buffer
	if err := aiger.WriteASCII(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		errs[i] = r.Error
	}
	compareTrajectories(t, "evaluator pool", wantBytes, wantErrs, wantRes, buf.Bytes(), errs, res)
}
