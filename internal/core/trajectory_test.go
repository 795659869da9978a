package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"accals/internal/blif"
	"accals/internal/circuits"
	"accals/internal/errmetric"
)

// updateTrajectories rewrites the golden trajectory corpus from the
// current implementation:
//
//	go test -run TestTrajectoryGolden ./internal/core/ -update
var updateTrajectories = flag.Bool("update", false, "rewrite testdata/trajectories from the current run loop")

//go:embed testdata/trajectories/*.json
var trajectoryCorpus embed.FS

// trajectoryCell is one golden corpus file: a run configuration, the
// worker counts it is replayed at, and the pinned trajectory every one
// of those runs must reproduce exactly. Method is "seals" for the
// single-selection baseline and empty for AccALS.
type trajectoryCell struct {
	Method   string     `json:"method,omitempty"`
	Circuit  string     `json:"circuit"`
	Metric   string     `json:"metric"`
	Bound    float64    `json:"bound"`
	Patterns int        `json:"patterns"`
	Seed     int64      `json:"seed"`
	LE       float64    `json:"le,omitempty"`
	LD       float64    `json:"ld,omitempty"`
	Workers  []int      `json:"workers"`
	Want     trajectory `json:"want"`
}

// trajectory is the pinned outcome of one run: every round's decision
// record, the stop reason and the final circuit's BLIF digest.
type trajectory struct {
	Rounds     []trajectoryRound `json:"rounds"`
	StopReason string            `json:"stop_reason"`
	FinalSHA   string            `json:"final_blif_sha256"`
}

type trajectoryRound struct {
	NumAnds       int    `json:"num_ands"`
	Candidates    int    `json:"candidates"`
	TopSize       int    `json:"top_size"`
	ConflictEdges int    `json:"conflict_edges"`
	SolSize       int    `json:"sol_size"`
	MISSize       int    `json:"mis_size"`
	AppliedLACs   int    `json:"applied_lacs"`
	Reverted      bool   `json:"reverted"`
	GuardSingle   bool   `json:"guard_single"`
	PickedIndp    bool   `json:"picked_indp"`
	HasDuel       bool   `json:"has_duel"`
	ErrorBits     uint64 `json:"error_bits"`
	CertRan       bool   `json:"cert_ran"`
	Certified     bool   `json:"certified"`
}

// loadTrajectoryCorpus decodes every embedded corpus file, returning
// the cell names (file names without extension) alongside the cells.
func loadTrajectoryCorpus(t *testing.T) ([]string, []trajectoryCell) {
	t.Helper()
	files, err := trajectoryCorpus.ReadDir("testdata/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty trajectory corpus")
	}
	var names []string
	var cells []trajectoryCell
	for _, f := range files {
		raw, err := trajectoryCorpus.ReadFile(path.Join("testdata/trajectories", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var c trajectoryCell
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		names = append(names, strings.TrimSuffix(f.Name(), ".json"))
		cells = append(cells, c)
	}
	return names, cells
}

// runCell runs one corpus configuration at a worker count and records
// its trajectory.
func runCell(t *testing.T, c trajectoryCell, workers int) trajectory {
	t.Helper()
	g, err := circuits.ByName(c.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	metric, err := errmetric.Parse(c.Metric)
	if err != nil {
		t.Fatal(err)
	}
	f := accalsFlow
	if c.Method == "seals" {
		f = sealsFlow
	}
	res := runMetric(context.Background(), f, g, metric, c.Bound, Options{
		NumPatterns: c.Patterns,
		Workers:     workers,
		Params:      Params{Seed: c.Seed, LE: c.LE, LD: c.LD},
	})
	var buf bytes.Buffer
	if err := blif.Write(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	tr := trajectory{StopReason: res.StopReason.String(), FinalSHA: hex.EncodeToString(sum[:])}
	for _, rs := range res.Rounds {
		tr.Rounds = append(tr.Rounds, trajectoryRound{
			NumAnds:       rs.NumAnds,
			Candidates:    rs.Candidates,
			TopSize:       rs.TopSize,
			ConflictEdges: rs.ConflictEdges,
			SolSize:       rs.SolSize,
			MISSize:       rs.MISSize,
			AppliedLACs:   rs.AppliedLACs,
			Reverted:      rs.Reverted,
			GuardSingle:   rs.GuardSingle,
			PickedIndp:    rs.PickedIndp,
			HasDuel:       rs.HasDuel,
			ErrorBits:     math.Float64bits(rs.Error),
			CertRan:       rs.CertRan,
			Certified:     rs.Certified,
		})
	}
	return tr
}

// diffTrajectory reports the first divergence between two trajectories,
// or "" when they are identical.
func diffTrajectory(got, want trajectory) string {
	for i := 0; i < len(got.Rounds) && i < len(want.Rounds); i++ {
		if got.Rounds[i] != want.Rounds[i] {
			return fmt.Sprintf("round %d: got %+v, want %+v", i, got.Rounds[i], want.Rounds[i])
		}
	}
	switch {
	case len(got.Rounds) != len(want.Rounds):
		return fmt.Sprintf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	case got.StopReason != want.StopReason:
		return fmt.Sprintf("stop reason %s, want %s", got.StopReason, want.StopReason)
	case got.FinalSHA != want.FinalSHA:
		return fmt.Sprintf("final BLIF sha256 %s, want %s", got.FinalSHA, want.FinalSHA)
	}
	return ""
}

// TestTrajectoryGolden replays every embedded corpus cell at each of its
// worker counts and requires the exact pinned trajectory: per-round
// decisions, bit-exact errors, certification verdicts, stop reason and
// final circuit. Any change to the round loop that moves a single
// decision fails here.
func TestTrajectoryGolden(t *testing.T) {
	names, cells := loadTrajectoryCorpus(t)
	for i, c := range cells {
		if *updateTrajectories {
			c.Want = runCell(t, c, c.Workers[0])
			out, err := json.MarshalIndent(c, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", "trajectories", names[i]+".json"), append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range c.Workers {
			t.Run(fmt.Sprintf("%s/w%d", names[i], w), func(t *testing.T) {
				if d := diffTrajectory(runCell(t, c, w), c.Want); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// TestTrajectoryCorpusCoverage guards the corpus itself: between them
// the cells must exercise every branch of the round loop the golden
// test is meant to pin, every metric but MRED under both flows, and
// MRED under AccALS.
func TestTrajectoryCorpusCoverage(t *testing.T) {
	_, cells := loadTrajectoryCorpus(t)
	var guard, reverted, duel, certified, multi bool
	metrics := map[string]bool{}
	for _, c := range cells {
		metrics[c.Method+strings.ToLower(c.Metric)] = true
		for _, r := range c.Want.Rounds {
			guard = guard || r.GuardSingle
			reverted = reverted || r.Reverted
			certified = certified || (r.CertRan && r.Certified)
			multi = multi || (!r.GuardSingle && c.Method == "")
			duel = duel || r.HasDuel
		}
	}
	for _, method := range []string{"", "seals"} {
		for _, m := range []string{"er", "mhd", "nmed", "maxed"} {
			if !metrics[method+m] {
				t.Errorf("corpus has no %s cell for method %q", m, method)
			}
		}
	}
	if !metrics["mred"] {
		t.Error("corpus has no mred cell for AccALS")
	}
	for name, ok := range map[string]bool{"guard-single": guard, "reverted": reverted, "duel": duel, "certified": certified, "multi-LAC": multi} {
		if !ok {
			t.Errorf("corpus has no %s round", name)
		}
	}
}
