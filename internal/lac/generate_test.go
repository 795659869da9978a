package lac

import (
	"reflect"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/simulate"
)

func genOn(t *testing.T, g *aig.Graph, cfg Config) []*LAC {
	t.Helper()
	p := simulate.NewPatterns(g.NumPIs(), 512, 1)
	res := simulate.MustRun(g, p)
	return Generate(g, res, cfg)
}

func TestGenerateInvariants(t *testing.T) {
	g := circuits.ArrayMult(4)
	cands := genOn(t, g, Config{EnableResub: true, MinGain: 1})
	if len(cands) == 0 {
		t.Fatal("no candidates on a multiplier")
	}
	for _, l := range cands {
		if !g.IsAnd(l.Target) {
			t.Fatalf("%v: target is not an AND node", l)
		}
		for _, sn := range l.SNs {
			if sn >= l.Target {
				t.Fatalf("%v: SN %d not before target %d", l, sn, l.Target)
			}
			if sn == 0 {
				t.Fatalf("%v: constant node used as SN", l)
			}
		}
		if l.Gain < 1 {
			t.Fatalf("%v: gain below MinGain", l)
		}
		switch l.Fn.Kind {
		case FnConst0, FnConst1:
			if len(l.SNs) != 0 {
				t.Fatalf("%v: const LAC with SNs", l)
			}
		case FnWire:
			if len(l.SNs) != 1 {
				t.Fatalf("%v: wire LAC needs 1 SN", l)
			}
		case FnAnd, FnXor:
			if len(l.SNs) != 2 {
				t.Fatalf("%v: resub LAC needs 2 SNs", l)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := circuits.CLA(8)
	a := genOn(t, g, Config{EnableResub: true})
	b := genOn(t, g, Config{EnableResub: true})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("candidate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenerateRespectsMaxPerTarget(t *testing.T) {
	g := circuits.ArrayMult(4)
	cands := genOn(t, g, Config{EnableResub: true, MaxPerTarget: 2})
	perTarget := map[int]int{}
	for _, l := range cands {
		perTarget[l.Target]++
		if perTarget[l.Target] > 2 {
			t.Fatalf("target %d has more than 2 candidates", l.Target)
		}
	}
}

func TestGenerateAppliesCleanly(t *testing.T) {
	// Every generated candidate must produce a valid circuit with an
	// unchanged interface when applied alone.
	g := circuits.RCA(4)
	cands := genOn(t, g, Config{EnableResub: true})
	for _, l := range cands {
		ng := Apply(g, []*LAC{l})
		if err := ng.Check(); err != nil {
			t.Fatalf("LAC %v broke the graph: %v", l, err)
		}
		if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
			t.Fatalf("LAC %v changed the interface", l)
		}
		if ng.NumAnds() > g.NumAnds() {
			t.Fatalf("LAC %v grew the circuit: %d -> %d ANDs", l, g.NumAnds(), ng.NumAnds())
		}
	}
}

func TestGenerateGainIsConservative(t *testing.T) {
	// The actual node saving must be at least ~the estimated gain for
	// single-LAC application on a tree-ish circuit. Allow slack for
	// strash sharing but never allow growth.
	g := circuits.WallaceMult(4)
	cands := genOn(t, g, Config{EnableResub: true})
	grew := 0
	for _, l := range cands {
		ng := Apply(g, []*LAC{l})
		if ng.NumAnds() > g.NumAnds() {
			grew++
		}
	}
	if grew > 0 {
		t.Fatalf("%d candidates grew the circuit", grew)
	}
}

func TestDefaultConfigScales(t *testing.T) {
	small := DefaultConfig(100)
	large := DefaultConfig(10000)
	if small.MaxDivisors <= large.MaxDivisors && small.MaxPerTarget <= large.MaxPerTarget {
		t.Fatal("large circuits should get tighter budgets")
	}
	if small.EnableResub || large.EnableResub {
		t.Fatal("resub is opt-in (see Config.EnableResub)")
	}
}

func TestConstCandidatesAlwaysPresent(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "y")
	cands := genOn(t, g, Config{})
	hasConst := false
	for _, l := range cands {
		if l.Fn.Kind == FnConst0 || l.Fn.Kind == FnConst1 {
			hasConst = true
		}
	}
	if !hasConst {
		t.Fatal("constant LACs missing")
	}
}

func TestIsNoopDetectsSelfRebuild(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	// Xor returns a complemented literal: the underlying node computes
	// XNOR(a, b). Rebuilding that node's value needs FnXor+OutC.
	ab := g.Xor(a, b)
	g.AddPO(ab, "s")
	target := ab.Node()

	noop := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnXor, OutC: true}, Gain: 1}
	if !isNoop(g, noop) {
		t.Fatal("XNOR self-rebuild not detected as a no-op")
	}
	// The uncomplemented variant resolves to !target: a different
	// literal (and it would never have zero deviation anyway).
	inv := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnXor}, Gain: 1}
	if isNoop(g, inv) {
		t.Fatal("complement-valued rebuild wrongly flagged")
	}
	// A genuinely different function is not a no-op.
	and := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnAnd}, Gain: 1}
	if isNoop(g, and) {
		t.Fatal("AND flagged as no-op of an XNOR node")
	}
	// A plain AND self-rebuild is also caught.
	g2 := aig.New("t2")
	c := g2.AddPI("c")
	d := g2.AddPI("d")
	e := g2.AddPI("e")
	inner := g2.And(c, d)
	outer := g2.And(inner, e)
	g2.AddPO(outer, "y")
	noop2 := &LAC{Target: outer.Node(), SNs: []int{inner.Node(), e.Node()}, Fn: Fn{Kind: FnAnd}, Gain: 1}
	if !isNoop(g2, noop2) {
		t.Fatal("AND self-rebuild not detected")
	}
}

func TestGenerateSkipsNoopResubs(t *testing.T) {
	// On a multiplier with resub enabled, no generated candidate may
	// be a structural self-rebuild.
	g := circuits.ArrayMult(4)
	p := simulate.NewPatterns(g.NumPIs(), 512, 1)
	res := simulate.MustRun(g, p)
	cands := Generate(g, res, Config{EnableResub: true, EnableResub3: true})
	for _, l := range cands {
		switch l.Fn.Kind {
		case FnAnd, FnXor, FnMux, FnMaj:
			if isNoop(g, l) {
				t.Fatalf("no-op candidate generated: %v", l)
			}
		}
	}
}

func TestGenerateTripleCandidatesValid(t *testing.T) {
	// Ternary resubstitution needs targets with MFFC > muxCost, which
	// well-shared circuits rarely have; scan a few benchmarks until
	// some are found.
	found := false
	for _, name := range []string{"mtp8", "c3540", "alu2"} {
		g, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := simulate.NewPatterns(g.NumPIs(), 512, 1)
		res := simulate.MustRun(g, p)
		cands := Generate(g, res, Config{EnableResub: true, EnableResub3: true, MaxPerTarget: 12})
		for _, l := range cands {
			if l.Fn.Kind != FnMux && l.Fn.Kind != FnMaj {
				continue
			}
			found = true
			if len(l.SNs) != 3 {
				t.Fatalf("ternary LAC with %d SNs", len(l.SNs))
			}
			ng := Apply(g, []*LAC{l})
			if err := ng.Check(); err != nil {
				t.Fatalf("LAC %v broke graph: %v", l, err)
			}
			if ng.NumAnds() > g.NumAnds() {
				t.Fatalf("LAC %v grew the circuit", l)
			}
		}
	}
	if !found {
		t.Fatal("no ternary candidates generated with EnableResub3 on any benchmark")
	}
}

// TestGlobalWiresSentinel is the regression test for the zero
// sentinel: Config.GlobalWires == 0 has always meant "use the
// default quota", so zero must keep meaning that, and disabling the
// feature needs the explicit GlobalWiresOff sentinel (any negative
// value, normalised to the canonical 0 internally).
func TestGlobalWiresSentinel(t *testing.T) {
	def := DefaultConfig(100)
	if def.GlobalWires <= 0 {
		t.Fatalf("default GlobalWires = %d; the zero-means-default contract needs a positive default", def.GlobalWires)
	}
	if got := resolve(Config{GlobalWires: 0}, 100).GlobalWires; got != def.GlobalWires {
		t.Fatalf("GlobalWires 0 resolved to %d, want default %d", got, def.GlobalWires)
	}
	if got := resolve(Config{GlobalWires: GlobalWiresOff}, 100).GlobalWires; got != 0 {
		t.Fatalf("GlobalWiresOff resolved to %d, want 0", got)
	}
	if got := resolve(Config{GlobalWires: -5}, 100).GlobalWires; got != 0 {
		t.Fatalf("GlobalWires -5 resolved to %d, want 0 (all negatives are one sentinel)", got)
	}
	// All negatives are the same request: the canonicalised configs —
	// and hence the generated candidates — must be identical.
	g := circuits.RandomLogic("gw", 8, 4, 90, 11)
	res := simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), 256, 5))
	off1 := Generate(g, res, Config{GlobalWires: GlobalWiresOff})
	off2 := Generate(g, res, Config{GlobalWires: -5})
	sameLACs(t, "GlobalWiresOff vs -5", off1, off2)
	// Off really suppresses the global matcher: every wire SN must be
	// reachable inside the target's divisor window, which the bounded
	// window cap makes distinguishable from global matching on a large
	// enough circuit. Cheap proxy: off generates no more candidates
	// than default, and resolve differs.
	on := Generate(g, res, Config{})
	if len(off1) > len(on) {
		t.Fatalf("disabled global wires produced more candidates (%d) than default (%d)", len(off1), len(on))
	}
}

// sameLACs asserts two candidate lists are field-for-field identical.
func sameLACs(t *testing.T, label string, got, want []*LAC) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("%s: candidate %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestGenerateWorkerInvariance: the sharded generator must produce the
// same candidates in the same order at every worker count.
func TestGenerateWorkerInvariance(t *testing.T) {
	g := circuits.RandomLogic("wk", 9, 5, 150, 3)
	res := simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), 512, 7))
	for _, cfg := range []Config{{}, {EnableResub: true}, {EnableResub: true, EnableResub3: true}} {
		want := Generate(g, res, withWorkers(cfg, 1))
		for _, w := range []int{2, 3, 7} {
			got := Generate(g, res, withWorkers(cfg, w))
			sameLACs(t, "workers", got, want)
		}
	}
}

func withWorkers(cfg Config, w int) Config {
	cfg.Workers = w
	return cfg
}
