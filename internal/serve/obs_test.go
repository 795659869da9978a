package serve

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"accals/internal/core"
	"accals/internal/faultinject"
	"accals/internal/ledger"
	"accals/internal/obs"
)

// scrapeRegistry renders the registry as Prometheus text, the same
// bytes /metrics would serve.
func scrapeRegistry(t testing.TB, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// metricValue extracts one exact series line ("name{labels} value")
// from a Prometheus text scrape.
func metricValue(t testing.TB, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not exported:\n%s", series, text)
	return 0
}

// sumCounters totals every counter series of one family whose label
// set contains all the given substrings (e.g. `event="done"`).
func sumCounters(snap map[string]float64, family string, labelSubs ...string) float64 {
	total := 0.0
	for key, v := range snap {
		rest, ok := strings.CutPrefix(key, family)
		if !ok || (rest != "" && !strings.HasPrefix(rest, "{")) {
			continue
		}
		matched := true
		for _, sub := range labelSubs {
			if !strings.Contains(rest, sub) {
				matched = false
				break
			}
		}
		if matched {
			total += v
		}
	}
	return total
}

// assertMetricsConservation checks the counter invariants that hold
// whenever the manager is quiescent (no submission or terminal
// transition in flight):
//
//	admissions (submitted + recovered) == terminals (done + failed +
//	    cancelled) + live queued + live running
//	SSE drops <= SSE subscriptions
//
// Both sides count this manager lifetime only: terminal history
// replayed from the journal increments neither.
func assertMetricsConservation(t testing.TB, m *Manager) {
	t.Helper()
	reg := m.Metrics()
	if reg == nil {
		t.Fatal("manager has no metrics registry")
	}
	snap := reg.CounterSnapshot()
	admitted := sumCounters(snap, "accalsd_jobs_total", `event="submitted"`) +
		sumCounters(snap, "accalsd_jobs_total", `event="recovered"`)
	terminal := sumCounters(snap, "accalsd_jobs_total", `event="done"`) +
		sumCounters(snap, "accalsd_jobs_total", `event="failed"`) +
		sumCounters(snap, "accalsd_jobs_total", `event="cancelled"`)
	st := m.Stats()
	if live := float64(st.Queued + st.Running); admitted != terminal+live {
		t.Errorf("conservation violated: %v admitted != %v terminal + %v live",
			admitted, terminal, live)
	}
	drops := sumCounters(snap, "accalsd_sse_dropped_total")
	subs := sumCounters(snap, "accalsd_sse_subscribed_total")
	if drops > subs {
		t.Errorf("conservation violated: %v SSE drops > %v subscriptions", drops, subs)
	}
}

// untarAll decodes a tar.gz stream into filename -> contents.
func untarAll(t *testing.T, r io.Reader) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(r)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	files := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("bundle entry %s: %v", hdr.Name, err)
		}
		files[hdr.Name] = body
	}
	if err := gz.Close(); err != nil {
		t.Fatalf("bundle gzip trailer: %v", err)
	}
	return files
}

// waitBundleJobFile waits for the terminal job.json to land in the
// job's bundle directory: finishJob writes it after the terminal state
// becomes visible, so a poll right after waitTerminal can race it.
func waitBundleJobFile(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, "jobs", id, "bundle", BundleJobFile)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bundle job.json never appeared at %s", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBundleLifecycleAndDownload(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, Metrics: reg, Bundles: true})
	defer closeManager(t, m)

	j, err := m.Submit(smallSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, j.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job ended %s (failure %q)", fin.State, fin.Failure)
	}
	waitBundleJobFile(t, dir, j.ID)

	var buf bytes.Buffer
	if err := m.WriteBundle(j.ID, &buf); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	raw := buf.Bytes()
	files := untarAll(t, bytes.NewReader(raw))
	for _, want := range []string{
		ledger.LedgerFile, ledger.ManifestFile, ledger.SummaryFile,
		ledger.TraceFile, BundleJobFile,
	} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle misses %s (got %d entries)", want, len(files))
		}
	}

	// The ledger inside the archive must decode to a complete
	// trajectory of the job's run.
	events, err := ledger.Decode(bytes.NewReader(files[ledger.LedgerFile]))
	if err != nil {
		t.Fatalf("bundle ledger: %v", err)
	}
	traj, err := ledger.Analyze(events)
	if err != nil {
		t.Fatalf("bundle ledger analyse: %v", err)
	}
	if len(traj.Rounds) == 0 {
		t.Error("bundle ledger has no rounds")
	}
	if traj.Finish == nil {
		t.Error("bundle ledger has no finish event for a done job")
	}
	if traj.Meta.Circuit != j.Spec.Circuit {
		t.Errorf("ledger circuit %q, spec %q", traj.Meta.Circuit, j.Spec.Circuit)
	}

	var man ledger.Manifest
	if err := json.Unmarshal(files[ledger.ManifestFile], &man); err != nil {
		t.Fatalf("bundle manifest: %v", err)
	}
	if man.Circuit != j.Spec.Circuit || man.Resumed {
		t.Errorf("manifest circuit %q resumed %v; want %q, fresh",
			man.Circuit, man.Resumed, j.Spec.Circuit)
	}

	var jb Job
	if err := json.Unmarshal(files[BundleJobFile], &jb); err != nil {
		t.Fatalf("bundle job.json: %v", err)
	}
	if jb.ID != j.ID || jb.State != StateDone || jb.Spec.Tenant != "acme" {
		t.Errorf("job.json snapshot wrong: %+v", jb)
	}
	if jb.SubmittedAt.IsZero() || jb.FinishedAt.IsZero() {
		t.Error("job.json misses admission/terminal timestamps")
	}

	// A second download must be byte-identical: the bundle of a
	// terminal job is a settled artifact.
	var buf2 bytes.Buffer
	if err := m.WriteBundle(j.ID, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Error("two downloads of a terminal bundle differ")
	}

	if err := m.WriteBundle("j-999999", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job bundle: %v, want ErrNotFound", err)
	}
}

// TestBundleManifestRecordsDefaultPatterns: a spec that leaves the
// pattern budget unset runs with core.DefaultPatterns, and the
// manifest must record that budget, not the spec's zero.
func TestBundleManifestRecordsDefaultPatterns(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, Bundles: true})
	defer closeManager(t, m)
	spec := smallSpec("a")
	spec.Patterns = 0
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, j.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job ended %s (failure %q)", fin.State, fin.Failure)
	}
	man, err := ledger.ReadManifest(filepath.Join(dir, "jobs", j.ID, "bundle", ledger.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if man.Patterns != core.DefaultPatterns {
		t.Errorf("manifest records %d patterns, the run used %d", man.Patterns, core.DefaultPatterns)
	}
}

func TestBundleDisabledReportsNotReady(t *testing.T) {
	m := openManager(t, Config{MaxRunning: 1})
	defer closeManager(t, m)
	j, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID, 30*time.Second)
	if err := m.WriteBundle(j.ID, io.Discard); !errors.Is(err, ErrNotReady) {
		t.Errorf("bundle with bundling disabled: %v, want ErrNotReady", err)
	}
}

// TestBundleResumeNoDuplicateRounds drains a bundled job mid-run and
// recovers it: the resumed segment must truncate the ledger back to
// its snapshot offset, so the final bundle holds each round exactly
// once and its manifest carries the resume marker.
func TestBundleResumeNoDuplicateRounds(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1)
	// Slow rounds so the drain catches the job mid-run.
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: 30 * time.Millisecond})
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, CheckpointEvery: 1, Inj: inj, Bundles: true})

	spec := smallSpec("a")
	spec.MaxRounds = 8
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, err := m.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if g.Round >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeManager(t, m)

	m2 := openManager(t, Config{Dir: dir, MaxRunning: 1, CheckpointEvery: 1, Bundles: true})
	defer closeManager(t, m2)
	fin := waitTerminal(t, m2, j.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("recovered job: %s (failure %q)", fin.State, fin.Failure)
	}
	res, err := m2.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Skip("drain did not interrupt the run mid-flight; nothing to verify")
	}
	waitBundleJobFile(t, dir, j.ID)

	var buf bytes.Buffer
	if err := m2.WriteBundle(j.ID, &buf); err != nil {
		t.Fatal(err)
	}
	files := untarAll(t, &buf)
	events, err := ledger.Decode(bytes.NewReader(files[ledger.LedgerFile]))
	if err != nil {
		t.Fatalf("bundle ledger: %v", err)
	}
	traj, err := ledger.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Resumes == 0 {
		t.Error("resumed run's ledger records no resume meta")
	}
	seen := make(map[int]bool)
	last := 0
	for _, r := range traj.Rounds {
		if seen[r.Round] {
			t.Errorf("round %d recorded twice across the resume boundary", r.Round)
		}
		seen[r.Round] = true
		if r.Round <= last && last != 0 {
			t.Errorf("rounds not increasing: %d after %d", r.Round, last)
		}
		last = r.Round
	}
	if traj.Finish == nil {
		t.Error("resumed bundle has no finish event")
	}
	var man ledger.Manifest
	if err := json.Unmarshal(files[ledger.ManifestFile], &man); err != nil {
		t.Fatal(err)
	}
	if !man.Resumed {
		t.Error("manifest of the resumed segment not marked Resumed")
	}
}

// TestSSEDroppedEventAndMetrics drives the fanout directly: a
// subscriber that stops draining must receive a final synthetic
// EventDropped in the reserved buffer slot, have its channel closed,
// and show up in the drop counter — while fast subscribers and the
// run itself are unaffected.
func TestSSEDroppedEventAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := newMetrics(reg)
	j := &job{met: met, info: Job{ID: "j-000000", State: StateRunning}}
	sub := &subscriber{ch: make(chan Event, 4)}
	j.mu.Lock()
	j.subs = append(j.subs, sub)
	j.mu.Unlock()
	met.subscribed(true)

	// Capacity 4 with one slot reserved for the drop marker: three
	// events fit, the fourth publish forces the drop.
	published := 10
	for i := 0; i < published; i++ {
		j.publish(Event{Type: EventRound, Round: &obs.RoundEvent{Round: i + 1}}, false)
	}

	var got []Event
	for ev := range sub.ch { // must terminate: the drop closed the channel
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("slow subscriber got %d events, want 3 + dropped marker", len(got))
	}
	for i, ev := range got[:3] {
		if ev.Type != EventRound || ev.Round.Round != i+1 {
			t.Errorf("event %d: %+v, want round %d", i, ev, i+1)
		}
	}
	if got[3].Type != EventDropped {
		t.Errorf("final event %q, want %q", got[3].Type, EventDropped)
	}
	j.mu.Lock()
	nsubs := len(j.subs)
	j.mu.Unlock()
	if nsubs != 0 {
		t.Errorf("dropped subscriber still attached (%d subs)", nsubs)
	}

	text := scrapeRegistry(t, reg)
	if v := metricValue(t, text, "accalsd_sse_dropped_total"); v != 1 {
		t.Errorf("sse_dropped_total %v, want 1", v)
	}
	if v := metricValue(t, text, "accalsd_sse_subscribed_total"); v != 1 {
		t.Errorf("sse_subscribed_total %v, want 1", v)
	}
	if v := metricValue(t, text, "accalsd_sse_subscribers"); v != 0 {
		t.Errorf("sse_subscribers gauge %v after drop, want 0", v)
	}
	if v := metricValue(t, text, "accalsd_sse_events_total"); v != float64(published) {
		t.Errorf("sse_events_total %v, want %d", v, published)
	}
}

// TestMetricsLifecycleAndConservation runs a small mixed fleet (done,
// cancelled, rejected) against an instrumented manager and checks the
// exported series tell the same story as the job states — including
// the conservation law the chaos harness re-checks at scale.
func TestMetricsLifecycleAndConservation(t *testing.T) {
	reg := obs.NewRegistry()
	m := openManager(t, Config{MaxRunning: 1, Metrics: reg})
	defer closeManager(t, m)

	// A bad spec is rejected before admission.
	if _, err := m.Submit(JobSpec{Circuit: "alu2"}); err == nil {
		t.Fatal("empty metric accepted")
	}

	var ids []string
	for i := 0; i < 3; i++ {
		spec := smallSpec("acme")
		spec.Seed = int64(10 + i)
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Cancel the last submission; with MaxRunning=1 it is still queued.
	if _, err := m.Cancel(ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitTerminal(t, m, id, 60*time.Second)
	}

	snap := reg.CounterSnapshot()
	if v := sumCounters(snap, "accalsd_jobs_total", `tenant="acme"`, `event="submitted"`); v != 3 {
		t.Errorf("submitted{acme} = %v, want 3", v)
	}
	if v := sumCounters(snap, "accalsd_jobs_total", `event="done"`); v < 2 {
		t.Errorf("done = %v, want >= 2", v)
	}
	if v := sumCounters(snap, "accalsd_jobs_total", `event="cancelled"`); v != 1 {
		t.Errorf("cancelled = %v, want 1", v)
	}
	if v := sumCounters(snap, "accalsd_admission_rejections_total", `reason="bad_spec"`); v != 1 {
		t.Errorf("rejections{bad_spec} = %v, want 1", v)
	}
	assertMetricsConservation(t, m)

	text := scrapeRegistry(t, reg)
	if v := metricValue(t, text, "accalsd_queue_depth"); v != 0 {
		t.Errorf("queue_depth %v after quiesce, want 0", v)
	}
	if v := metricValue(t, text, "accalsd_jobs_running"); v != 0 {
		t.Errorf("jobs_running %v after quiesce, want 0", v)
	}
	// Two jobs ran; both their dispatch latency and their runtime must
	// have been observed, and every journal append timed.
	if v := metricValue(t, text, `accalsd_run_duration_seconds_count`); v < 2 {
		t.Errorf("run_duration count %v, want >= 2", v)
	}
	if v := metricValue(t, text, `accalsd_queue_wait_seconds_count`); v < 2 {
		t.Errorf("queue_wait count %v, want >= 2", v)
	}
	if v := metricValue(t, text, `accalsd_journal_append_seconds_count`); v == 0 {
		t.Error("journal appends were not timed")
	}

	st := m.StatusInfo()
	if st.GoVersion == "" || st.Dir == "" || st.StartedAt.IsZero() {
		t.Errorf("StatusInfo incomplete: %+v", st)
	}
	if st.Stats.Total != 3 {
		t.Errorf("status census total %d, want 3", st.Stats.Total)
	}
}

// TestMetricsMatchDocumentedTable pins the metric-name contract: the
// set of families a fresh instrumented manager exports must equal the
// set the README's accalsd observability table documents. Adding a
// series without documenting it (or documenting a renamed one) fails
// here.
func TestMetricsMatchDocumentedTable(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile("`(accalsd_[a-z_]+)`")
	documented := make(map[string]bool)
	for _, match := range nameRe.FindAllStringSubmatch(string(body), -1) {
		documented[match[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("README documents no accalsd_* metric families")
	}

	reg := obs.NewRegistry()
	newMetrics(reg)
	famRe := regexp.MustCompile(`(?m)^# TYPE (accalsd_[a-z_]+) `)
	exported := make(map[string]bool)
	for _, match := range famRe.FindAllStringSubmatch(scrapeRegistry(t, reg), -1) {
		exported[match[1]] = true
	}

	for name := range exported {
		if !documented[name] {
			t.Errorf("exported family %s is missing from the README metrics table", name)
		}
	}
	for name := range documented {
		if !exported[name] {
			t.Errorf("README documents %s but a fresh daemon does not export it", name)
		}
	}
}

// benchManagerJobs drives b.N tiny jobs through a manager; the ObsOff
// variant is the baseline the ObsOn variant must stay at parity with
// (the zero-cost-when-disabled contract covers the serve path too).
func benchManagerJobs(b *testing.B, reg *obs.Registry) {
	m, err := Open(Config{
		Dir:        b.TempDir(),
		MaxRunning: 2,
		MaxQueue:   b.N + 16,
		Metrics:    reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := smallSpec("bench")
	spec.Patterns = 128
	spec.MaxRounds = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		if _, err := m.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Minute)
	for {
		st := m.Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("fleet did not converge: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkManagerJobsObsOff(b *testing.B) { benchManagerJobs(b, nil) }
func BenchmarkManagerJobsObsOn(b *testing.B)  { benchManagerJobs(b, obs.NewRegistry()) }
