package serve

import (
	"runtime/debug"
	"time"

	"accals/internal/obs"
)

// metrics is the service-level instrumentation of a Manager: job
// lifecycle counters tagged by tenant, queue and admission series, the
// journal's durability latencies, watchdog fires, SSE fanout health,
// and checkpoint cadence. It is a thin layer over an obs.Registry so
// /metrics serves the same Prometheus text format the engine's
// recorder does.
//
// A nil *metrics is valid and free: every method checks the receiver,
// so an unconfigured Manager (Config.Metrics == nil) pays one nil
// check per call — the serve-path analogue of the nil obs.Recorder
// contract.
//
// Metric names are part of the public surface: the "accalsd metrics"
// table in README.md documents every family, and
// TestMetricsMatchDocumentedTable fails when the two drift.
type metrics struct {
	reg *obs.Registry

	queueDepth   *obs.Gauge
	running      *obs.Gauge
	queueWait    *obs.Histogram
	runDuration  *obs.Histogram
	journalAll   *obs.Histogram
	journalFsync *obs.Histogram
	watchdog     *obs.Counter
	sseSubs      *obs.Gauge
	sseSubTotal  *obs.Counter
	sseDropped   *obs.Counter
	sseEvents    *obs.Counter
	ckptSave     *obs.Histogram
}

// Admission rejection reasons (the `reason` label of
// accalsd_admission_rejections_total).
const (
	rejectQueueFull = "queue_full"
	rejectQuota     = "quota"
	rejectDraining  = "draining"
	rejectBadSpec   = "bad_spec"
	rejectDisk      = "disk"
)

// Job lifecycle events (the `event` label of accalsd_jobs_total).
const (
	jobSubmitted = "submitted"
	jobRecovered = "recovered"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// Checkpoint dispositions (the `result` label of
// accalsd_checkpoint_total).
const (
	ckptSaved   = "saved"
	ckptSkipped = "skipped"
	ckptFailed  = "failed"
)

// newMetrics registers the daemon's series on reg (nil reg yields a
// nil, no-op metrics). Every family is touched at construction so a
// fresh daemon's /metrics already exports the complete documented set.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{reg: reg}
	m.queueDepth = reg.Gauge("accalsd_queue_depth",
		"Jobs admitted but not yet running (including submissions whose journal append is in flight).")
	m.running = reg.Gauge("accalsd_jobs_running",
		"Jobs currently executing a synthesis run.")
	m.queueWait = reg.Histogram("accalsd_queue_wait_seconds",
		"Time jobs spent queued between admission (or recovery) and dispatch.", nil)
	m.runDuration = reg.Histogram("accalsd_run_duration_seconds",
		"Wall-clock duration of job execution segments (a recovered job contributes one per segment).", nil)
	for _, reason := range []string{rejectQueueFull, rejectQuota, rejectDraining, rejectBadSpec, rejectDisk} {
		reg.Counter("accalsd_admission_rejections_total",
			"Submissions rejected by admission control, by reason.", obs.L("reason", reason))
	}
	for _, event := range []string{jobSubmitted, jobRecovered, jobDone, jobFailed, jobCancelled} {
		reg.Counter("accalsd_jobs_total",
			"Job lifecycle events by tenant: admissions (submitted/recovered) and terminal outcomes.",
			obs.L("tenant", ""), obs.L("event", event))
	}
	m.journalAll = reg.Histogram("accalsd_journal_append_seconds",
		"Full fsync'd journal append latency (serialisation, write, sync).", nil)
	m.journalFsync = reg.Histogram("accalsd_journal_fsync_seconds",
		"fsync portion of journal appends: the disk's durability latency.", nil)
	m.watchdog = reg.Counter("accalsd_watchdog_fires_total",
		"Running jobs cancelled by the hung-round watchdog.")
	m.sseSubs = reg.Gauge("accalsd_sse_subscribers",
		"Live progress-stream subscribers across all jobs.")
	m.sseSubTotal = reg.Counter("accalsd_sse_subscribed_total",
		"Progress-stream subscriptions accepted (replay-only and live).")
	m.sseDropped = reg.Counter("accalsd_sse_dropped_total",
		"Subscribers dropped for not draining their event channel.")
	m.sseEvents = reg.Counter("accalsd_sse_events_total",
		"Progress events published into the SSE fanout.")
	for _, result := range []string{ckptSaved, ckptSkipped, ckptFailed} {
		reg.Counter("accalsd_checkpoint_total",
			"Per-job checkpoint snapshots by disposition (skipped = adoptable round off the cadence).", obs.L("result", result))
	}
	m.ckptSave = reg.Histogram("accalsd_checkpoint_save_seconds",
		"Checkpoint snapshot write latency (serialise, fsync, rename).", nil)
	return m
}

// setQueue updates the queue-depth and running gauges. Callers hold
// m.mu of the owning Manager, so the reads are consistent.
func (m *metrics) setQueue(depth, running int) {
	if m == nil {
		return
	}
	m.queueDepth.Set(float64(depth))
	m.running.Set(float64(running))
}

// reject counts one admission rejection.
func (m *metrics) reject(reason string) {
	if m == nil {
		return
	}
	m.reg.Counter("accalsd_admission_rejections_total",
		"Submissions rejected by admission control, by reason.", obs.L("reason", reason)).Inc()
}

// jobEvent counts one lifecycle event for the tenant.
func (m *metrics) jobEvent(tenant, event string) {
	if m == nil {
		return
	}
	m.reg.Counter("accalsd_jobs_total",
		"Job lifecycle events by tenant: admissions (submitted/recovered) and terminal outcomes.",
		obs.L("tenant", tenant), obs.L("event", event)).Inc()
}

// terminalEvent maps a terminal state onto its lifecycle event label.
func terminalEvent(s JobState) string {
	switch s {
	case StateDone:
		return jobDone
	case StateCancelled:
		return jobCancelled
	default:
		return jobFailed
	}
}

// observeQueueWait records one dispatch's queue latency.
func (m *metrics) observeQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.queueWait.Observe(d.Seconds())
}

// observeRun records one execution segment's duration.
func (m *metrics) observeRun(d time.Duration) {
	if m == nil {
		return
	}
	m.runDuration.Observe(d.Seconds())
}

// observeJournal records one journal append: the full latency and its
// fsync portion.
func (m *metrics) observeJournal(total, fsync time.Duration) {
	if m == nil {
		return
	}
	m.journalAll.Observe(total.Seconds())
	m.journalFsync.Observe(fsync.Seconds())
}

// watchdogFired counts one watchdog cancellation.
func (m *metrics) watchdogFired() {
	if m == nil {
		return
	}
	m.watchdog.Inc()
}

// subscribed counts one accepted subscription; live ones also raise
// the subscriber gauge until unsubscribed.
func (m *metrics) subscribed(live bool) {
	if m == nil {
		return
	}
	m.sseSubTotal.Inc()
	if live {
		m.sseSubs.Add(1)
	}
}

// unsubscribed lowers the live-subscriber gauge; dropped marks the
// forced variant (a consumer that stopped draining).
func (m *metrics) unsubscribed(dropped bool) {
	if m == nil {
		return
	}
	m.sseSubs.Add(-1)
	if dropped {
		m.sseDropped.Inc()
	}
}

// published counts one event fanned out to subscribers.
func (m *metrics) published() {
	if m == nil {
		return
	}
	m.sseEvents.Inc()
}

// checkpoint records one snapshot disposition; saved snapshots also
// feed the save-latency histogram.
func (m *metrics) checkpoint(result string, d time.Duration) {
	if m == nil {
		return
	}
	m.reg.Counter("accalsd_checkpoint_total",
		"Per-job checkpoint snapshots by disposition (skipped = adoptable round off the cadence).", obs.L("result", result)).Inc()
	if result == ckptSaved {
		m.ckptSave.Observe(d.Seconds())
	}
}

// DaemonStatus is the /status document of a serving daemon: enough
// for an operator's quick health read without scraping Prometheus
// text — uptime, build identity, and the live job census.
type DaemonStatus struct {
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	GitRev        string    `json:"git_rev,omitempty"`
	GitDirty      bool      `json:"git_dirty,omitempty"`
	Dir           string    `json:"dir"`
	Stats         Stats     `json:"stats"`
}

// StatusInfo builds the daemon status snapshot.
func (m *Manager) StatusInfo() DaemonStatus {
	st := DaemonStatus{
		StartedAt: m.start,
		Dir:       m.cfg.Dir,
		Stats:     m.Stats(),
	}
	st.UptimeSeconds = time.Since(m.start).Seconds()
	if info, ok := debug.ReadBuildInfo(); ok {
		st.GoVersion = info.GoVersion
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.GitRev = s.Value
			case "vcs.modified":
				st.GitDirty = s.Value == "true"
			}
		}
	}
	return st
}

// Metrics returns the registry the Manager's service metrics are
// registered on (nil when observability is off).
func (m *Manager) Metrics() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.cfg.Metrics
}
