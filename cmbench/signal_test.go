package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crowdmap/internal/obs"
)

// stubMetrics serves a scripted /metrics: each GET returns the current
// snapshot, and advance moves the script forward.
type stubMetrics struct {
	mu   sync.Mutex
	snap obs.Snapshot
}

func (m *stubMetrics) set(f func(c map[string]int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(m.snap.Counters)
}

func (m *stubMetrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = json.NewEncoder(w).Encode(&m.snap)
}

func newStub(t *testing.T) (*stubMetrics, snapshotFunc) {
	t.Helper()
	m := &stubMetrics{snap: obs.Snapshot{
		Counters: map[string]int64{
			"mapserve.publishes":   1,
			"sched.jobs.enqueued":  2,
			"sched.jobs.completed": 2,
			"queue.jobs.processed": 5,
		},
		Gauges: map[string]float64{"sched.workers.busy": 0, "sched.queue.depth": 0},
	}}
	srv := httptest.NewServer(m)
	t.Cleanup(srv.Close)
	return m, func() (obs.Snapshot, error) { return fetchMetrics(srv.Client(), srv.URL) }
}

func TestWaitPublishEndsOnUnchangedPublish(t *testing.T) {
	m, fetch := newStub(t)
	go func() {
		time.Sleep(30 * time.Millisecond)
		m.set(func(c map[string]int64) { c["mapserve.publish.unchanged"]++ })
	}()
	s, _, err := waitPublish(fetch, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := publishCount(s); got != 2 {
		t.Fatalf("publish count %d, want 2", got)
	}
}

func TestWaitPublishIgnoresTrailingNoOpJob(t *testing.T) {
	m, fetch := newStub(t)
	// A no-op "already reconstructed" job: enqueued and completed on the
	// scheduler, more scans, but nothing reaches the read tier.
	m.set(func(c map[string]int64) {
		c["sched.jobs.enqueued"]++
		c["sched.jobs.completed"]++
		c["queue.jobs.processed"] += 3
	})
	if _, _, err := waitPublish(fetch, 1, 150*time.Millisecond); err == nil {
		t.Fatal("a no-op job ended the publish wait")
	}
	m.set(func(c map[string]int64) { c["mapserve.publishes"]++ })
	if _, _, err := waitPublish(fetch, 1, 5*time.Second); err != nil {
		t.Fatalf("a new version did not end the wait: %v", err)
	}
}

func TestWaitIdleNeedsLaterScanAndEmptyScheduler(t *testing.T) {
	m, fetch := newStub(t)
	m.set(func(c map[string]int64) { c["sched.jobs.enqueued"]++ }) // a job is pending
	m.set(func(c map[string]int64) { c["queue.jobs.processed"] += 2 })
	if _, _, err := waitIdle(fetch, 5, 150*time.Millisecond); err == nil {
		t.Fatal("idle reported while a job was pending")
	}
	m.set(func(c map[string]int64) { c["sched.jobs.completed"]++ })
	if _, _, err := waitIdle(fetch, 5, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := waitIdle(fetch, 6, 150*time.Millisecond); err == nil {
		t.Fatal("idle reported before a scan that started after the reference point finished")
	}
}

func TestWaitPublishEndsOnFailedJob(t *testing.T) {
	m, fetch := newStub(t)
	go func() {
		time.Sleep(30 * time.Millisecond)
		m.set(func(c map[string]int64) { c["sched.jobs.failed"]++ })
	}()
	if _, _, err := waitPublish(fetch, 1, 5*time.Second); err == nil || err.Error() != "waiting for publish: a reconstruction job failed" {
		t.Fatalf("failed job: got %v", err)
	}
}
