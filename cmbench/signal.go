package main

import (
	"fmt"
	"time"

	"crowdmap/internal/obs"
)

// The completion signal. A reconstruction run is complete when the read
// tier has handled its result, and every handled result advances exactly
// one of two counters: mapserve.publishes (a new plan version) or
// mapserve.publish.unchanged (an identical plan keeps its version). The
// plan version alone misses unchanged publishes, and
// sched.jobs.completed also counts the no-op "already reconstructed"
// job that trails every real one, so neither is used as the signal.

// publishCount is the completion counter: handled reconstruction results.
func publishCount(s obs.Snapshot) int64 {
	return s.Counters["mapserve.publishes"] + s.Counters["mapserve.publish.unchanged"]
}

// scanCount counts finished jobs of the daemon's scan queue. The scan runs
// on it every -interval; the integrity scrub shares it at startup and
// then only every -scrub-interval (10 min by default).
func scanCount(s obs.Snapshot) int64 {
	return s.Counters["queue.jobs.processed"] + s.Counters["queue.jobs.failed"]
}

// schedIdle reports whether no building job is queued or running.
func schedIdle(s obs.Snapshot) bool {
	c := s.Counters
	return c["sched.jobs.enqueued"] == c["sched.jobs.completed"]+c["sched.jobs.failed"] &&
		s.Gauges["sched.workers.busy"] == 0 && s.Gauges["sched.queue.depth"] == 0
}

// snapshotFunc fetches one /metrics snapshot.
type snapshotFunc func() (obs.Snapshot, error)

// pollInterval is how often the waits below read /metrics.
const pollInterval = 10 * time.Millisecond

// waitUntil polls fetch until done holds for a snapshot, returning that
// snapshot and the time it was read.
func waitUntil(fetch snapshotFunc, timeout time.Duration, what string, done func(obs.Snapshot) bool) (obs.Snapshot, time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		s, err := fetch()
		now := time.Now()
		if err == nil && done(s) {
			return s, now, nil
		}
		if now.After(deadline) {
			if err != nil {
				return s, now, fmt.Errorf("waiting for %s: %w", what, err)
			}
			return s, now, fmt.Errorf("waiting for %s: timed out after %v", what, timeout)
		}
		time.Sleep(pollInterval)
	}
}

// waitPublish blocks until the completion counter exceeds after: the next
// reconstruction result has been published (or found unchanged). A
// building job that fails meanwhile ends the wait with an error, since
// the daemon would only retry the same corpus.
func waitPublish(fetch snapshotFunc, after int64, timeout time.Duration) (obs.Snapshot, time.Time, error) {
	failed := int64(-1)
	var jobErr error
	s, t, err := waitUntil(fetch, timeout, "publish", func(s obs.Snapshot) bool {
		n := s.Counters["sched.jobs.failed"]
		if failed < 0 {
			failed = n
		} else if n > failed {
			jobErr = fmt.Errorf("waiting for publish: a reconstruction job failed")
			return true
		}
		return publishCount(s) > after
	})
	if err == nil {
		err = jobErr
	}
	return s, t, err
}

// waitScan blocks until a scan finishes after the one counted in after:
// the instant just past a scan tick.
func waitScan(fetch snapshotFunc, after int64, timeout time.Duration) (obs.Snapshot, time.Time, error) {
	return waitUntil(fetch, timeout, "scan", func(s obs.Snapshot) bool { return scanCount(s) > after })
}

// waitIdle blocks until a scan that started after the snapshot counted in
// scansAfter has finished and no building job is queued or running. Two
// finished scans guarantee that one of them started after the reference
// point, so the trailing no-op job it enqueues is seen and waited out.
func waitIdle(fetch snapshotFunc, scansAfter int64, timeout time.Duration) (obs.Snapshot, time.Time, error) {
	return waitUntil(fetch, timeout, "idle daemon", func(s obs.Snapshot) bool {
		return scanCount(s) >= scansAfter+2 && schedIdle(s)
	})
}
