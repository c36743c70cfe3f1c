package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdmap"
	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

// seededArchives memoizes seedCaptures' encoded archives by capture ID:
// the ID names building and seed, and rendering plus encoding one
// capture costs about half a second.
var seededArchives sync.Map

// seedCaptures stores n encoded captures for one building, returning
// their IDs in insertion order. The geo tag is overridden to building so
// one generated world can seed corpora for several logical buildings.
func seedCaptures(t *testing.T, st *store.Store, building string, n int, seedBase int64) []string {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(world.Lab2())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-cap-%d", building, seedBase+int64(i))
		data, ok := seededArchives.Load(id)
		if !ok {
			c, err := gen.SWS(id, users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(seedBase+int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			c.Geo.Building = building
			if data, err = server.EncodeCapture(c); err != nil {
				t.Fatal(err)
			}
			seededArchives.Store(id, data)
		}
		if err := st.Put(server.CollCaptures, id, append([]byte(nil), data.([]byte)...)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// stubResult is a minimal renderable reconstruction result.
func stubResult(building string) *crowdmap.Result {
	mask := &gridmap.Binary{
		Bounds: geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)},
		Res:    1, W: 10, H: 10, Cells: make([]bool, 100),
	}
	return &crowdmap.Result{
		Plan:        &floorplan.Plan{Building: building, HallwayMask: mask},
		Aggregation: &aggregate.Result{},
	}
}

// newTestProcessor builds a started processor with a journal and a read
// tier over st and the given number of building workers; Close is
// registered on t.
func newTestProcessor(t *testing.T, st *store.Store, buildingWorkers int) *processor {
	t.Helper()
	reg := crowdmap.NewMetricsRegistry()
	maps, err := mapserve.New(st, mapserve.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	proc := newProcessor(st, maps, 100, 1)
	proc.obs = reg
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.journal = journal
	if err := proc.start(buildingWorkers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.sched.Close)
	return proc
}

// failureCount reads a capture's failure count under the processor lock.
func failureCount(p *processor, id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failures[id]
}

// TestProcessorQuarantinesPoisonCapture is the graceful-degradation
// acceptance test: a capture that makes reconstruction fail repeatedly is
// moved to the dead-letter collection, and the job then completes with
// the remaining corpus.
func TestProcessorQuarantinesPoisonCapture(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	poison := ids[1]

	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		for _, c := range captures {
			if c.ID == poison {
				return nil, fmt.Errorf("stage 1: %w",
					&crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")})
			}
		}
		return stubResult("Lab2"), nil
	}

	ctx := context.Background()
	// Cycles 1 and 2: the poison capture fails the job; the building stays
	// dirty and each scan redrives it.
	for attempt := 1; attempt <= maxCaptureFailures-1; attempt++ {
		if err := proc.runOnce(ctx); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if got := failureCount(proc, poison); got != attempt {
			t.Fatalf("attempt %d: failure count %d, want %d", attempt, got, attempt)
		}
	}
	if _, ok := st.Get(collDeadLetter, poison); ok {
		t.Fatal("capture quarantined before reaching the failure threshold")
	}
	// Cycle 3 hits the threshold: quarantine, then completion with the
	// remaining three captures inside the same job.
	if err := proc.runOnce(ctx); err != nil {
		t.Fatalf("cycle after quarantine: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, poison); !ok {
		t.Error("poison capture not in dead-letter collection")
	}
	if _, ok := st.Get(server.CollCaptures, poison); ok {
		t.Error("poison capture still in the working set")
	}
	if _, ok := proc.maps.Plan("Lab2"); !ok {
		t.Error("plan not produced from the remaining corpus")
	}
	if v := proc.obs.Snapshot().Counters["captures.deadlettered"]; v != 1 {
		t.Errorf("captures.deadlettered = %d, want 1", v)
	}
	// The pair cache was persisted after the successful job.
	if _, ok := st.Get(collState, statePairCache); !ok {
		t.Error("pair cache not checkpointed")
	}
}

// corpusResult is stubResult stamped with the input's corpus
// fingerprint, as the real pipeline stamps every result.
func corpusResult(building string, captures []*crowdmap.Capture) *crowdmap.Result {
	res := stubResult(building)
	res.Corpus = crowdmap.CorpusFingerprint(captures)
	return res
}

// TestProcessorSkipsCompletedJob: a building whose corpus is unchanged is
// not re-enqueued, and even a fresh scheduler (daemon restart) skips it
// because the published plan record names the same corpus.
func TestProcessorSkipsCompletedJob(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls int32
	stub := func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		return corpusResult("Lab2", captures), nil
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = stub
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("first cycle: %d reconstructions, want 1", calls)
	}
	// Unchanged corpus: the dirty-tracker does not even enqueue the job.
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("clean corpus re-reconstructed (%d calls)", calls)
	}
	// A restarted daemon (fresh scheduler and read tier over the same
	// store) enqueues the building once, but the published record's corpus
	// skips the actual reconstruction.
	proc2 := newTestProcessor(t, st, 1)
	proc2.reconstruct = stub
	if err := proc2.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("committed job was reconstructed again after restart (%d calls)", calls)
	}
	c := proc2.obs.Snapshot().Counters
	if c["sched.jobs.completed"] != 1 || c["mapserve.publishes"]+c["mapserve.publish.unchanged"] != 0 {
		t.Errorf("restart skip: completed=%d publishes=%d unchanged=%d, want 1/0/0",
			c["sched.jobs.completed"], c["mapserve.publishes"], c["mapserve.publish.unchanged"])
	}
}

// TestRestartRebuildsStaleRecord: a restarted processor whose on-disk
// plan record was committed from an older corpus rebuilds and republishes
// instead of skipping. This is the crash window between a finished
// reconstruction and its publish: nothing but the record decides.
func TestRestartRebuildsStaleRecord(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls atomic.Int32
	stub := func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config) (*crowdmap.Result, error) {
		calls.Add(1)
		return chaosReconstruct(context.Background(), captures, cfg)
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = stub
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	v1, ok := proc.maps.Plan("Lab2")
	if !ok {
		t.Fatal("first corpus not published")
	}
	// An upload lands, and the daemon dies before any job over the grown
	// corpus commits.
	seedCaptures(t, st, "Lab2", 1, 50)
	captures, _, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	proc2 := newTestProcessor(t, st, 1)
	proc2.reconstruct = stub
	if err := proc2.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("restart over a grown corpus ran %d reconstructions, want 2 (stale record skipped)", got)
	}
	v2, ok := proc2.maps.Plan("Lab2")
	if !ok || v2.Version != v1.Version+1 || v2.ETag == v1.ETag {
		t.Fatalf("republish after restart = v%d/%.12s (ok=%t), want v%d with a new etag",
			v2.Version, v2.ETag, ok, v1.Version+1)
	}
	corpus, _, err := proc2.maps.VerifyCorpus("Lab2")
	if err != nil || corpus != crowdmap.CorpusFingerprint(captures) {
		t.Fatalf("committed record names corpus %.12s (err %v), want the grown corpus", corpus, err)
	}
}

// TestNoJobTrailsPublish: a real job's publish, the building's first
// included, does not dirty the building again. The next scan enqueues
// nothing and reconstructs nothing.
func TestNoJobTrailsPublish(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls atomic.Int32
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		calls.Add(1)
		return corpusResult("Lab2", captures), nil
	}
	enqueued := func() int64 { return proc.obs.Snapshot().Counters["sched.jobs.enqueued"] }
	ctx := context.Background()
	for round := 1; round <= 2; round++ {
		if round == 2 {
			seedCaptures(t, st, "Lab2", 1, 70) // a later upload: a real job again
		}
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != int32(round) {
			t.Fatalf("round %d: %d reconstructions, want %d", round, got, round)
		}
		before := enqueued()
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if got := enqueued(); got != before {
			t.Errorf("round %d: scan after a publish enqueued %d jobs, want 0", round, got-before)
		}
		if got := calls.Load(); got != int32(round) {
			t.Errorf("round %d: scan after a publish reconstructed again (%d calls)", round, got)
		}
	}
}

// TestPublishFailureRedrivesJob: the publish is the job's commit, so a
// result the read tier refuses fails the job, and the next scan over the
// unchanged corpus reconstructs again.
func TestPublishFailureRedrivesJob(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls atomic.Int32
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		calls.Add(1)
		return &crowdmap.Result{Aggregation: &aggregate.Result{}}, nil // no plan: Publish refuses it
	}
	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	c := proc.obs.Snapshot().Counters
	if c["sched.jobs.failed"] != 1 || c["sched.jobs.completed"] != 0 {
		t.Fatalf("failed publish: jobs failed=%d completed=%d, want 1/0",
			c["sched.jobs.failed"], c["sched.jobs.completed"])
	}
	if c["mapserve.publish.errors"] != 1 {
		t.Errorf("mapserve.publish.errors = %d, want 1", c["mapserve.publish.errors"])
	}
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("unchanged corpus after a failed publish: %d reconstructions, want 2", got)
	}
}

// TestCorpusFailureNotRetriedUntilChange: a failure that is neither
// cancellation nor one capture's fault recurs on every retry of the same
// corpus, so the job finishes, counted on processor.corpus.failed, and
// only a corpus change runs it again.
func TestCorpusFailureNotRetriedUntilChange(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls atomic.Int32
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		calls.Add(1)
		return nil, errors.New("crowdmap: skeleton: degenerate input (collinear points?)")
	}
	ctx := context.Background()
	for scan := 0; scan < 2; scan++ {
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("two scans of an unchanged failing corpus: %d reconstructions, want 1", got)
	}
	c := proc.obs.Snapshot().Counters
	if c["processor.corpus.failed"] != 1 || c["sched.jobs.failed"] != 0 {
		t.Errorf("processor.corpus.failed=%d sched.jobs.failed=%d, want 1/0",
			c["processor.corpus.failed"], c["sched.jobs.failed"])
	}
	seedCaptures(t, st, "Lab2", 1, 80)
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("grown corpus: %d reconstructions, want 2", got)
	}
}

// TestProcessorReconstructsOnSwap is the regression test for the old
// `len(keys) == p.lastCount` cycle check: dead-lettering one capture
// while one new upload arrives keeps the capture *count* constant, and
// the old logic never reconstructed the new data. Fingerprint-based
// dirty tracking must.
func TestProcessorReconstructsOnSwap(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	var calls int32
	var mu sync.Mutex
	var lastCorpus []string
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		mu.Lock()
		lastCorpus = nil
		for _, c := range captures {
			lastCorpus = append(lastCorpus, c.ID)
		}
		mu.Unlock()
		return stubResult("Lab2"), nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("first cycle: %d calls, want 1", calls)
	}
	// The swap: one capture leaves the working set (as quarantine does),
	// one new upload lands. len(keys) is unchanged.
	if err := st.Delete(server.CollCaptures, ids[0]); err != nil {
		t.Fatal(err)
	}
	seedCaptures(t, st, "Lab2", 1, 99) // fresh content, same count
	if got := st.Len(server.CollCaptures); got != 4 {
		t.Fatalf("capture count after swap = %d, want 4 (the scenario the count check missed)", got)
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 2 {
		t.Fatalf("swapped corpus not reconstructed: %d calls, want 2", calls)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range lastCorpus {
		if id == ids[0] {
			t.Error("deleted capture still fed to reconstruction")
		}
	}
}

// TestTransientFailureNotCountedTowardQuarantine is the regression test
// for the poison-quarantine bug: a CaptureError whose cause is context
// cancellation (SIGTERM mid-extract, per-attempt retry deadline) must
// not increment the capture's failure count — three shutdowns used to
// dead-letter a healthy capture.
func TestTransientFailureNotCountedTowardQuarantine(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	victim := ids[0]
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(ctx context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		// A shutdown interrupts key-frame extraction of the victim.
		return nil, fmt.Errorf("stage 1: %w",
			&crowdmap.CaptureError{CaptureID: victim, Err: context.Canceled})
	}
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCaptureFailures; i++ {
		if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err == nil {
			t.Fatal("interrupted reconstruction reported success")
		}
	}
	if got := failureCount(proc, victim); got != 0 {
		t.Errorf("cancellation charged %d failures to a healthy capture, want 0", got)
	}
	if _, ok := st.Get(collDeadLetter, victim); ok {
		t.Error("healthy capture dead-lettered by repeated shutdowns")
	}
	if _, ok := st.Get(server.CollCaptures, victim); !ok {
		t.Error("capture missing from the working set")
	}

	// DeadlineExceeded (per-attempt retry deadline) is equally transient.
	proc.reconstruct = func(ctx context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		return nil, fmt.Errorf("stage 2: %w", context.DeadlineExceeded)
	}
	if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err == nil {
		t.Fatal("deadline-exceeded reconstruction reported success")
	}
	if got := failureCount(proc, victim); got != 0 {
		t.Errorf("deadline charged %d failures, want 0", got)
	}
}

// TestSuccessResetsFailureCounts: a capture that participated in a
// successful cycle has its failure count cleared, so unrelated future
// failures start from zero instead of inheriting stale strikes.
func TestSuccessResetsFailureCounts(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	proc.mu.Lock()
	proc.failures[ids[2]] = maxCaptureFailures - 1 // one strike from quarantine
	proc.mu.Unlock()
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := failureCount(proc, ids[2]); got != 0 {
		t.Errorf("failure count after successful cycle = %d, want 0", got)
	}
}

// TestReconstructBuildingQuarantineRetryLoop covers the in-job
// quarantine-then-retry loop: when a capture crosses the failure
// threshold mid-job, it is quarantined and the job immediately retries
// with the remaining corpus — one runBuilding call, two reconstruction
// attempts, and the input slice the caller holds is not clobbered by the
// filter.
func TestReconstructBuildingQuarantineRetryLoop(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	poison := ids[1]
	proc := newTestProcessor(t, st, 1)
	proc.mu.Lock()
	proc.failures[poison] = maxCaptureFailures - 1 // next strike quarantines
	proc.mu.Unlock()
	var calls int32
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		for _, c := range captures {
			if c.ID == poison {
				return nil, &crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")}
			}
		}
		return stubResult("Lab2"), nil
	}
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]*crowdmap.Capture(nil), captures...)
	if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err != nil {
		t.Fatalf("quarantine-then-retry job failed: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Errorf("reconstruction attempts = %d, want 2 (fail, quarantine, retry)", got)
	}
	if _, ok := st.Get(collDeadLetter, poison); !ok {
		t.Error("poison capture not quarantined")
	}
	// The caller's slice must be intact: the in-place captures[:0] filter
	// used to overwrite the array other views still referenced.
	for i, c := range orig {
		if captures[i] != c {
			t.Fatalf("caller slice clobbered at %d: %v != %v", i, captures[i].ID, c.ID)
		}
	}
}

// TestProcessorDeadLettersExcludedCaptures: when a reconstruction
// completes in degraded mode, the captures it excluded (quality gate,
// recovered panics) are dead-lettered immediately — no three-strike wait —
// while the survivors keep clean failure counts and the plan still lands.
func TestProcessorDeadLettersExcludedCaptures(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	bad := ids[2]
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config) (*crowdmap.Result, error) {
		if cfg.Quality == nil {
			t.Error("processor did not pass quality params to the pipeline")
		}
		res := stubResult("Lab2")
		res.Excluded = []crowdmap.Exclusion{{
			CaptureID: bad,
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}}
		res.Coverage = crowdmap.Coverage{Input: len(captures), Used: len(captures) - 1, Excluded: 1, Degraded: true}
		return res, nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatalf("degraded cycle failed: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, bad); !ok {
		t.Error("excluded capture not dead-lettered")
	}
	if _, ok := st.Get(server.CollCaptures, bad); ok {
		t.Error("excluded capture still in working set")
	}
	if _, ok := proc.maps.Plan("Lab2"); !ok {
		t.Error("degraded plan not published")
	}
	if v := proc.obs.Snapshot().Counters["captures.deadlettered"]; v != 1 {
		t.Errorf("captures.deadlettered = %d, want 1", v)
	}
	for _, id := range ids {
		if id != bad {
			if _, ok := st.Get(server.CollCaptures, id); !ok {
				t.Errorf("surviving capture %s missing from working set", id)
			}
		}
	}
}

// TestProcessorDeadLetterUsesStoreKey: nothing forces a client to upload
// an archive under the ID its meta.json declares, but exclusions and
// CaptureErrors carry the declared ID. Quarantine must translate that
// back to the store key, or the dead-letter move is a silent no-op (and
// a hostile archive declaring a victim's ID could get the victim's
// document quarantined in its place).
func TestProcessorDeadLetterUsesStoreKey(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	declared := ids[3]
	uploadKey := "renamed-upload"
	// Re-file the last capture under a store key that differs from the ID
	// its metadata declares.
	data, _ := st.Get(server.CollCaptures, declared)
	if err := st.Put(server.CollCaptures, uploadKey, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(server.CollCaptures, declared); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		res := stubResult("Lab2")
		res.Excluded = []crowdmap.Exclusion{{
			CaptureID: declared, // the pipeline only knows the declared ID
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}}
		res.Coverage = crowdmap.Coverage{Input: len(captures), Used: len(captures) - 1, Excluded: 1, Degraded: true}
		return res, nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatalf("degraded cycle failed: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, uploadKey); !ok {
		t.Error("renamed capture not dead-lettered under its store key")
	}
	if _, ok := st.Get(server.CollCaptures, uploadKey); ok {
		t.Error("renamed capture still in working set")
	}
	for _, id := range ids[:3] {
		if _, ok := st.Get(server.CollCaptures, id); !ok {
			t.Errorf("innocent capture %s evicted from working set", id)
		}
	}
}

// TestBuildingCapturesSkipsDuplicateDeclaredIDs: two store documents
// decoding to the same declared capture ID would make failure
// attribution ambiguous, so only the first (in store key order) joins
// the corpus.
func TestBuildingCapturesSkipsDuplicateDeclaredIDs(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	data, _ := st.Get(server.CollCaptures, ids[0])
	if err := st.Put(server.CollCaptures, "zz-imposter", data); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	if len(captures) != 3 {
		t.Fatalf("corpus size = %d, want 3 (duplicate declared ID not skipped)", len(captures))
	}
	if got := keyByID[ids[0]]; got != ids[0] {
		t.Errorf("declared ID %q maps to store key %q, want the first document %q", ids[0], got, ids[0])
	}
}

// TestProcessorOverlappingBuildings is the end-to-end concurrency
// acceptance test: three buildings' corpora in one store, two building
// workers — two buildings reconstruct concurrently, the third waits, and
// no building runs twice at once. Plans land per building.
func TestProcessorOverlappingBuildings(t *testing.T) {
	st := store.New()
	buildings := []string{"B1", "B2", "B3"}
	for i, b := range buildings {
		seedCaptures(t, st, b, 3, int64(2+10*i))
	}
	proc := newTestProcessor(t, st, 2)
	var mu sync.Mutex
	inflight := make(map[string]int)
	var cur, peak int32
	release := make(chan struct{})
	started := make(chan string, len(buildings))
	proc.reconstruct = func(ctx context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config) (*crowdmap.Result, error) {
		b := captures[0].Geo.Building
		mu.Lock()
		inflight[b]++
		if inflight[b] > 1 {
			t.Errorf("building %s reconstructing twice concurrently", b)
		}
		mu.Unlock()
		if n := atomic.AddInt32(&cur, 1); n > atomic.LoadInt32(&peak) {
			atomic.StoreInt32(&peak, n)
		}
		started <- b
		select {
		case <-release:
		case <-ctx.Done():
		}
		atomic.AddInt32(&cur, -1)
		mu.Lock()
		inflight[b]--
		mu.Unlock()
		return stubResult(b), nil
	}
	if err := proc.scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two jobs in flight at once; the third queues behind them.
	<-started
	<-started
	select {
	case b := <-started:
		t.Fatalf("third building %s started with 2 workers", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.sched.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("peak concurrent reconstructions = %d, want >= 2", peak)
	}
	for _, b := range buildings {
		if _, ok := proc.maps.Plan(b); !ok {
			t.Errorf("no plan published for %s", b)
		}
	}
}

// TestScanQuarantinesUndecodableCapture: a stored archive that stops
// decoding is counted toward quarantine by the scan (not skipped
// silently forever).
func TestScanQuarantinesUndecodableCapture(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	if err := st.Put(server.CollCaptures, "junk", []byte("not a zip")); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}
	for i := 0; i < maxCaptureFailures; i++ {
		if err := proc.runOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Get(collDeadLetter, "junk"); !ok {
		t.Error("undecodable capture not quarantined after repeated scans")
	}
	if _, ok := st.Get(server.CollCaptures, "junk"); ok {
		t.Error("undecodable capture still in working set")
	}
}

// TestProcessorDeltaMode pins the -delta wiring: with delta on, building
// jobs go through the incremental entry point with a per-building state
// that persists across cycles, and the rebuild-interval knob reaches the
// pipeline config. Two buildings must never share a state.
func TestProcessorDeltaMode(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab1", 3, 2)
	seedCaptures(t, st, "Lab2", 3, 20)

	proc := newTestProcessor(t, st, 1)
	proc.delta = true
	proc.rebuildEvery = 5
	var mu sync.Mutex
	states := make(map[string][]*crowdmap.DeltaState)
	var fullCalls atomic.Int64
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		fullCalls.Add(1)
		return nil, errors.New("batch entry point used in delta mode")
	}
	proc.reconstructDelta = func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error) {
		if state == nil {
			return nil, errors.New("nil delta state")
		}
		if cfg.DeltaRebuildEvery != 5 {
			return nil, fmt.Errorf("DeltaRebuildEvery = %d, want 5", cfg.DeltaRebuildEvery)
		}
		b := captures[0].Geo.Building
		mu.Lock()
		states[b] = append(states[b], state)
		mu.Unlock()
		return stubResult(b), nil
	}

	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// New content makes both buildings dirty again for a second cycle.
	seedCaptures(t, st, "Lab1", 1, 90)
	seedCaptures(t, st, "Lab2", 1, 91)
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}

	if n := fullCalls.Load(); n != 0 {
		t.Errorf("batch entry point called %d times in delta mode", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range []string{"Lab1", "Lab2"} {
		if len(states[b]) != 2 {
			t.Fatalf("%s: %d delta runs, want 2", b, len(states[b]))
		}
		if states[b][0] != states[b][1] {
			t.Errorf("%s: delta state not persistent across cycles", b)
		}
	}
	if states["Lab1"][0] == states["Lab2"][0] {
		t.Error("buildings share one delta state")
	}
}

// TestProcessorPublishesToReadTier: completing a reconstruction publishes
// the result to the read tier (servable at version 1), and a later cycle
// that reconstructs identical content leaves the served version alone.
func TestProcessorPublishesToReadTier(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	maps := proc.maps
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}

	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	view, ok := maps.Plan("Lab2")
	if !ok {
		t.Fatal("completed reconstruction not published to the read tier")
	}
	if view.Version != 1 || view.ETag == "" {
		t.Fatalf("published identity = v%d etag %q, want version 1", view.Version, view.ETag)
	}
	if n := proc.obs.Snapshot().Counters["mapserve.publishes"]; n != 1 {
		t.Errorf("mapserve.publishes = %d, want 1", n)
	}

	// Grow the corpus so the building redrives, but keep the (stubbed)
	// reconstruction output identical: the republish must be a no-op.
	seedCaptures(t, st, "Lab2", 2, 40)
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	view2, ok := maps.Plan("Lab2")
	if !ok {
		t.Fatal("read tier lost the plan after a rebuild")
	}
	if view2.Version != view.Version || view2.ETag != view.ETag {
		t.Errorf("identical rebuild changed identity: v%d/%s -> v%d/%s",
			view.Version, view.ETag, view2.Version, view2.ETag)
	}
	if n := proc.obs.Snapshot().Counters["mapserve.publish.unchanged"]; n != 1 {
		t.Errorf("mapserve.publish.unchanged = %d, want 1", n)
	}
}
