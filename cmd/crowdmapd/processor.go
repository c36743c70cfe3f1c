package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/sched"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
)

// Store collections owned by the processor (the server owns captures, see
// server.CollCaptures; plans live in the read tier, see mapserve.CollServe).
const (
	// collDeadLetter holds capture archives quarantined as poison: they made
	// reconstruction fail repeatedly, so they are moved out of the working
	// set and the corpus is processed without them. An operator can inspect
	// and re-admit them by moving the document back.
	collDeadLetter = "deadletter"
	// collState holds small processor state documents (the pair cache dump).
	collState = "state"
	// statePairCache is the collState key of the exported pair cache.
	statePairCache = "paircache"
)

// maxCaptureFailures is how many failed reconstruction attempts a single
// capture may cause before it is quarantined to the dead-letter
// collection. Failures caused by cancellation (shutdown, per-attempt
// deadlines) never count: only deterministic pipeline failures do.
const maxCaptureFailures = 3

// processor turns stored captures into floor plans. Each scan groups the
// capture corpus by building and computes a per-building corpus
// fingerprint; buildings whose fingerprint changed since their last
// successful reconstruction are enqueued on the per-building scheduler,
// which runs them concurrently on a bounded worker pool (never two jobs
// for the same building at once). This replaces the old
// count-of-captures cycle check, which skipped reconstruction whenever a
// dead-lettered capture and a new upload left the count unchanged.
type processor struct {
	st         *store.Store
	hypotheses int
	workers    int
	obs        *crowdmap.MetricsRegistry
	logMetrics bool
	// quality configures the reconstruction-side input gate; nil disables
	// it (the daemon default is the lenient policy, set by newProcessor).
	quality *crowdmap.QualityParams
	// mode selects the reconstruction modalities (-mode): vision,
	// trajectory, or hybrid per-modality routing.
	mode crowdmap.Mode
	// stageBudget is the soft per-stage wall-clock budget (0 = off).
	stageBudget time.Duration
	// journal persists the pipeline's resumable stage payloads (pair
	// decisions, delta-mode track artifacts) across restarts.
	journal *crowdmap.CheckpointJournal
	// cache persists pair-comparison decisions across reconstruction
	// cycles: when new uploads arrive, only pairs involving new content are
	// compared (the paper's incremental-aggregation scaling, minus the
	// Spark cluster). It is exported to the store after each job, so a
	// restarted daemon starts warm. Safe for concurrent building jobs.
	cache *crowdmap.PairCache
	// sched serializes and parallelizes building jobs; created by start.
	sched *sched.Scheduler
	// reconstruct is the pipeline entry point; a field so tests can
	// substitute a stub.
	reconstruct func(ctx context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config) (*crowdmap.Result, error)
	// delta switches reconstruction to the incremental entry point: each
	// building keeps a DeltaState across cycles, so a new upload costs
	// only its own extraction and pair comparisons instead of a full
	// rebuild. rebuildEvery forces a periodic full rebuild as a
	// correctness backstop (0 = never).
	delta        bool
	rebuildEvery int
	// reconstructDelta is the incremental entry point; a field so tests
	// can substitute a stub.
	reconstructDelta func(ctx context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error)
	// maps is the read tier and the only plan store: each completed
	// reconstruction is published there, and the published record, which
	// names the corpus it was built from, is the job's commit point. A
	// failed publish fails the job; the read tier keeps serving the
	// previous complete version and the next scan redrives the building.
	maps *mapserve.Service
	// keep integrity-envelopes the processor's own persisted documents
	// (the pair-cache export) and verifies everything it reads back;
	// created by start, after obs is wired.
	keep *integrity.Keeper
	// scrubPace throttles the background scrubber between documents so a
	// scrub pass never monopolizes the store lock (0 = no pause).
	scrubPace time.Duration

	mu sync.Mutex
	// deltaStates holds each building's memoized stage artifacts when
	// delta mode is on. Guarded by mu; the per-building scheduler never
	// runs two jobs for one building concurrently, so each state sees
	// serial runs.
	deltaStates map[string]*crowdmap.DeltaState
	// failures counts, per capture, how many reconstruction attempts it has
	// made fail; at maxCaptureFailures the capture is dead-lettered. A
	// successful cycle that includes a capture resets its count.
	failures map[string]int
	// meta caches per-capture scan metadata (building, raw-content hash) so
	// the periodic scan decodes each archive once, not every tick.
	meta map[string]captureMeta
}

// captureMeta is what the scan needs to know about a stored capture
// without re-decoding it: which building it belongs to, keyed by the
// hash of its raw archive bytes.
type captureMeta struct {
	hash     string
	building string
}

func newProcessor(st *store.Store, maps *mapserve.Service, hypotheses, workers int) *processor {
	qp := crowdmap.DefaultQualityParams()
	return &processor{
		st:          st,
		maps:        maps,
		hypotheses:  hypotheses,
		workers:     workers,
		quality:     &qp,
		cache:       crowdmap.NewPairCache(0),
		failures:    make(map[string]int),
		meta:        make(map[string]captureMeta),
		deltaStates: make(map[string]*crowdmap.DeltaState),

		reconstruct:      crowdmap.ReconstructContext,
		reconstructDelta: crowdmap.ReconstructDelta,
	}
}

// start brings up the per-building scheduler with the given worker
// count. Call after obs/journal are set and before the first scan.
func (p *processor) start(buildingWorkers int) error {
	s, err := sched.New(buildingWorkers, p.runBuilding,
		sched.WithObs(p.obs),
		sched.WithResultFunc(func(building string, err error) {
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("job %s: %v", building, err)
			}
		}))
	if err != nil {
		return err
	}
	p.sched = s
	p.keep = integrity.NewKeeper(p.st, p.obs)
	return nil
}

// loadPairCache warms the cache from the previous process's exported
// dump. Call after start (the integrity keeper must exist). A corrupt
// dump — bad envelope or JSON the cache rejects — is quarantined and the
// cache starts cold: every pair decision is recomputable.
func (p *processor) loadPairCache() {
	data, ok, err := p.keep.Get(collState, statePairCache)
	if err != nil {
		p.obs.Counter("paircache.load.corrupt").Inc()
		log.Printf("pair cache load: %v (starting cold)", err)
		return
	}
	if !ok {
		return
	}
	if err := p.cache.ImportJSON(data); err != nil {
		p.keep.Quarantine(collState, statePairCache)
		p.obs.Counter("paircache.load.corrupt").Inc()
		log.Printf("pair cache load: %v (starting cold)", err)
		return
	}
	log.Printf("pair cache: %d decisions loaded", p.cache.Len())
}

// savePairCache checkpoints the cache through the store (and hence the
// WAL, when one backs it), under an integrity envelope.
func (p *processor) savePairCache() {
	data, err := p.cache.ExportJSON()
	if err != nil {
		log.Printf("pair cache export: %v", err)
		return
	}
	if err := p.keep.Put(collState, statePairCache, data); err != nil {
		log.Printf("pair cache save: %v", err)
	}
}

// quarantine moves a poison capture to the dead-letter collection so the
// rest of the corpus can proceed without it. Caller holds p.mu.
func (p *processor) quarantineLocked(id, cause string) {
	if data, ok := p.st.Get(server.CollCaptures, id); ok {
		if err := p.st.Put(collDeadLetter, id, data); err != nil {
			log.Printf("dead-letter %s: %v", id, err)
			return
		}
		if err := p.st.Delete(server.CollCaptures, id); err != nil {
			log.Printf("dead-letter %s: %v", id, err)
			return
		}
	}
	delete(p.failures, id)
	delete(p.meta, id)
	p.obs.Counter("captures.deadlettered").Inc()
	log.Printf("capture %s dead-lettered: %s", id, cause)
}

// noteFailure charges one reconstruction failure to a capture and
// quarantines it at the threshold. Returns true when the capture was
// quarantined.
func (p *processor) noteFailure(id string, cause error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures[id]++
	if p.failures[id] >= maxCaptureFailures {
		p.quarantineLocked(id, fmt.Sprintf("%d failures: %v", maxCaptureFailures, cause))
		return true
	}
	return false
}

// isTransient reports whether a reconstruction error came from
// cancellation rather than the data: a SIGTERM mid-extract or a
// per-attempt retry deadline wraps context.Canceled/DeadlineExceeded
// (possibly inside a CaptureError), and charging those to a capture
// would dead-letter healthy data after three shutdowns.
func isTransient(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scan is the periodic job: it walks the capture collection, groups
// captures by building, computes each building's corpus fingerprint from
// the raw archive hashes, and marks dirty buildings on the scheduler.
// Decode work is memoized per raw-content hash, so a steady-state scan
// hashes bytes but decodes nothing.
func (p *processor) scan(ctx context.Context) error {
	keys := p.st.Keys(server.CollCaptures)
	live := make(map[string]bool, len(keys))
	byBuilding := make(map[string][]string)
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, ok := p.st.Get(server.CollCaptures, k)
		if !ok {
			continue
		}
		sum := sha256.Sum256(data)
		hash := hex.EncodeToString(sum[:])
		p.mu.Lock()
		m, known := p.meta[k]
		p.mu.Unlock()
		if !known || m.hash != hash {
			c, err := server.DecodeCapture(data)
			if err != nil {
				// An archive that passed upload validation but no longer
				// decodes is poison too; count it toward quarantine instead
				// of skipping it silently forever.
				if !p.noteFailure(k, err) {
					log.Printf("decode %s: %v (skipping)", k, err)
				}
				continue
			}
			m = captureMeta{hash: hash, building: c.Geo.Building}
			p.mu.Lock()
			p.meta[k] = m
			p.mu.Unlock()
		}
		live[k] = true
		byBuilding[m.building] = append(byBuilding[m.building], k+":"+hash)
	}
	// Forget metadata of deleted captures so the map tracks the store.
	p.mu.Lock()
	for k := range p.meta {
		if !live[k] {
			delete(p.meta, k)
		}
	}
	p.mu.Unlock()
	for building, entries := range byBuilding {
		// Fold the read tier's health into the fingerprint: losing or
		// corrupting a published document adds the marker, so the scheduler
		// redrives the building and the job republishes — self-healing with
		// zero scheduler changes. A successful publish leaves the marker as
		// it was, so no job trails a real one.
		if _, err := p.maps.Verify(building); err != nil {
			entries = append(entries, "health:unverified")
		}
		p.sched.Mark(building, corpusFingerprint(entries))
	}
	p.obs.Gauge("sched.buildings.tracked").Set(float64(len(byBuilding)))
	if p.logMetrics && p.obs != nil {
		if data, err := json.Marshal(p.obs.Snapshot()); err == nil {
			log.Printf("metrics: %s", data)
		}
	}
	return nil
}

// corpusFingerprint hashes a building's sorted "captureID:rawHash"
// entries into the dirty-tracking fingerprint. It deliberately uses raw
// archive bytes (not decoded content) so the scan stays cheap; the job
// itself compares crowdmap.CorpusFingerprint over decoded captures with
// the corpus the published plan record names.
func corpusFingerprint(entries []string) string {
	sort.Strings(entries)
	h := sha256.New()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrub is one background integrity pass: it walks every persisted
// derived artifact — checkpoints, processor state, and the read tier's
// records and indexes — verifying envelopes and codecs. A corrupt
// document is quarantined by the verification itself; scrub then runs a
// scan so the health markers redrive the owning buildings and the
// artifacts are recomputed. Paced by scrubPace so a pass never
// monopolizes the store.
func (p *processor) scrub(ctx context.Context) error {
	start := time.Now()
	docs, corrupt := 0, 0
	for _, coll := range []string{pipeline.CheckpointColl, collState} {
		for _, key := range p.st.Keys(coll) {
			if err := ctx.Err(); err != nil {
				return err
			}
			docs++
			if _, _, err := p.keep.Get(coll, key); err != nil {
				corrupt++
				log.Printf("scrub: %s/%s corrupt: %v", coll, key, err)
			}
			p.pace()
		}
	}
	for _, b := range p.maps.Buildings() {
		if err := ctx.Err(); err != nil {
			return err
		}
		docs++
		if published, err := p.maps.Verify(b); published && err != nil {
			corrupt++
			log.Printf("scrub: read tier %s corrupt: %v", b, err)
		}
		p.pace()
	}
	p.obs.Counter("scrub.passes").Inc()
	p.obs.Counter("scrub.docs").Add(int64(docs))
	p.obs.Counter("scrub.corrupt").Add(int64(corrupt))
	p.obs.Histogram("scrub.seconds").Observe(time.Since(start).Seconds())
	if corrupt > 0 {
		log.Printf("scrub: %d/%d documents corrupt and quarantined, scheduling repair", corrupt, docs)
		// Redrive immediately instead of waiting for the next scan tick.
		return p.scan(ctx)
	}
	return nil
}

// pace sleeps the scrub throttle, if one is configured.
func (p *processor) pace() {
	if p.scrubPace > 0 {
		time.Sleep(p.scrubPace)
	}
}

// runOnce is the synchronous test/tooling entry point: one scan, then
// wait for every enqueued building job to finish.
func (p *processor) runOnce(ctx context.Context) error {
	if err := p.scan(ctx); err != nil {
		return err
	}
	return p.sched.Wait(ctx)
}

// buildingCaptures decodes the current corpus of one building from the
// store. Captures whose cached metadata names another building are
// skipped without decoding. The second return value maps each capture's
// declared ID (from meta.json) to the store key it was uploaded under:
// the pipeline reports failures and exclusions by declared ID, but
// quarantine must move the store document, and nothing forces a client
// to upload an archive under the ID its metadata declares. A later
// document duplicating an earlier one's declared ID is skipped — two
// corpus members with one identity would make failure attribution
// ambiguous (and would let a hostile upload get a victim's capture
// quarantined in its place).
func (p *processor) buildingCaptures(ctx context.Context, building string) ([]*crowdmap.Capture, map[string]string, error) {
	var out []*crowdmap.Capture
	keyByID := make(map[string]string)
	for _, k := range p.st.Keys(server.CollCaptures) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		p.mu.Lock()
		m, known := p.meta[k]
		p.mu.Unlock()
		if known && m.building != building {
			continue
		}
		data, ok := p.st.Get(server.CollCaptures, k)
		if !ok {
			continue
		}
		c, err := server.DecodeCapture(data)
		if err != nil {
			// The scan owns decode-poison accounting; here we just exclude it
			// from the job.
			continue
		}
		if c.Geo.Building == building {
			if prev, dup := keyByID[c.ID]; dup {
				log.Printf("%s: capture %s declares the same ID %q as %s, skipping it",
					building, k, c.ID, prev)
				continue
			}
			keyByID[c.ID] = k
			out = append(out, c)
		}
	}
	return out, keyByID, nil
}

// runBuilding is the scheduler's job body: reconstruct one building's
// corpus, quarantining poison captures and degrading to the remaining
// corpus rather than failing the job.
func (p *processor) runBuilding(ctx context.Context, building string) error {
	captures, keyByID, err := p.buildingCaptures(ctx, building)
	if err != nil {
		return err
	}
	return p.reconstructBuilding(ctx, building, captures, keyByID)
}

// storeKey translates a capture's declared ID into the store key its
// document lives under, falling back to the ID itself when the mapping
// has no entry (the usual case where clients upload under the declared
// ID, and the test path that seeds captures directly).
func storeKey(keyByID map[string]string, id string) string {
	if k, ok := keyByID[id]; ok {
		return k
	}
	return id
}

// deltaState returns (creating on first use) the building's persistent
// delta-reconstruction state.
func (p *processor) deltaState(building string) *crowdmap.DeltaState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.deltaStates[building]
	if st == nil {
		st = crowdmap.NewDeltaState()
		p.deltaStates[building] = st
	}
	return st
}

// reconstructBuilding runs one building's corpus through the pipeline and
// publishes the result; the publish is the job's commit. On a
// poison-capture failure it quarantines the capture and immediately
// retries with the rest; on cancellation it returns the error without
// charging any capture, as it does when the publish fails, so the next
// scan redrives the job. A corpus-level failure of any other kind is
// counted and the job finishes: the same corpus would fail the same way
// on every scan. On success it resets the failure count of every capture
// the cycle included and checkpoints the pair cache.
func (p *processor) reconstructBuilding(ctx context.Context, building string, captures []*crowdmap.Capture, keyByID map[string]string) error {
	for {
		if len(captures) < 3 {
			log.Printf("%s: only %d captures, waiting for more", building, len(captures))
			return nil
		}
		fp := crowdmap.CorpusFingerprint(captures)
		if corpus, _, err := p.maps.VerifyCorpus(building); err == nil && corpus == fp {
			// The served plan was committed from exactly this corpus (a
			// restart, or a fresh scheduler over an old store) and every
			// published artifact verifies: nothing to do.
			log.Printf("%s: plan already reconstructed for this corpus, skipping", building)
			return nil
		}
		cfg := crowdmap.DefaultConfig()
		cfg.Layout.Hypotheses = p.hypotheses
		cfg.Workers = p.workers
		cfg.Metrics = p.obs
		cfg.PairCache = p.cache
		cfg.JobID = building
		cfg.Checkpoints = p.journal
		cfg.Quality = p.quality
		cfg.Mode = p.mode
		cfg.StageBudget = p.stageBudget
		start := time.Now()
		var res *crowdmap.Result
		var err error
		if p.delta {
			// The shared daemon pair cache is passed as cfg.PairCache above,
			// so a delta-state reset (config change or rebuild backstop)
			// never flushes it — it has its own signature-based invalidation.
			cfg.DeltaRebuildEvery = p.rebuildEvery
			res, err = p.reconstructDelta(ctx, captures, cfg, p.deltaState(building))
		} else {
			res, err = p.reconstruct(ctx, captures, cfg)
		}
		if err != nil {
			if isTransient(err) {
				// Shutdown or a per-attempt deadline, not the data's fault:
				// no capture gains a failure count, the journal already holds
				// whatever stages completed, and the next scan redrives the
				// job (or a restarted daemon resumes it).
				log.Printf("%s: reconstruction interrupted: %v", building, err)
				return fmt.Errorf("%s: %w", building, err)
			}
			var ce *crowdmap.CaptureError
			if !errors.As(err, &ce) {
				// Neither cancellation nor one capture's fault (say, a
				// degenerate hallway shape): retrying the same corpus fails
				// the same way. Finish the job so the scheduler marks this
				// corpus done; a corpus change or a restart retries it.
				p.obs.Counter("processor.corpus.failed").Inc()
				log.Printf("%s: reconstruction failed, waiting for the corpus to change: %v", building, err)
				return nil
			}
			if p.noteFailure(storeKey(keyByID, ce.CaptureID), err) {
				// Graceful degradation: drop the poison capture and
				// immediately retry this building with the rest. Build a
				// fresh slice — filtering in place would alias the array a
				// caller may still hold.
				kept := make([]*crowdmap.Capture, 0, len(captures)-1)
				for _, c := range captures {
					if c.ID != ce.CaptureID {
						kept = append(kept, c)
					}
				}
				captures = kept
				continue
			}
			log.Printf("%s: reconstruction failed: %v", building, err)
			return fmt.Errorf("%s: %w", building, err)
		}
		// Publish is the commit: versioned JSON/SVG/PNG artifacts plus the
		// localization index, swapped atomically so concurrent plan/locate
		// readers never see a partial version, under a record that names
		// this corpus. An unchanged plan keeps its version (and clients'
		// 304s). A crash or failure before the record lands leaves the old
		// record, whose corpus differs, so the build is redriven.
		v, err := p.maps.Publish(building, res)
		if err != nil {
			p.obs.Counter("mapserve.publish.errors").Inc()
			log.Printf("%s: mapserve publish: %v", building, err)
			return fmt.Errorf("%s: publish: %w", building, err)
		}
		log.Printf("%s: serving plan version %d (etag %.12s)", building, v.Version, v.ETag)
		// Degraded-mode aftermath: captures the pipeline excluded (gate
		// rejection, recovered panic) are proven poison — dead-letter them
		// now, without waiting for three strikes, so the next scan's corpus
		// fingerprint matches what was actually reconstructed and the job
		// is not redriven over the same exclusions forever.
		excluded := make(map[string]bool, len(res.Excluded))
		if len(res.Excluded) > 0 {
			p.mu.Lock()
			for _, ex := range res.Excluded {
				excluded[ex.CaptureID] = true
				p.quarantineLocked(storeKey(keyByID, ex.CaptureID),
					fmt.Sprintf("excluded at %s stage: %s",
						ex.Stage, strings.Join(ex.Reasons, ", ")))
			}
			p.mu.Unlock()
			log.Printf("%s: degraded reconstruction: %d/%d captures used, %d excluded",
				building, res.Coverage.Used, res.Coverage.Input, res.Coverage.Excluded)
		}
		// A capture that took part in a successful cycle is evidently not
		// poison: reset its failure count so unrelated future failures start
		// from zero.
		p.mu.Lock()
		for _, c := range captures {
			if !excluded[c.ID] {
				delete(p.failures, storeKey(keyByID, c.ID))
			}
		}
		p.mu.Unlock()
		p.savePairCache()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%s: plan updated (%d rooms, %d/%d tracks placed, %s)",
			building, len(res.Plan.Rooms), len(res.Aggregation.Offsets), len(res.Tracks),
			time.Since(start).Round(time.Millisecond))
		log.Print(buf.String())
		return nil
	}
}
