package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crowdmap/internal/cloud/server"
	"crowdmap/internal/obs"
)

// Workload sizes, fixed so that every run of every commit does the same
// work per episode.
const (
	// setupProbes extra daemon launches per run sample setup_s.
	setupProbes = 5
	// locateQueries is the closed-loop query count of one
	// locate_during_publish episode, and uploadEvery the number of
	// queries between two of its locateUploads held-out uploads.
	locateQueries = 1200
	uploadEvery   = 300
	locateUploads = 4
	// deltaUploads is the length of one delta_stream episode's stream.
	deltaUploads = heldWalks
	// coldArrivals is the number of the seed's held-out walks added to
	// the base corpus that cold_rebuild reconstructs.
	coldArrivals = 2
	// waitLimit bounds every wait on the daemon.
	waitLimit = 150 * time.Second
)

// runner holds one run's state: the fixture, the daemon binary, the
// operation counts and the correctness record.
type runner struct {
	bin  string
	work string
	// baseCache holds the data directories prepared from the base corpus
	// for this daemon build, and cache this seed's.
	baseCache string
	cache     string
	fx        *fixture
	seed      int64
	seconds   time.Duration
	interval  time.Duration
	delta     bool
	tr        *tracer

	attempted, failed int64
	incorrect         bool
	dirs              int

	// etag, hallwayF and answers are the outputs checked for equality
	// across episodes and across runs of one seed.
	etag     string
	hallwayF float64
	planJSON []byte
	answers  string
	hitRatio float64

	// layer accumulates /metrics diffs over the measured phases of a
	// traced run; corpusMiB is the corpus size at each measured publish.
	layer      obs.Snapshot
	corpusMiB  []float64
	candidates []float64
	acks       []float64
	// rss is the daemon's peak RSS (VmHWM) in each episode, and lats the
	// client-observed locate latencies, MiB and ms.
	rss         []float64
	lats        []float64
	finalCorpus []archive
}

// measured is what a workload reports: the end-to-end metrics, and the
// raw samples behind them.
type measured struct {
	e2e      map[string]metric
	samples  map[string][]float64
	episodes int
}

// commonMetrics are the end-to-end metrics every workload reports. A
// workload's operation is what its user waits for: a cold rebuild from
// restart to publish, an upload from its first chunk to the publish
// that covers it, or one locate query. opWallMS is the median wall time
// of one operation and opCPUMS the daemon's CPU time per operation.
func commonMetrics(setups []float64, opWallMS, opCPUMS float64) map[string]metric {
	return map[string]metric{
		"setup_s":    {median(setups), "s"},
		"op_wall_ms": {opWallMS, "ms"},
		"op_cpu_ms":  {opCPUMS, "core-ms/op"},
	}
}

// workload is one benchmark workload: its episodes, and whether it sends
// localization queries, whose frames are rendered only then.
type workload struct {
	run     func(*runner) (measured, error)
	queries bool
}

var workloads = map[string]workload{
	"cold_rebuild":          {run: coldRebuild},
	"delta_stream":          {run: deltaStream},
	"locate_during_publish": {run: locateDuringPublish, queries: true},
}

// copyDir copies a data directory into a fresh one under the run's work
// directory and returns its path.
func (r *runner) copyDir(src string) (string, error) {
	r.dirs++
	dst := filepath.Join(r.work, fmt.Sprintf("data%03d", r.dirs))
	return dst, copyTree(src, dst)
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		// Flushed before any daemon starts on the copy, so its start-up
		// does not share the disk with the copy's write-back.
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// prepared returns a prepared data directory from the cache directory
// cache, building it with build on first use. Runs only ever start
// daemons on copies of it.
func (r *runner) prepared(cache, name string, build func(dst string) error) (string, error) {
	dir := filepath.Join(cache, name)
	if _, err := os.Stat(dir + ".ok"); err == nil {
		return dir, nil
	}
	defer r.tr.span("setup."+name, "")()
	tmp := filepath.Join(r.work, "prep-"+name)
	// Preparation is not measured work: its operations are not counted.
	attempted := r.attempted
	if err := build(tmp); err != nil {
		return "", err
	}
	r.attempted = attempted
	_ = os.RemoveAll(dir)
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, os.WriteFile(dir+".ok", nil, 0o644)
}

// launch starts a daemon on dir and waits until it is ready, returning
// the launch-to-ready time.
func (r *runner) launch(dir string, interval time.Duration) (*daemon, float64, error) {
	d, err := startDaemon(daemonOpts{bin: r.bin, dataDir: dir, interval: interval, delta: r.delta})
	if err != nil {
		return nil, 0, err
	}
	ready, err := d.waitReady(60 * time.Second)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, ready.Seconds(), nil
}

// upload sends one archive through the chunk protocol and returns the
// time from the first chunk sent to the last chunk acknowledged. A
// non-2xx answer is a failed operation.
func (r *runner) upload(d *daemon, a archive) (time.Duration, error) {
	defer r.tr.span("server.upload", a.ID)()
	r.attempted++
	total := (len(a.Data) + server.ChunkSize - 1) / server.ChunkSize
	start := time.Now()
	for i := 0; i < total; i++ {
		hi := min((i+1)*server.ChunkSize, len(a.Data))
		path := fmt.Sprintf("/api/v1/captures/%s/chunks?index=%d&total=%d", a.ID, i, total)
		status, body, err := d.post(path, "application/octet-stream", a.Data[i*server.ChunkSize:hi])
		if err != nil || status/100 != 2 {
			r.failed++
			return 0, fmt.Errorf("upload %s chunk %d: status %d %s %v", a.ID, i, status, body, err)
		}
	}
	return time.Since(start), nil
}

// prepareUploaded returns a data directory holding the data directory
// from (none when empty) and corpus on top of it, with nothing
// reconstructed: the daemon ingests corpus with scans off.
func (r *runner) prepareUploaded(cache, name, from string, corpus []archive) (string, error) {
	return r.prepared(cache, name, func(dst string) error {
		if from != "" {
			if err := copyTree(from, dst); err != nil {
				return err
			}
		}
		d, _, err := r.launch(dst, time.Hour)
		if err != nil {
			return err
		}
		for _, a := range corpus {
			if _, err := r.upload(d, a); err != nil {
				d.kill()
				return err
			}
		}
		return d.stop()
	})
}

// prepareServed returns a data directory whose base walks are already
// reconstructed and published, with the daemon idle at shutdown.
func (r *runner) prepareServed() (string, error) {
	uploaded, err := r.prepareUploaded(r.baseCache, "walks-uploaded", "", r.fx.Walks)
	if err != nil {
		return "", err
	}
	return r.prepared(r.baseCache, "walks-served", func(dst string) error {
		if err := copyTree(uploaded, dst); err != nil {
			return err
		}
		d, _, err := r.launch(dst, r.interval)
		if err != nil {
			return err
		}
		s, _, err := waitPublish(d.metrics, 0, waitLimit)
		if err == nil {
			_, _, err = waitIdle(d.metrics, scanCount(s), waitLimit)
		}
		if err != nil {
			d.kill()
			return err
		}
		return d.stop()
	})
}

// probeSetups launches the daemon on fresh copies of dir and records
// launch-to-ready times; the probes are killed once ready.
func (r *runner) probeSetups(dir string) ([]float64, error) {
	defer r.tr.span("setup.probes", "")()
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cp, err := r.copyDir(dir)
		if err != nil {
			return nil, err
		}
		d, ready, err := r.launch(cp, time.Hour)
		if err != nil {
			return nil, err
		}
		d.kill()
		out = append(out, ready)
		_ = os.RemoveAll(cp)
	}
	return out, nil
}

// episodes runs fn until the measuring time has passed: another episode
// starts while it has not, and at least one always runs.
func (r *runner) episodes(fn func(ep int) error) (int, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < r.seconds {
		if err := fn(n); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// servedPlan reads the final served plan: its ETag and the Table I
// hallway F-measure against ground truth. Both must be identical in
// every episode of the run.
func (r *runner) servedPlan(d *daemon) error {
	defer r.tr.span("mapserve.get_plan", "")()
	r.attempted++
	status, hdr, body, err := d.get("/api/v1/buildings/" + fixtureBuilding + "/plan")
	if err != nil || status != 200 {
		r.failed++
		return fmt.Errorf("GET plan: status %d %v", status, err)
	}
	f, err := hallwayFromPlanJSON(body)
	if err != nil {
		return err
	}
	etag := hdr.Get("ETag")
	if r.etag != "" && (etag != r.etag || f != r.hallwayF) {
		r.incorrect = true
		fmt.Fprintf(os.Stderr, "cmbench: episode served etag %s F %v, earlier episode %s F %v\n", etag, f, r.etag, r.hallwayF)
	}
	r.etag, r.hallwayF, r.planJSON = etag, f, body
	return nil
}

// finishEpisode records the episode's trace diff and peak RSS and stops
// the daemon.
func (r *runner) finishEpisode(d *daemon, first obs.Snapshot) error {
	if r.tr.on {
		last, err := d.metrics()
		if err != nil {
			d.kill()
			return err
		}
		addDiff(&r.layer, first, last)
	}
	peak, err := d.peakRSSMiB()
	if err != nil {
		d.kill()
		return err
	}
	r.rss = append(r.rss, peak)
	return d.stop()
}

func coldRebuild(r *runner) (measured, error) {
	base := append(append([]archive{}, r.fx.Walks...), r.fx.Visits...)
	baseUploaded, err := r.prepareUploaded(r.baseCache, "rooms-uploaded", "", base)
	if err != nil {
		return measured{}, err
	}
	arrivals := r.fx.Held[:coldArrivals]
	uploaded, err := r.prepareUploaded(r.cache, "cold-uploaded", baseUploaded, arrivals)
	if err != nil {
		return measured{}, err
	}
	r.finalCorpus = append(base, arrivals...)
	setups, err := r.probeSetups(uploaded)
	if err != nil {
		return measured{}, err
	}
	var wall, cpu []float64
	n, err := r.episodes(func(ep int) error {
		defer r.tr.span("episode", fmt.Sprint(ep))()
		dir, err := r.copyDir(uploaded)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		d, ready, err := r.launch(dir, r.interval)
		if err != nil {
			return err
		}
		setups = append(setups, ready)
		s0, err := d.metrics()
		if err != nil {
			d.kill()
			return err
		}
		cpu0, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		t0 := time.Now()
		end := r.tr.span("sched.wait_publish", "cold")
		s1, t1, err := waitPublish(d.metrics, publishCount(s0), waitLimit)
		end()
		if err != nil {
			d.kill()
			return err
		}
		cpu1, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		wall = append(wall, t1.Sub(t0).Seconds())
		cpu = append(cpu, cpu1-cpu0)
		r.corpusMiB = append(r.corpusMiB, archiveMiB(r.finalCorpus))
		if err := r.servedPlan(d); err != nil {
			d.kill()
			return err
		}
		if r.tr.on {
			// Let the trailing no-op job finish so the trace diff holds
			// whole jobs.
			if _, _, err := waitIdle(d.metrics, scanCount(s1), waitLimit); err != nil {
				d.kill()
				return err
			}
		}
		return r.finishEpisode(d, s0)
	})
	if err != nil {
		return measured{}, err
	}
	return measured{episodes: n, samples: map[string][]float64{"setup_s": setups, "rebuild_s": wall, "rebuild_cpu_s": cpu},
		e2e: commonMetrics(setups, median(wall)*1000, median(cpu)*1000)}, nil
}

// startServed launches a daemon on a fresh copy of the served directory
// and waits until its first scan's no-op job has finished.
func (r *runner) startServed(served string, setups *[]float64) (*daemon, string, obs.Snapshot, error) {
	dir, err := r.copyDir(served)
	if err != nil {
		return nil, "", obs.Snapshot{}, err
	}
	d, ready, err := r.launch(dir, r.interval)
	if err != nil {
		return nil, dir, obs.Snapshot{}, err
	}
	*setups = append(*setups, ready)
	s, _, err := waitIdle(d.metrics, 0, waitLimit)
	if err != nil {
		d.kill()
		return nil, dir, s, err
	}
	return d, dir, s, nil
}

func deltaStream(r *runner) (measured, error) {
	served, err := r.prepareServed()
	if err != nil {
		return measured{}, err
	}
	setups, err := r.probeSetups(served)
	if err != nil {
		return measured{}, err
	}
	r.finalCorpus = append(append([]archive{}, r.fx.Walks...), r.fx.Held[:deltaUploads]...)
	var fresh, cpu []float64
	n, err := r.episodes(func(ep int) error {
		defer r.tr.span("episode", fmt.Sprint(ep))()
		d, dir, s, err := r.startServed(served, &setups)
		defer os.RemoveAll(dir)
		if err != nil {
			return err
		}
		first := s
		cpu0, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		corpus := append([]archive{}, r.fx.Walks...)
		for _, a := range r.fx.Held[:deltaUploads] {
			// Send each upload just past a scan tick, so every upload waits
			// one whole scan interval: the scan wait is a constant, not a
			// uniform random share of the freshness figure.
			if s, _, err = waitScan(d.metrics, scanCount(s), waitLimit); err != nil {
				break
			}
			t0 := time.Now()
			ack, uerr := r.upload(d, a)
			if uerr != nil {
				err = uerr
				break
			}
			corpus = append(corpus, a)
			end := r.tr.span("sched.wait_publish", a.ID)
			var t1 time.Time
			s, t1, err = waitPublish(d.metrics, publishCount(s), waitLimit)
			end()
			if err != nil {
				break
			}
			r.acks = append(r.acks, ack.Seconds()*1000)
			fresh = append(fresh, t1.Sub(t0).Seconds())
			r.corpusMiB = append(r.corpusMiB, archiveMiB(corpus))
			end = r.tr.span("sched.wait_idle", a.ID)
			s, _, err = waitIdle(d.metrics, scanCount(s), waitLimit)
			end()
			if err != nil {
				break
			}
		}
		if err != nil {
			d.kill()
			return err
		}
		cpu1, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		cpu = append(cpu, (cpu1-cpu0)/deltaUploads)
		if err := r.servedPlan(d); err != nil {
			d.kill()
			return err
		}
		return r.finishEpisode(d, first)
	})
	if err != nil {
		return measured{}, err
	}
	return measured{episodes: n, samples: map[string][]float64{"setup_s": setups, "upload_ack_ms": r.acks, "freshness_s": fresh, "update_cpu_s": cpu},
		e2e: commonMetrics(setups, median(fresh)*1000, median(cpu)*1000)}, nil
}

// locateAnswer is the part of a locate response checked for
// determinism.
type locateAnswer struct {
	Located bool       `json:"located"`
	TrackID string     `json:"track_id,omitempty"`
	Pose    *[3]string `json:"pose,omitempty"`
}

// locate sends one query and decodes the answer. A non-2xx answer is a
// failed operation.
func (r *runner) locate(d *daemon, q query) (server.LocateResponse, time.Duration, error) {
	defer r.tr.span("mapserve.locate", q.ID)()
	r.attempted++
	t := time.Now()
	status, body, err := d.post("/api/v1/buildings/"+fixtureBuilding+"/locate", "application/json", q.Body)
	lat := time.Since(t)
	var resp server.LocateResponse
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &resp)
	} else if err == nil {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		r.failed++
		return resp, lat, fmt.Errorf("locate %s: %w", q.ID, err)
	}
	return resp, lat, nil
}

func locateDuringPublish(r *runner) (measured, error) {
	served, err := r.prepareServed()
	if err != nil {
		return measured{}, err
	}
	setups, err := r.probeSetups(served)
	if err != nil {
		return measured{}, err
	}
	r.finalCorpus = append(append([]archive{}, r.fx.Walks...), r.fx.Held[:locateUploads]...)
	var cpu []float64
	n, err := r.episodes(func(ep int) error {
		defer r.tr.span("episode", fmt.Sprint(ep))()
		d, dir, first, err := r.startServed(served, &setups)
		defer os.RemoveAll(dir)
		if err != nil {
			return err
		}
		cpu0, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		next := 0
		for i := 0; i < locateQueries; i++ {
			// One held-out upload every uploadEvery queries, half a block
			// in: its delta job and publish run under the following queries.
			if i%uploadEvery == uploadEvery/2 && next < locateUploads {
				if _, err = r.upload(d, r.fx.Held[next]); err != nil {
					break
				}
				next++
			}
			resp, lat, lerr := r.locate(d, r.fx.Queries[i%len(r.fx.Queries)])
			if lerr != nil {
				err = lerr
				break
			}
			r.lats = append(r.lats, lat.Seconds()*1000)
			r.candidates = append(r.candidates, float64(resp.Candidates))
		}
		if err != nil {
			d.kill()
			return err
		}
		// The write mix is part of the workload: its CPU is counted until
		// the last upload's jobs have finished.
		s, err := d.metrics()
		if err == nil {
			_, _, err = waitIdle(d.metrics, scanCount(s), waitLimit)
		}
		if err != nil {
			d.kill()
			return err
		}
		cpu1, err := d.cpuSeconds()
		if err != nil {
			d.kill()
			return err
		}
		cpu = append(cpu, (cpu1-cpu0)*1000/locateQueries)
		// Verification pass on the settled final index: every distinct
		// query frame once. Its answers are deterministic per seed.
		if r.hitRatio, err = r.verifyPass(d); err != nil {
			d.kill()
			return err
		}
		if err := r.servedPlan(d); err != nil {
			d.kill()
			return err
		}
		r.corpusMiB = append(r.corpusMiB, archiveMiB(r.finalCorpus))
		return r.finishEpisode(d, first)
	})
	if err != nil {
		return measured{}, err
	}
	return measured{episodes: n, samples: map[string][]float64{"setup_s": setups, "locate_cpu_ms": cpu,
		"locate_ms_p10_p25_p50_p75_p90_p99": {percentile(r.lats, 10), percentile(r.lats, 25), percentile(r.lats, 50), percentile(r.lats, 75), percentile(r.lats, 90), percentile(r.lats, 99)}},
		e2e: commonMetrics(setups, percentile(r.lats, 50), median(cpu))}, nil
}

// verifyPass localizes every distinct query frame once and returns the
// hit ratio; the answers must be identical in every episode.
func (r *runner) verifyPass(d *daemon) (float64, error) {
	defer r.tr.span("verify", "")()
	answers := make([]locateAnswer, len(r.fx.Queries))
	located := 0
	for i, q := range r.fx.Queries {
		resp, _, err := r.locate(d, q)
		if err != nil {
			return 0, err
		}
		a := locateAnswer{Located: resp.Located, TrackID: resp.TrackID}
		if resp.Pose != nil {
			a.Pose = &[3]string{fmt.Sprint(resp.Pose.X), fmt.Sprint(resp.Pose.Y), fmt.Sprint(resp.Pose.Heading)}
			located++
		}
		answers[i] = a
	}
	data, err := json.Marshal(answers)
	if err != nil {
		return 0, err
	}
	if r.answers != "" && string(data) != r.answers {
		r.incorrect = true
		fmt.Fprintln(os.Stderr, "cmbench: verification-pass answers differ between episodes")
	}
	r.answers = string(data)
	return float64(located) / float64(len(r.fx.Queries)), nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolation percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
