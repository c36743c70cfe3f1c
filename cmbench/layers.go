package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/quality"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/hog"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/vision/wavelet"
)

// Replay sizes: how many frames the per-kernel timings and key-frame
// pairs the comparison timing cover.
const (
	replayFrames  = 48
	replayCompare = 400
)

// primaryMetric is the end-to-end figure the tracing overhead is stated
// on.
const primaryMetric = "op_wall_ms"

// spanLayers are the layers whose self time a traced run reports; a
// span's layer is its name up to the first dot.
var spanLayers = []string{"server", "sched", "mapserve", "integrity", "quality", "keyframe", "vision", "crowdmap"}

// layerMetrics computes the per-layer metrics of a traced run: diffs of
// the daemon's /metrics over the measured phases, an in-process replay
// of the workload's corpus through each layer's public functions, self
// time per layer from the spans, and the tracing overhead.
func (r *runner) layerMetrics(out, workload string, res measured) (map[string]metric, error) {
	c, h := r.layer.Counters, r.layer.Histograms
	m := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	cnt := func(k string) float64 { return float64(c[k]) }
	sum := func(k string) float64 { return h[k].Sum }
	meanMS := func(k string) float64 { return ratio(h[k].Sum*1000, float64(h[k].Count)) }
	publishes := cnt("mapserve.publishes") + cnt("mapserve.publish.unchanged")

	// Accuracy beside speed: deterministic per seed, held equal across
	// runs, reported here because it varies from seed to seed. The replay
	// adds accuracy.hallway_f.
	set("accuracy.locate_hit_ratio", r.hitRatio, "ratio")
	set("server.decoded_mib_per_cycle", ratio(cnt("sched.jobs.completed"), publishes)*mean(r.corpusMiB), "MiB")
	set("server.upload_ack_p50_ms", percentile(r.acks, 50), "ms")
	set("locate.p99_ms", percentile(r.lats, 99), "ms")
	set("daemon.rss_peak_mb", median(r.rss), "MiB")
	set("server.chunk_ms_mean", meanMS("http.captures.chunks.seconds"), "ms")
	set("server.locate_handler_ms_mean", meanMS("http.buildings.locate.seconds"), "ms")
	set("store.wal_syncs", cnt("store.wal.syncs"), "count")
	set("store.wal_sync_ms_mean", meanMS("store.wal.sync.seconds"), "ms")
	set("keyframe.extract_s", sum("stage.keyframe.extract.seconds"), "s")
	set("keyframe.kept_ratio", ratio(cnt("keyframe.kept"), cnt("keyframe.frames")), "ratio")
	set("compare.s1_pass_ratio", ratio(cnt("compare.s1.passed"), cnt("compare.s1.evaluated")), "ratio")
	set("compare.s2_pass_ratio", ratio(cnt("compare.s2.passed"), cnt("compare.s2.evaluated")), "ratio")
	set("aggregate.s", sum("stage.aggregate.seconds"), "s")
	set("aggregate.pair_cache_hit_ratio", ratio(cnt("compare.cache.hits"), cnt("compare.cache.hits")+cnt("compare.cache.misses")), "ratio")
	set("aggregate.placed_ratio", ratio(cnt("aggregate.tracks.placed"), cnt("reconstruct.captures")), "ratio")
	set("floorplan.skeleton_s", sum("stage.skeleton.seconds"), "s")
	set("rooms_s", sum("stage.rooms.seconds"), "s")
	set("rooms.observed", cnt("rooms.observed"), "count")
	set("rooms.failed", cnt("rooms.failed"), "count")
	set("place_s", sum("stage.place.seconds"), "s")
	total := sum("stage.reconstruct.total.seconds")
	set("reconstruct.total_s", total, "s")
	reused := cnt("reconstruct.delta.tracks.reused")
	set("reconstruct.delta.track_reuse_ratio", ratio(reused, reused+cnt("reconstruct.delta.tracks.extracted")), "ratio")
	set("sched.job_s", sum("sched.job.seconds"), "s")
	set("processor.overhead_s", sum("sched.job.seconds")-total, "s")
	set("sched.useful_job_ratio", ratio(cnt("reconstruct.runs"), cnt("sched.jobs.completed")), "ratio")
	set("processor.scan_ms_mean", meanMS("queue.run.seconds"), "ms")
	set("processor.scans", cnt("queue.jobs.processed"), "count")
	set("mapserve.publishes", cnt("mapserve.publishes"), "count")
	set("mapserve.publish_unchanged", cnt("mapserve.publish.unchanged"), "count")
	set("mapserve.index_cache_misses", cnt("mapserve.index.cache.misses"), "count")
	set("mapserve.locate_candidates_mean", mean(r.candidates), "count")
	set("mapserve.locate_ms_mean", meanMS("mapserve.locate.seconds"), "ms")

	replayed, err := r.replay()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for k, v := range replayed {
		set(k, v.Value, v.Unit)
	}

	self := r.tr.selfTimes()
	for _, l := range spanLayers {
		set("self."+l+"_s", self[l], "s")
	}
	overhead := 0.0
	if base, ok := loadUntraced(out, workload, r.seed)[primaryMetric]; ok && base.Value > 0 {
		overhead = res.e2e[primaryMetric].Value/base.Value - 1
		fmt.Fprintf(os.Stderr, "cmbench: tracing overhead on %s: traced %.4g vs untraced %.4g (%+.1f%%)\n",
			primaryMetric, res.e2e[primaryMetric].Value, base.Value, overhead*100)
	} else {
		fmt.Fprintf(os.Stderr, "cmbench: no untraced run of this seed yet; tracing overhead not measured\n")
	}
	set("trace.overhead_ratio", overhead, "ratio")
	if err := writeJSON(filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.json", workload, r.seed)), map[string]any{
		"spans": r.tr.spans, "layer_diff": r.layer, "e2e": res.e2e,
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// replay runs the workload's final corpus in-process through the public
// functions of each layer, timing each call under a span, and checks
// that the served plan scores the same F-measure as an in-process
// Reconstruct of that corpus.
func (r *runner) replay() (map[string]metric, error) {
	defer r.tr.span("replay", "")()
	out := map[string]metric{}
	corpus := append([]archive(nil), r.finalCorpus...)
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].ID < corpus[j].ID })

	// integrity: envelope verification over the raw archives.
	wrapped := make([][]byte, len(corpus))
	for i, a := range corpus {
		wrapped[i] = integrity.Wrap(a.Data)
	}
	t := time.Now()
	end := r.tr.span("integrity.unwrap", "")
	for _, w := range wrapped {
		if _, err := integrity.Unwrap(w); err != nil {
			return nil, err
		}
	}
	end()
	out["integrity.unwrap_ms_per_mib"] = metric{ms(time.Since(t)) / archiveMiB(corpus), "ms"}

	// server: archive decoding, the work every job repeats per capture.
	caps := make([]*crowdmap.Capture, len(corpus))
	cpu := cpuNow()
	end = r.tr.span("server.decode", "")
	for i, a := range corpus {
		c, err := server.DecodeCapture(a.Data)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", a.ID, err)
		}
		caps[i] = c
	}
	end()
	out["server.decode_cpu_ms_per_capture"] = metric{(cpuNow() - cpu) * 1000 / float64(len(caps)), "ms"}

	// quality: the reconstruction-side gate.
	qp := quality.DefaultParams()
	t = time.Now()
	end = r.tr.span("quality.gate", "")
	for _, c := range caps {
		quality.Gate(c, qp)
	}
	end()
	out["quality.gate_ms_per_capture"] = metric{ms(time.Since(t)) / float64(len(caps)), "ms"}

	// keyframe: per-capture extraction, CPU per input frame.
	cfg := crowdmap.DefaultConfig()
	kp := cfg.Keyframe
	var kfs [][]*keyframe.KeyFrame
	frames := 0
	cpu = cpuNow()
	end = r.tr.span("keyframe.extract", "")
	for _, c := range caps {
		k, _, err := keyframe.Extract(c, kp)
		if err != nil {
			return nil, fmt.Errorf("extract %s: %w", c.ID, err)
		}
		kfs = append(kfs, k)
		frames += len(c.Frames)
	}
	end()
	out["keyframe.extract_cpu_ms_per_frame"] = metric{(cpuNow() - cpu) * 1000 / float64(frames), "ms"}

	// vision/*: each feature kernel over a spread of frames.
	var sample []*img.RGB
	for i := 0; len(sample) < replayFrames; i++ {
		c := caps[i%len(caps)]
		if len(c.Frames) > 0 {
			sample = append(sample, c.Frames[(i/len(caps)*7)%len(c.Frames)].Image)
		}
	}
	kernels := []struct {
		name string
		fn   func(m *img.RGB, g *img.Gray) error
	}{
		{"surf.extract_ms", func(_ *img.RGB, g *img.Gray) error { surf.Extract(g, kp.SURF); return nil }},
		{"hog.compute_ms", func(_ *img.RGB, g *img.Gray) error { _, err := hog.Compute(g, kp.HOG); return err }},
		{"wavelet.compute_ms", func(_ *img.RGB, g *img.Gray) error { _, err := wavelet.Compute(g, kp.Wavelet); return err }},
		{"shape.compute_ms", func(_ *img.RGB, g *img.Gray) error { _, err := shape.Compute(g, kp.Shape); return err }},
		{"histogram.compute_ms", func(m *img.RGB, _ *img.Gray) error { _, err := histogram.Compute(m, kp.HistBins); return err }},
	}
	lumas := make([]*img.Gray, len(sample))
	for i, f := range sample {
		lumas[i] = f.Luma()
	}
	for _, k := range kernels {
		t = time.Now()
		end = r.tr.span("vision."+strings.SplitN(k.name, ".", 2)[0], "")
		for i, f := range sample {
			if err := k.fn(f, lumas[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", k.name, err)
			}
		}
		end()
		out[k.name] = metric{ms(time.Since(t)) / float64(len(sample)), "ms"}
	}

	// keyframe.Compare over key-frame pairs from different captures.
	n := 0
	t = time.Now()
	end = r.tr.span("keyframe.compare", "")
	for i := 0; n < replayCompare && i < replayCompare*4; i++ {
		a, b := kfs[i%len(kfs)], kfs[(i+1)%len(kfs)]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		if _, _, err := keyframe.Compare(a[(i/len(kfs))%len(a)], b[(i/len(kfs)*3)%len(b)], kp); err != nil {
			return nil, fmt.Errorf("compare: %w", err)
		}
		n++
	}
	end()
	out["keyframe.compare_us"] = metric{ms(time.Since(t)) * 1000 / float64(max(n, 1)), "us"}

	// crowdmap: the whole pipeline in-process, with the daemon's
	// settings, scored against ground truth.
	cfg.Layout.Hypotheses = daemonHypotheses(r.bin)
	end = r.tr.span("crowdmap.reconstruct", "")
	res, err := crowdmap.Reconstruct(caps, cfg)
	end()
	if err != nil {
		return nil, fmt.Errorf("reconstruct: %w", err)
	}

	// mapserve: publishing the result into a fresh read tier.
	st := store.New()
	svc, err := mapserve.New(st)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	end = r.tr.span("mapserve.publish", "")
	if _, err := svc.Publish(fixtureBuilding, res); err != nil {
		return nil, err
	}
	end()
	out["mapserve.publish_ms"] = metric{ms(time.Since(t)), "ms"}
	f, err := r.checkInProcess(svc, res)
	if err != nil {
		return nil, err
	}
	out["accuracy.hallway_f"] = metric{f, "ratio"}
	idx := 0
	for _, k := range st.Keys(mapserve.CollServe) {
		if strings.Contains(k, "/index@") {
			data, _ := st.Get(mapserve.CollServe, k)
			idx += len(data)
		}
	}
	out["mapserve.index_mib"] = metric{float64(idx) / (1 << 20), "MiB"}
	return out, nil
}

// checkInProcess compares the served plan with the in-process
// reconstruction published to a fresh read tier: the plan documents must
// be equal apart from their version numbers, so the served plan's Table I
// F-measure is crowdmap.Evaluate's on the in-process result, which it
// returns. A differing ETag with an identical plan means the served
// localization index differs; it is reported, not failed.
func (r *runner) checkInProcess(svc *mapserve.Service, res *crowdmap.Result) (float64, error) {
	view, ok := svc.Plan(fixtureBuilding)
	if !ok {
		return 0, fmt.Errorf("in-process publish left no plan")
	}
	same, err := samePlan(r.planJSON, view.JSON)
	if err != nil {
		return 0, err
	}
	if !same {
		r.incorrect = true
		fmt.Fprintln(os.Stderr, "cmbench: the served plan differs from the in-process Reconstruct of the same corpus")
	} else if etag := `"` + view.ETag + `"`; etag != r.etag {
		fmt.Fprintf(os.Stderr, "cmbench: note: plan identical, but the served ETag %s differs from the in-process one %s: the localization index differs\n", r.etag, etag)
	}
	if res.Plan.HallwayMask == nil || res.Plan.HallwayMask.Count() == 0 {
		return 0, nil
	}
	b, err := crowdmap.BuildingByName(fixtureBuilding)
	if err != nil {
		return 0, err
	}
	rep, err := crowdmap.Evaluate(res, b)
	if err != nil {
		return 0, err
	}
	return rep.Hallway.F, nil
}

// samePlan reports whether two plan documents are equal apart from their
// version numbers.
func samePlan(a, b []byte) (bool, error) {
	var da, db mapserve.PlanDoc
	if err := json.Unmarshal(a, &da); err != nil {
		return false, fmt.Errorf("decode served plan: %w", err)
	}
	if err := json.Unmarshal(b, &db); err != nil {
		return false, fmt.Errorf("decode in-process plan: %w", err)
	}
	da.Version, db.Version = 0, 0
	return reflect.DeepEqual(da, db), nil
}

// daemonHypotheses is crowdmapd's -hypotheses default, read from its
// usage text so the in-process replay reconstructs with the daemon's
// settings.
func daemonHypotheses(bin string) int {
	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	if mm := regexp.MustCompile(`-hypotheses int\n[^\n]*\(default (\d+)\)`).FindSubmatch(usage); mm != nil {
		if n, err := strconv.Atoi(string(mm[1])); err == nil {
			return n
		}
	}
	return crowdmap.DefaultConfig().Layout.Hypotheses
}

// selfTimes sums each layer's span self time: a span's duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - child[s.ID]
	}
	return out
}

// cpuNow is this process's user+sys CPU time, seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
