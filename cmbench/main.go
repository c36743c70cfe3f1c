// Command cmbench is the crowdmapd benchmark. It builds nothing itself:
// run.sh builds this harness and cmd/crowdmapd from the checkout, then
// runs one workload against the daemon as a subprocess, driving it only
// over its public HTTP API, and prints one JSON result line.
//
//	bash cmbench/run.sh --workload delta_stream --seed 3 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// completion-signal rule.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the crowdmap checkout")
		bin      = flag.String("daemon", "", "crowdmapd binary built from the checkout")
		workload = flag.String("workload", "", "cold_rebuild | delta_stream | locate_during_publish")
		seed     = flag.Int64("seed", 1, "workload seed: the uploaded walks and the queries are rendered from it")
		seconds  = flag.Int("seconds", 20, "measuring time; whole episodes run until it is used")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*root, *bin, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

// fileHash is the hex SHA-256 of a file.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func run(root, bin, workload string, seed int64, seconds time.Duration, traced bool) error {
	wl, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if bin == "" {
		return fmt.Errorf("-daemon is required")
	}
	out := filepath.Join(root, ".bench_build")
	hostStart := stampHost()
	if need := recordedRSS(out, workload, seed); need > 0 && hostStart.MemAvailableMiB < need {
		fmt.Fprintf(os.Stderr, "cmbench: warning: MemAvailable %.0f MiB is below this workload's recorded rss_peak_mb %.0f\n",
			hostStart.MemAvailableMiB, need)
		hostStart.LowMemory = true
	}
	fx, fxTime, err := loadFixture(filepath.Join(out, "fixtures"), seed, wl.queries)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	fmt.Fprintf(os.Stderr, "cmbench: fixture seed %d ready in %v (%d walks, %d visits, %d held-out, %d queries)\n",
		seed, fxTime.Round(time.Millisecond), len(fx.Walks), len(fx.Visits), len(fx.Held), len(fx.Queries))
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	binHash, err := fileHash(bin)
	if err != nil {
		return err
	}
	r := &runner{
		bin:       bin,
		work:      work,
		baseCache: filepath.Join(out, "prepared", fmt.Sprintf("%.16s-%s-base", binHash, fixtureVersion)),
		cache:     filepath.Join(out, "prepared", fmt.Sprintf("%.16s-%s-seed%d", binHash, fixtureVersion, seed)),
		fx:        fx,
		seed:      seed,
		seconds:   seconds,
		interval:  time.Second,
		delta:     hasDeltaFlag(bin),
		tr:        newTracer(traced),
	}
	res, err := wl.run(r)
	if err != nil {
		return err
	}
	hostEnd := stampHost()
	if err := r.checkRepeatable(workload); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench: correctness:", err)
		r.incorrect = true
	}
	metrics := res.e2e
	if traced {
		metrics, err = r.layerMetrics(out, workload, res)
		if err != nil {
			return err
		}
	}
	// The untraced record also keeps the peak RSS, for the start-of-run
	// memory check of later runs.
	record := maps.Clone(res.e2e)
	record["rss_peak_mb"] = metric{median(r.rss), "MiB"}
	if !traced {
		saveUntraced(out, workload, seed, record)
	}
	info := map[string]any{
		"workload": workload, "seed": seed, "traced": traced, "delta_flag": r.delta,
		"episodes": res.episodes, "host_start": hostStart, "host_end": hostEnd,
		"final_etag": r.etag, "hallway_f": r.hallwayF, "measured": record, "samples": res.samples,
	}
	if data, err := json.Marshal(info); err == nil {
		fmt.Println(string(data))
	}
	line, err := json.Marshal(result{
		Correct:   !r.incorrect && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
