package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/eval"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/world"
)

// hallwayFromPlanJSON scores a served vector plan (GET .../plan) with the
// paper's Table I hallway F-measure against the fixture building's ground
// truth, on a mask rebuilt from the plan's cell centres. Where rooms widen
// the plan's bounds the rebuilt lattice origin can differ from the
// original by a rounding error, which moves sample points that sit on a
// cell edge, so the figure can differ from crowdmap.Evaluate's in the
// third decimal; runs compare it only with itself. A plan without
// hallway cells scores 0.
func hallwayFromPlanJSON(body []byte) (float64, error) {
	var doc mapserve.PlanDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("decode plan: %w", err)
	}
	if len(doc.Hallway) == 0 {
		return 0, nil
	}
	mask, err := maskFromCells(doc)
	if err != nil {
		return 0, err
	}
	b, err := world.ByName(fixtureBuilding)
	if err != nil {
		return 0, err
	}
	prf, _, err := eval.HallwayShapeScore(&floorplan.Plan{HallwayMask: mask}, b, 0.25)
	if err != nil {
		return 0, fmt.Errorf("score served plan: %w", err)
	}
	return prf.F, nil
}

// maskFromCells rebuilds the hallway occupancy mask from its cell
// centers. The plan's bounds are the mask's own when no room widens
// them; otherwise the lattice origin is recovered from the cells.
func maskFromCells(doc mapserve.PlanDoc) (*gridmap.Binary, error) {
	if doc.GridRes <= 0 {
		return nil, fmt.Errorf("served plan has hallway cells but no grid resolution")
	}
	res := doc.GridRes
	origin := geom.P(doc.Bounds[0], doc.Bounds[1])
	onLattice := func(o geom.Pt) bool {
		for _, c := range doc.Hallway {
			fx := (c[0]-o.X)/res - 0.5
			fy := (c[1]-o.Y)/res - 0.5
			if math.Abs(fx-math.Round(fx)) > 1e-6 || math.Abs(fy-math.Round(fy)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if !onLattice(origin) {
		origin = geom.P(math.Inf(1), math.Inf(1))
		for _, c := range doc.Hallway {
			origin = geom.P(math.Min(origin.X, c[0]-res/2), math.Min(origin.Y, c[1]-res/2))
		}
	}
	w, h := 0, 0
	idx := make([][2]int, len(doc.Hallway))
	for i, c := range doc.Hallway {
		ix := int(math.Round((c[0]-origin.X)/res - 0.5))
		iy := int(math.Round((c[1]-origin.Y)/res - 0.5))
		if ix < 0 || iy < 0 {
			return nil, fmt.Errorf("hallway cell %v outside plan bounds", c)
		}
		idx[i] = [2]int{ix, iy}
		w, h = max(w, ix+1), max(h, iy+1)
	}
	m := &gridmap.Binary{Res: res, W: w, H: h, Cells: make([]bool, w*h)}
	m.Bounds = geom.Rect{Min: origin, Max: geom.P(origin.X+float64(w)*res, origin.Y+float64(h)*res)}
	for _, ij := range idx {
		m.Cells[ij[1]*w+ij[0]] = true
	}
	return m, nil
}

// expectation is the per-seed output every run of a workload must
// reproduce: the served plan's ETag and F-measure, and the
// verification-pass locate answers.
type expectation struct {
	ETag     string  `json:"etag"`
	HallwayF float64 `json:"hallway_f"`
	Answers  string  `json:"answers,omitempty"`
}

// checkRepeatable compares this run's outputs with the first run of the
// same workload, seed, corpus and daemon build, recording them on first
// use.
func (r *runner) checkRepeatable(workload string) error {
	h := sha256.New()
	for _, a := range r.finalCorpus {
		h.Write([]byte(a.ID + "\x00"))
	}
	path := filepath.Join(r.cache, fmt.Sprintf("expect-%s-%.12x.json", workload, h.Sum(nil)))
	got := expectation{ETag: r.etag, HallwayF: r.hallwayF, Answers: r.answers}
	if data, err := os.ReadFile(path); err == nil {
		var want expectation
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case want.ETag != got.ETag:
			return fmt.Errorf("final ETag %s, an earlier run of this seed served %s", got.ETag, want.ETag)
		case want.HallwayF != got.HallwayF:
			return fmt.Errorf("hallway F %v, an earlier run of this seed scored %v", got.HallwayF, want.HallwayF)
		case want.Answers != got.Answers:
			return fmt.Errorf("verification-pass locate answers differ from an earlier run of this seed")
		}
		return nil
	}
	return writeJSON(path, got)
}

// untracedPath holds the end-to-end figures of the last untraced run of
// a workload and seed, for the traced run's overhead figure and the
// start-of-run memory check.
func untracedPath(out, workload string, seed int64) string {
	return filepath.Join(out, "untraced", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

func saveUntraced(out, workload string, seed int64, e2e map[string]metric) {
	if err := writeJSON(untracedPath(out, workload, seed), e2e); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench: save untraced figures:", err)
	}
}

func loadUntraced(out, workload string, seed int64) map[string]metric {
	data, err := os.ReadFile(untracedPath(out, workload, seed))
	if err != nil {
		return nil
	}
	var m map[string]metric
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	return m
}

// recordedRSS is the workload's rss_peak_mb from an earlier run of this
// seed (0 when there is none).
func recordedRSS(out, workload string, seed int64) float64 {
	return loadUntraced(out, workload, seed)["rss_peak_mb"].Value
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
