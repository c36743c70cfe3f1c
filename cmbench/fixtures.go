package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

// Corpus shape. Every run serves the same building, Lab2, whose hallway
// is one straight corridor. Its base corpus is fixed: base walks and
// room visits rendered from baseSeed, the captures already uploaded when
// a workload starts. Fixed, because a seed that flipped whether a base
// track was placed moved every cost downstream by up to a third (see
// README.md). The run's seed draws what arrives on top of it:
// held-out walks that the workloads upload, and query walks that are
// never uploaded, whose frames become localization queries. A seed
// draws the users and where each of its walks starts (within its
// stratum) and ends; every walk covers walkMeters eastward and is cut
// to walkFrames frames, so a seed changes where people walked but not
// how much video an upload carries. Walks share a direction because
// key-frames facing opposite ways never match. Captures are daytime
// ones: night video carries far fewer features.
const (
	fixtureVersion  = "v13"
	fixtureBuilding = "Lab2"
	baseSeed        = 2
	querySeedOffset = 1 << 32
	baseWalks       = 7
	baseVisits      = 3
	heldWalks       = 6
	queryWalks      = 8
	walkMeters      = 24
	walkFrames      = 32
	// queryFrames is the number of distinct localization query frames.
	queryFrames  = 160
	fixtureFPS   = 2
	fixtureUsers = 5
)

// archive is one encoded capture upload.
type archive struct {
	ID   string
	Data []byte
}

// fixture is everything a run sends, encoded before any timer starts:
// the fixed base corpus (Walks, Visits) and the seed's arrivals (Held,
// Queries).
type fixture struct {
	Walks   []archive
	Visits  []archive
	Held    []archive
	Queries []query
}

// query is one encoded POST /locate body.
type query struct {
	ID   string // source capture and frame index
	Body []byte
}

// loadFixture returns the base corpus, the seed's held-out walks and,
// when queries is set, its locate bodies, from the cache under dir,
// rendering and caching each part on first use. Rendering is the
// expensive part (seconds per capture) and is excluded from every
// metric.
func loadFixture(dir string, seed int64, queries bool) (*fixture, time.Duration, error) {
	start := time.Now()
	base, err := cachedRender(filepath.Join(dir, fixtureVersion+"-base.json"), renderBase)
	if err != nil {
		return nil, 0, err
	}
	held, err := cachedRender(filepath.Join(dir, fmt.Sprintf("%s-seed%d-held.json", fixtureVersion, seed)),
		func() (*fixture, error) { return renderHeld(seed) })
	if err != nil {
		return nil, 0, err
	}
	f := &fixture{Walks: base.Walks, Visits: base.Visits, Held: held.Held}
	if queries {
		q, err := cachedRender(filepath.Join(dir, fmt.Sprintf("%s-seed%d-queries.json", fixtureVersion, seed)),
			func() (*fixture, error) { return renderQueries(seed) })
		if err != nil {
			return nil, 0, err
		}
		f.Queries = q.Queries
	}
	return f, time.Since(start), nil
}

// cachedRender reads a fixture part from path, rendering and writing it
// on first use.
func cachedRender(path string, render func() (*fixture, error)) (*fixture, error) {
	if data, err := os.ReadFile(path); err == nil {
		var f fixture
		if err := json.Unmarshal(data, &f); err == nil {
			return &f, nil
		}
	}
	f, err := render()
	if err != nil {
		return nil, err
	}
	return f, writeJSON(path, f)
}

// renderer draws the captures of one fixture part from its own random
// stream.
type renderer struct {
	b     *world.Building
	gen   *crowd.Generator
	users []*crowd.User
	rng   *rand.Rand
}

func newRenderer(seed int64) (*renderer, error) {
	b, err := world.ByName(fixtureBuilding)
	if err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(seed)
	users, err := crowd.NewPopulation(fixtureUsers, 0, rng)
	if err != nil {
		return nil, err
	}
	gen, err := crowd.NewGenerator(b)
	if err != nil {
		return nil, err
	}
	gen.FPS = fixtureFPS
	return &renderer{b: b, gen: gen, users: users, rng: rng}, nil
}

// walks renders n eastward corridor walks numbered from first. Their
// starts lie in n strata of equal width along the corridor, one walk
// per stratum, so every seed covers the corridor alike: with starts
// drawn freely, which walks overlapped changed the placed share and the
// cost downstream from one seed to the next.
func (r *renderer) walks(first, n int) ([]*crowdmap.Capture, error) {
	hall := r.b.HallwayRects[0]
	span := hall.W() - 1 - walkMeters
	var out []*crowdmap.Capture
	for k := 0; k < n; k++ {
		x0 := hall.Min.X + 0.5 + (float64(k)+r.rng.Float64())/float64(n)*span
		y := func() float64 { return hall.Min.Y + 0.4 + r.rng.Float64()*(hall.H()-0.8) }
		from, to := geom.P(x0, y()), geom.P(x0+walkMeters, y())
		id := fmt.Sprintf("%s-sws-%03d", r.b.Name, first+k)
		c, err := r.gen.SWS(id, r.users[(first+k-1)%len(r.users)], from, to, r.rng)
		if err != nil {
			return nil, err
		}
		out = append(out, cutCapture(c, walkFrames))
	}
	return out, nil
}

// renderBase renders the fixed base corpus: baseWalks corridor walks and
// baseVisits room visits.
func renderBase() (*fixture, error) {
	r, err := newRenderer(baseSeed)
	if err != nil {
		return nil, err
	}
	walks, err := r.walks(1, baseWalks)
	if err != nil {
		return nil, err
	}
	f := &fixture{}
	if f.Walks, err = encodeAll(walks); err != nil {
		return nil, err
	}
	var visits []*crowdmap.Capture
	for i := 0; i < baseVisits; i++ {
		c, err := r.gen.Visit(fmt.Sprintf("%s-visit-%03d", r.b.Name, i+1), r.users[i%len(r.users)], r.b.Rooms[i%len(r.b.Rooms)], r.rng)
		if err != nil {
			return nil, err
		}
		visits = append(visits, c)
	}
	f.Visits, err = encodeAll(visits)
	return f, err
}

// renderHeld renders the seed's held-out walks.
func renderHeld(seed int64) (*fixture, error) {
	r, err := newRenderer(seed)
	if err != nil {
		return nil, err
	}
	held, err := r.walks(baseWalks+1, heldWalks)
	if err != nil {
		return nil, err
	}
	f := &fixture{}
	f.Held, err = encodeAll(held)
	return f, err
}

// renderQueries renders the seed's query walks, from a random stream of
// their own, and encodes locate bodies of their frames.
func renderQueries(seed int64) (*fixture, error) {
	r, err := newRenderer(seed + querySeedOffset)
	if err != nil {
		return nil, err
	}
	queries, err := r.walks(baseWalks+heldWalks+1, queryWalks)
	if err != nil {
		return nil, err
	}
	f := &fixture{}
	// Query frames: evenly spaced over the never-uploaded walks.
	type src struct {
		c *crowdmap.Capture
		i int
	}
	var pool []src
	for _, c := range queries {
		for i := range c.Frames {
			pool = append(pool, src{c, i})
		}
	}
	if len(pool) < queryFrames {
		return nil, fmt.Errorf("query walks have %d frames, need %d", len(pool), queryFrames)
	}
	for k := 0; k < queryFrames; k++ {
		s := pool[k*len(pool)/queryFrames]
		body, err := locateBody(s.c.Frames[s.i].Image)
		if err != nil {
			return nil, err
		}
		f.Queries = append(f.Queries, query{ID: fmt.Sprintf("%s#%d", s.c.ID, s.i), Body: body})
	}
	return f, nil
}

// encodeAll encodes captures as upload archives.
func encodeAll(cs []*crowdmap.Capture) ([]archive, error) {
	out := make([]archive, len(cs))
	for i, c := range cs {
		data, err := server.EncodeCapture(c)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", c.ID, err)
		}
		out[i] = archive{ID: c.ID, Data: data}
	}
	return out, nil
}

// cutCapture keeps the first n frames of a capture and the inertial and
// truth samples up to the first dropped frame, as if the user had
// stopped recording there.
func cutCapture(c *crowdmap.Capture, n int) *crowdmap.Capture {
	out := *c
	if len(c.Frames) <= n {
		return &out
	}
	end := c.Frames[n].T
	out.Frames = c.Frames[:n]
	out.IMU = nil
	for _, s := range c.IMU {
		if s.T < end {
			out.IMU = append(out.IMU, s)
		}
	}
	out.Truth = nil
	for _, s := range c.Truth {
		if s.T < end {
			out.Truth = append(out.Truth, s)
		}
	}
	return &out
}

// locateBody encodes a POST /locate request for one frame.
func locateBody(m *img.RGB) ([]byte, error) {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: to8(r), G: to8(g), B: to8(b), A: 255})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, out); err != nil {
		return nil, fmt.Errorf("encode query frame: %w", err)
	}
	return json.Marshal(server.LocateRequest{FramePNG: base64.StdEncoding.EncodeToString(buf.Bytes())})
}

// to8 quantizes a [0,1] channel the way the upload archive encoder does.
func to8(v float64) uint8 {
	switch {
	case v <= 0:
		return 0
	case v >= 1:
		return 255
	}
	return uint8(v*255 + 0.5)
}

// archiveMiB is the total size of the archives.
func archiveMiB(as []archive) float64 {
	n := 0
	for _, a := range as {
		n += len(a.Data)
	}
	return float64(n) / (1 << 20)
}
