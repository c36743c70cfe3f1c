package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdmap"
	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/keyframe"
)

const serveBuilding = "Lab2"

// serveResult wraps one extracted capture in a completed-reconstruction
// shape: a single placed track over a small hallway plan.
func serveResult(t *testing.T, c *crowd.Capture, rooms []floorplan.Room) (*crowdmap.Result, []*keyframe.KeyFrame) {
	t.Helper()
	kfs, traj, err := keyframe.Extract(c, keyframe.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mask := &gridmap.Binary{Bounds: geom.R(0, 0, 10, 8), Res: 1, W: 10, H: 8, Cells: make([]bool, 80)}
	for x := 1; x < 9; x++ {
		mask.Cells[3*10+x] = true
	}
	res := &crowdmap.Result{
		Plan:        &floorplan.Plan{Building: serveBuilding, HallwayMask: mask, Rooms: rooms},
		Tracks:      []*crowdmap.Track{{ID: c.ID, Traj: traj, KFs: kfs}},
		Aggregation: &aggregate.Result{Offsets: map[int]geom.Pt{0: geom.P(0, 0)}},
	}
	return res, kfs
}

// newMapServer boots a server with the read tier attached and one
// published plan version.
func newMapServer(t *testing.T) (*mapserve.Service, *httptest.Server, *crowd.Capture, []*keyframe.KeyFrame) {
	t.Helper()
	ms, err := mapserve.New(store.New())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(store.New(), WithMapServe(ms))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := testCapture(t)
	res, kfs := serveResult(t, c, nil)
	if _, err := ms.Publish(serveBuilding, res); err != nil {
		t.Fatal(err)
	}
	return ms, ts, c, kfs
}

func getPlan(t *testing.T, ts *httptest.Server, path, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPlanEndpointConditionalGet(t *testing.T) {
	ms, ts, _, _ := newMapServer(t)
	view, _ := ms.Plan(serveBuilding)
	for _, art := range []struct {
		name, contentType string
		want              []byte
	}{
		{"plan", "application/json", view.JSON},
		{"plan.svg", "image/svg+xml", view.SVG},
	} {
		path := "/api/v1/buildings/" + serveBuilding + "/" + art.name

		resp := getPlan(t, ts, path, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s GET = %d", art.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != art.contentType {
			t.Errorf("%s Content-Type = %q", art.name, ct)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(etag, `"`) {
			t.Fatalf("%s ETag = %q, want quoted entity-tag", art.name, etag)
		}
		if etag != `"`+view.ETag+`"` {
			t.Errorf("%s ETag = %s, want the version's %q", art.name, etag, view.ETag)
		}
		if v := resp.Header.Get("X-Plan-Version"); v != "1" {
			t.Errorf("%s X-Plan-Version = %q, want 1", art.name, v)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Errorf("%s Cache-Control = %q", art.name, cc)
		}
		if !bytes.Equal(body, art.want) {
			t.Errorf("%s body differs from the published artifact (%d vs %d bytes)", art.name, len(body), len(art.want))
		}

		// Matching If-None-Match revalidates for free.
		for _, inm := range []string{etag, "W/" + etag, `"zzz", ` + etag, "*"} {
			resp := getPlan(t, ts, path, inm)
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Errorf("%s If-None-Match %q: status %d, want 304", art.name, inm, resp.StatusCode)
			}
			if len(b) != 0 {
				t.Errorf("%s If-None-Match %q: 304 carried %d body bytes", art.name, inm, len(b))
			}
			if got := resp.Header.Get("ETag"); got != etag {
				t.Errorf("%s 304 ETag = %q, want %q", art.name, got, etag)
			}
		}

		// A stale tag still gets the full representation.
		resp = getPlan(t, ts, path, `"0000"`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s stale If-None-Match: status %d, want 200", art.name, resp.StatusCode)
		}

		// Unknown building: 404.
		resp = getPlan(t, ts, "/api/v1/buildings/nowhere/"+art.name, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown building = %d, want 404", art.name, resp.StatusCode)
		}
	}

	var doc map[string]any
	if err := json.Unmarshal(view.JSON, &doc); err != nil {
		t.Fatalf("plan not JSON: %v", err)
	}
	if doc["building"] != serveBuilding || doc["version"] != float64(1) {
		t.Errorf("doc identity = %v/%v", doc["building"], doc["version"])
	}
	if !bytes.HasPrefix(view.SVG, []byte("<svg")) {
		t.Errorf("plan.svg does not start with an <svg> element: %.40q", view.SVG)
	}
}

func TestPlanPNGEndpoint(t *testing.T) {
	_, ts, _, _ := newMapServer(t)
	path := "/api/v1/buildings/" + serveBuilding + "/plan.png"
	resp := getPlan(t, ts, path, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan.png GET = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Errorf("body is not a PNG: %v", err)
	}
	etag := resp.Header.Get("ETag")
	resp2 := getPlan(t, ts, path, etag)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("png If-None-Match: %d, want 304", resp2.StatusCode)
	}
}

func TestPlanVersionBumpInvalidatesETag(t *testing.T) {
	ms, ts, c, _ := newMapServer(t)
	path := "/api/v1/buildings/" + serveBuilding + "/plan"
	resp := getPlan(t, ts, path, "")
	resp.Body.Close()
	etag := resp.Header.Get("ETag")

	// A delta cycle changes the plan; the served version bumps and the
	// client's cached tag stops revalidating.
	room := floorplan.Room{ID: "r1", Center: geom.P(5, 5.5), Width: 2, Length: 3}
	changed, _ := serveResult(t, c, []floorplan.Room{room})
	if _, err := ms.Publish(serveBuilding, changed); err != nil {
		t.Fatal(err)
	}
	resp = getPlan(t, ts, path, etag)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale tag after republish: %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag || got == "" {
		t.Errorf("ETag unchanged after content change: %q", got)
	}
	if v := resp.Header.Get("X-Plan-Version"); v != "2" {
		t.Errorf("X-Plan-Version = %q, want 2", v)
	}
}

func locateBody(t *testing.T, c *crowd.Capture, kf *keyframe.KeyFrame) []byte {
	t.Helper()
	var frame *crowd.VideoFrame
	for i := range c.Frames {
		if c.Frames[i].T == kf.T {
			frame = &c.Frames[i]
			break
		}
	}
	if frame == nil {
		t.Fatal("no source frame for key-frame")
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, toImage(frame.Image)); err != nil {
		t.Fatal(err)
	}
	req := LocateRequest{FramePNG: base64.StdEncoding.EncodeToString(buf.Bytes())}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postLocate(t *testing.T, ts *httptest.Server, building string, body []byte) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/api/v1/buildings/"+building+"/locate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLocateEndpoint(t *testing.T) {
	_, ts, c, kfs := newMapServer(t)
	kf := kfs[len(kfs)/2]
	resp := postLocate(t, ts, serveBuilding, locateBody(t, c, kf))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("locate = %d: %s", resp.StatusCode, b)
	}
	var lr LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Located || lr.Pose == nil {
		t.Fatalf("locate response = %+v, want located with pose", lr)
	}
	if d := geom.P(lr.Pose.X, lr.Pose.Y).Dist(kf.LocalPos); d > 1e-6 {
		t.Errorf("pose %.3fm from key-frame position", d)
	}
	if lr.Version != 1 || lr.ETag == "" || lr.TrackID != c.ID {
		t.Errorf("answer identity = v%d etag=%q track=%q", lr.Version, lr.ETag, lr.TrackID)
	}
}

func TestLocateEndpointErrors(t *testing.T) {
	_, ts, c, kfs := newMapServer(t)
	good := locateBody(t, c, kfs[0])

	cases := []struct {
		name     string
		building string
		body     []byte
		want     int
	}{
		{"unknown building", "nowhere", good, http.StatusNotFound},
		{"malformed json", serveBuilding, []byte("{nope"), http.StatusUnprocessableEntity},
		{"bad base64", serveBuilding, []byte(`{"frame_png":"!!!"}`), http.StatusUnprocessableEntity},
		{"not a png", serveBuilding, []byte(`{"frame_png":"` + base64.StdEncoding.EncodeToString([]byte("text")) + `"}`), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp := postLocate(t, ts, tc.building, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestReadTierDisabledReturns404(t *testing.T) {
	// A server built without WithMapServe still registers the routes but
	// answers 404: the API surface is configuration-independent.
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/api/v1/buildings/x/plan",
		"/api/v1/buildings/x/plan.png",
		"/api/v1/buildings/x/plan.svg",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without read tier = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/api/v1/buildings/x/locate", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("locate without read tier = %d, want 404", resp.StatusCode)
	}
}
