package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdmap/internal/obs"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one crowdmapd subprocess driven over its public HTTP API.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	log     *os.File
	started time.Time
	exited  chan error
}

// daemonOpts are the deployment flags the benchmark passes; every other
// flag keeps its default so the benchmark measures what an operator runs.
type daemonOpts struct {
	bin      string
	dataDir  string
	interval time.Duration
	// delta adds -delta, for daemons whose -h still lists it.
	delta bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// hasDeltaFlag reports whether the daemon binary still lists -delta.
func hasDeltaFlag(bin string) bool {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	return bytes.Contains(out, []byte("\n  -delta"))
}

// startDaemon launches crowdmapd on o.dataDir. Its log goes to
// <dataDir>.log next to the data directory.
func startDaemon(o daemonOpts) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-data-dir", o.dataDir, "-interval", o.interval.String()}
	if o.delta {
		args = append(args, "-delta")
	}
	logf, err := os.Create(filepath.Clean(o.dataDir) + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon never outlives the harness, even when the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
		log:    logf,
		exited: make(chan error, 1),
	}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start crowdmapd: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	return d, nil
}

// waitReady polls /readyz until it answers 200 and returns the time from
// launch to that answer.
func (d *daemon) waitReady(timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return 0, fmt.Errorf("crowdmapd exited during startup: %v (log %s)", err, d.log.Name())
		default:
		}
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("crowdmapd not ready after %v (log %s)", timeout, d.log.Name())
}

// metrics fetches and decodes GET /metrics.
func (d *daemon) metrics() (obs.Snapshot, error) { return fetchMetrics(d.client, d.base) }

// fetchMetrics reads one /metrics snapshot from the server at base.
func fetchMetrics(client *http.Client, base string) (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// cpuSeconds is the daemon's user+sys CPU time so far, all threads.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB is the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	kb, err := procStatusKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:")
	return kb / 1024, err
}

// procStatusKB reads one "Key: N kB" line of a /proc status-style file.
func procStatusKB(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// stop sends SIGTERM and waits for a graceful exit; a daemon that does
// not finish draining within the grace period is killed. Either way the
// process has ended when stop returns.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(45 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("crowdmapd did not stop within 45s; killed")
	}
}

// kill ends the daemon at once, without a drain, and waits for it.
func (d *daemon) kill() {
	defer d.log.Close()
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// get performs a GET and returns the status and body.
func (d *daemon) get(path string) (int, http.Header, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// post performs a POST and returns the status and body.
func (d *daemon) post(path, ctype string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
