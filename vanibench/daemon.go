package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is a vanid process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	logf   *os.File
}

// startVanid starts vanid on a free loopback port with its state under
// dir and waits until /healthz answers.
func startVanid(e *env, dir string, args ...string) (*daemon, error) {
	if e.vanid == "" {
		return nil, errors.New("no vanid binary (pass -vanid)")
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "vanid.log"))
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(e.vanid, argv...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting vanid: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		logf:   logf,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
			Timeout:   120 * time.Second,
		},
	}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once stopped
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.base = "http://" + strings.TrimSpace(string(b))
			if st, _, _, err := d.do("GET", "/healthz", nil); err == nil && st == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.logf.Close()
			return nil, fmt.Errorf("vanid exited during start-up (see %s)", logf.Name())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("vanid did not become healthy within 20s")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop ends the daemon with SIGTERM (its graceful drain) and waits for it
// to exit, killing it after 15s.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
	d.client.CloseIdleConnections()
	d.logf.Close()
}

// do sends one request and reads the whole answer.
func (d *daemon) do(method, path string, body []byte) (status int, ctype string, resp []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	r, err := d.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("Content-Type"), resp, err
}

// characterize posts a trace to POST /v1/characterize and returns the
// YAML report. On a report-cache hit vanid answers with the job-status
// JSON instead of the report; the report then takes a second round trip
// to GET /v1/reports/{id}, which hit reports.
func (d *daemon) characterize(query string, body []byte) (yaml []byte, hit bool, err error) {
	path := "/v1/characterize"
	if query != "" {
		path += "?" + query
	}
	st, ct, b, err := d.do("POST", path, body)
	if err != nil {
		return nil, false, err
	}
	if st != http.StatusOK {
		return nil, false, fmt.Errorf("POST %s: status %d: %s", path, st, bytes.TrimSpace(b))
	}
	if !strings.HasPrefix(ct, "application/json") {
		return b, false, nil
	}
	var js struct {
		ReportID string `json:"report_id"`
		Status   string `json:"status"`
	}
	if err := json.Unmarshal(b, &js); err != nil || js.ReportID == "" {
		return nil, true, fmt.Errorf("POST %s: unexpected JSON answer: %s", path, bytes.TrimSpace(b))
	}
	st, _, b, err = d.do("GET", "/v1/reports/"+js.ReportID, nil)
	if err != nil {
		return nil, true, err
	}
	if st != http.StatusOK {
		return nil, true, fmt.Errorf("GET /v1/reports/%s: status %d", js.ReportID, st)
	}
	return b, true, nil
}

// metrics reads /metrics as counter name → value.
func (d *daemon) metrics() (map[string]int64, error) {
	st, _, b, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", st)
	}
	m := map[string]int64{}
	return m, json.Unmarshal(b, &m)
}

// delta is after − before for every counter.
func delta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
