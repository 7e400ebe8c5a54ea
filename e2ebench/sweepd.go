package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// pollEvery is the client's status poll interval while a resubmitted grid
// runs. It bounds how late the grid's completion can be noticed. The cache
// fill, which simulates, polls less often so the client does not compete
// with the simulation for the CPUs.
const (
	pollEvery = 2 * time.Millisecond
	fillPoll  = 20 * time.Millisecond
)

// server is one sweepd -mode=local process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	done chan struct{} // closed once the server's stdout is drained
}

func startServer(cfg config, dir string) (*server, error) {
	cmd := exec.Command(cfg.sweepd, "-mode=local", "-addr", "127.0.0.1:0", "-dir", dir,
		"-workers", strconv.Itoa(cfg.workers))
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		rd := bufio.NewReader(out)
		line, _ := rd.ReadString('\n')
		addr <- line
		_, _ = io.Copy(io.Discard, rd)
	}()
	select {
	case line := <-addr:
		_, url, ok := strings.Cut(strings.TrimSpace(line), " listening on ")
		if !ok {
			_ = s.stop()
			return nil, fmt.Errorf("sweepd announced %q", line)
		}
		s.base = url
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, errors.New("sweepd did not announce its address within 30s")
	}
	// One client connection, reused for every request.
	s.hc = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	return s, nil
}

// stop asks the server to drain and exit, kills it if it has not within
// 30 s, and waits for it.
func (s *server) stop() error {
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-s.done
		exited <- s.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		return fmt.Errorf("sweepd did not stop on SIGTERM: %v", <-exited)
	}
}

// legTimes splits one grid resubmission into its HTTP legs.
type legTimes struct {
	submit, wait, results float64 // seconds
	polls                 int
}

type legResult struct {
	legTimes
	status sweep.SweepStatus
	body   []byte
}

// submit posts spec, polls the sweep's status until it leaves "running",
// and fetches its results.json, with a span around each leg when tr is
// set.
func (s *server) submit(spec []byte, poll time.Duration, tr *tracer, parent, op int32) (legResult, error) {
	var lr legResult
	t := time.Now()
	id := tr.begin("sweepd.submit", parent, op)
	var sub struct {
		ID string `json:"id"`
	}
	err := s.do(http.MethodPost, "/sweeps", spec, http.StatusAccepted, &sub)
	tr.end(id)
	lr.submit = time.Since(t).Seconds()
	if err != nil {
		return lr, err
	}

	t = time.Now()
	id = tr.begin("sweepd.wait", parent, op)
	for {
		lr.polls++
		if err = s.do(http.MethodGet, "/sweeps/"+sub.ID, nil, http.StatusOK, &lr.status); err != nil || lr.status.State != "running" {
			break
		}
		time.Sleep(poll)
	}
	tr.end(id)
	lr.wait = time.Since(t).Seconds()
	if err != nil {
		return lr, err
	}

	t = time.Now()
	id = tr.begin("sweepd.results", parent, op)
	err = s.do(http.MethodGet, "/sweeps/"+sub.ID+"/results", nil, http.StatusOK, &lr.body)
	tr.end(id)
	lr.results = time.Since(t).Seconds()
	return lr, err
}

func (s *server) metrics() ([]obs.Metric, error) {
	var m struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	err := s.do(http.MethodGet, "/metrics", nil, http.StatusOK, &m)
	return m.Metrics, err
}

// do makes one request and decodes the response into out, or stores the
// raw body when out is a *[]byte.
func (s *server) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}
