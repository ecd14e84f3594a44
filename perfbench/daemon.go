package main

import (
	"bufio"
	"bytes"
	"context"
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

// A daemon is one partitiond child process at its default flags, with
// a fresh store directory of its own.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	client  *http.Client
	started time.Time
	exited  chan struct{}
	waitErr error
}

// startDaemon launches partitiond and returns once /readyz answers 200.
// The client it carries keeps at most conns connections to the daemon.
func startDaemon(c *config, dir string, conns int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "partitiond.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(c.bin, "partitiond"),
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-store", filepath.Join(dir, "store"),
		"-log-level", "warn")
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("partitiond did not become ready within 30s")
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("partitiond exited during start-up: %v (log in %s)", d.waitErr, dir)
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if status, _, err := d.do("GET", "/readyz", nil); err == nil && status == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 response into v.
func (d *daemon) getJSON(path string, v any) error {
	status, b, err := d.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, b)
	}
	return json.Unmarshal(b, v)
}

// stop drains the daemon with SIGTERM, waits for it to exit, and
// returns its peak resident set size in MiB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, errors.New("partitiond did not drain within 60s")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("partitiond exit: %w", d.waitErr)
	}
	return peakRSS(d.cmd.ProcessState), nil
}

// kill ends the daemon without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// peakRSS is a finished child's maximum resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// An sseEvent is one event from /v1/plan/changes?stream=sse with the
// time it was read.
type sseEvent struct {
	kind string // "epoch" or "gap"
	data []byte
	at   time.Time
}

// subscribe opens the SSE change feed from sinceEpoch on a connection
// of its own and delivers events on the returned channel until ctx is
// cancelled or the stream ends; the channel then closes.
func (d *daemon) subscribe(ctx context.Context, sinceEpoch int64) (<-chan sseEvent, error) {
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/v1/plan/changes?stream=sse&since_epoch=%d", d.base, sinceEpoch), nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	// The buffer holds every event of a run: the writer waits for each
	// epoch before the next mutation, so at most a handful are pending.
	ch := make(chan sseEvent, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && ev.kind != "":
				ev.at = time.Now()
				select {
				case ch <- ev:
				case <-ctx.Done():
					return
				}
				ev = sseEvent{}
			}
		}
	}()
	return ch, nil
}
