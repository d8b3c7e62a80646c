package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sparqld is one running server process.
type sparqld struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
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

// startServer starts sparqld with its default flags plus -data and a
// loopback -addr, and returns once /healthz answers, with the time from
// process start to that answer: load, Freeze and server.New.
func startServer(bin, data, logPath string) (*sparqld, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		s, d, err := tryStart(bin, data, logPath, port)
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(bin, data, logPath string, port int) (*sparqld, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-data", data, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &sparqld{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("sparqld exited during start-up: %v (see %s)", err, logPath)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("sparqld did not become ready within 60s")
}

// stop terminates the server and waits for the process to end.
func (s *sparqld) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// scrapeMetrics fetches /metrics and returns every unlabeled sample.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
