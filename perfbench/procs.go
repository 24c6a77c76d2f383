package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// Server is one keyserverd process under test.
type Server struct {
	Addr string
	// Setup is the time from process start to the first 200 on /readyz.
	Setup time.Duration
	name  string
	cmd   *exec.Cmd
	log   *os.File
	done  chan struct{}
}

// serverArgs are the keyserverd flags every run shares: no rate limit
// (one client sends everything), no debug bundle, quiet logs.
var serverArgs = []string{"-rate", "0", "-q", "-debug-bundle", "", "-log-level", "error"}

// launch starts keyserverd from binDir with args on a free loopback
// port, logging to logDir, and waits until it is ready.
func launch(ctx context.Context, binDir, logDir, tag string, args []string) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &Server{Addr: addr, name: "keyserverd-" + tag, done: make(chan struct{})}
	if s.log, err = os.Create(filepath.Join(logDir, s.name+".log")); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(filepath.Join(binDir, "keyserverd"), append(append([]string{"-listen", addr}, serverArgs...), args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("start %s: %w", s.name, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.Stop()
		return nil, err
	}
	s.Setup = time.Since(start)
	return s, nil
}

// waitReady polls /readyz every 5ms until it answers 200.
func (s *Server) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get("http://" + s.Addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before ready (see its log)", s.name)
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s to be ready: %w", s.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Stop sends SIGTERM, waits for exit (SIGKILL after a grace period) and
// returns the process's peak resident set in MiB.
func (s *Server) Stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
