package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"venn/internal/client"
)

// daemonProc is one venndaemon child process under test.
type daemonProc struct {
	cmd        *exec.Cmd
	streamAddr string
	log        *os.File
	exited     chan struct{}
	waitErr    error
}

// daemonSpec is everything needed to launch one serving daemon (or a
// federation of them).
type daemonSpec struct {
	bin         string
	n           int // daemons; >1 federates them over -peers
	seed        int64
	obsSample   int // passed as -obs-sample (0 = daemon default)
	dailyBudget bool
	logDir      string
	tag         string
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemons launches spec.n daemons, each pinned to GOMAXPROCS=1 and one
// stream accept shard, and returns once every one answers a ping (and, when
// federated, sees all its peers up).
func startDaemons(spec daemonSpec) ([]*daemonProc, error) {
	streams := make([]string, spec.n)
	https := make([]string, spec.n)
	for i := range streams {
		var err error
		if streams[i], err = freeAddr(); err != nil {
			return nil, err
		}
		if https[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	var procs []*daemonProc
	for i := range streams {
		args := []string{
			"-addr", https[i],
			"-stream-addr", streams[i],
			"-stream-shards", "1",
			"-seed", strconv.FormatInt(spec.seed+int64(i)+1, 10),
		}
		if spec.obsSample != 0 {
			args = append(args, "-obs-sample", strconv.Itoa(spec.obsSample))
		}
		if !spec.dailyBudget {
			args = append(args, "-daily-budget=false")
		}
		if spec.n > 1 {
			args = append(args, "-peers", strings.Join(streams, ","), "-node-id", streams[i])
		}
		logf, err := os.Create(filepath.Join(spec.logDir, fmt.Sprintf("%s-daemon%d.log", spec.tag, i)))
		if err != nil {
			stopDaemons(procs)
			return nil, err
		}
		cmd := exec.Command(spec.bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout, cmd.Stderr = logf, logf
		// A daemon must not outlive the benchmark, however it ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			stopDaemons(procs)
			return nil, fmt.Errorf("start %s: %w", spec.bin, err)
		}
		p := &daemonProc{cmd: cmd, streamAddr: streams[i], log: logf, exited: make(chan struct{})}
		go func() { p.waitErr = cmd.Wait(); close(p.exited) }()
		procs = append(procs, p)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, p := range procs {
		c := client.NewStream(p.streamAddr, client.WithStreamConns(1), client.WithTimeout(time.Second))
		err := waitReady(c, p, spec.n, deadline)
		c.Close()
		if err != nil {
			stopDaemons(procs)
			return nil, err
		}
	}
	return procs, nil
}

func waitReady(c *client.StreamClient, p *daemonProc, n int, deadline time.Time) error {
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("daemon %s exited during start-up: %v (see %s)", p.streamAddr, p.waitErr, p.log.Name())
		default:
		}
		if c.Ping() == nil {
			if n == 1 {
				return nil
			}
			if m, err := c.Metrics(); err == nil && m.ClusterPeersUp == n-1 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready within 30s", p.streamAddr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopDaemons sends SIGTERM to every daemon and waits for each to exit (a
// graceful drain must exit 0); stragglers are killed after 15s.
func stopDaemons(procs []*daemonProc) error {
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	var errs []error
	for _, p := range procs {
		select {
		case <-p.exited:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
			errs = append(errs, fmt.Errorf("daemon %s ignored SIGTERM for 15s", p.streamAddr))
		}
		if p.waitErr != nil {
			errs = append(errs, fmt.Errorf("daemon %s exit: %v (see %s)", p.streamAddr, p.waitErr, p.log.Name()))
		}
		p.log.Close()
	}
	return errors.Join(errs...)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
