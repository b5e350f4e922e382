package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or writes; it lives in the
// checkout the benchmark runs from.
const buildDir = ".bench_build"

// buildServer compiles cmd/tauserve from the checkout's sources.
func buildServer() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "tauserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tauserve")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building tauserve: %v\n%s", err, stderr.String())
	}
	return bin, nil
}

// serverProc is one running tauserve process.
type serverProc struct {
	cmd      *exec.Cmd
	httpBase string // http://127.0.0.1:port
	wireAddr string // 127.0.0.1:port of the binary transport
	stateDir string // "" unless durable
	done     chan struct{}
	waitErr  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs tauserve with the workload's flags and returns once
// /readyz answers 200, together with the time from exec to readiness
// (calibration included).
func startServer(bin string, w *workload, n int) (*serverProc, time.Duration, error) {
	httpPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	wirePort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	sp := &serverProc{
		httpBase: fmt.Sprintf("http://127.0.0.1:%d", httpPort),
		wireAddr: fmt.Sprintf("127.0.0.1:%d", wirePort),
		done:     make(chan struct{}),
	}
	args := []string{"-preset", "tiny", "-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-tcp-addr", sp.wireAddr}
	args = append(args, w.serverFlags...)
	if w.durable {
		sp.stateDir = filepath.Join(buildDir, fmt.Sprintf("state-%s-%d", w.name, n))
		if err := os.RemoveAll(sp.stateDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(sp.stateDir, 0o755); err != nil {
			return nil, 0, err
		}
		args = append(args, "-state-dir", sp.stateDir)
	}
	logFile, err := os.Create(filepath.Join(buildDir, fmt.Sprintf("tauserve-%s-%d.log", w.name, n)))
	if err != nil {
		return nil, 0, err
	}
	sp.cmd = exec.Command(bin, args...)
	sp.cmd.Stdout, sp.cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := sp.cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	go func() {
		sp.waitErr = sp.cmd.Wait()
		logFile.Close()
		close(sp.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-sp.done:
			return nil, 0, fmt.Errorf("tauserve exited before ready: %v", sp.waitErr)
		default:
		}
		resp, err := client.Get(sp.httpBase + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	sp.stop()
	return nil, 0, errors.New("tauserve not ready within 60s")
}

// stop asks the server to drain (SIGTERM), kills it if the drain overruns,
// waits for the process to end and removes its state directory.
func (sp *serverProc) stop() error {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process already ended
	var err error
	select {
	case <-sp.done:
		err = sp.waitErr
	case <-time.After(20 * time.Second):
		_ = sp.cmd.Process.Kill() // the wait below reports the outcome
		<-sp.done
		err = errors.New("tauserve did not drain within 20s")
	}
	if sp.stateDir != "" {
		if rmErr := os.RemoveAll(sp.stateDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+stime) / clockTicks, nil
}

// peakRSSMiB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
