package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jsrevealer/internal/triage"
)

// Paths under the checkout, relative to the repository root the benchmark
// runs from. bench/run.sh builds the two binaries.
const (
	buildDir  = ".bench_build"
	serverBin = buildDir + "/jsrevealer"
	outDir    = buildDir + "/out" // result and span files
)

// fixtureArgs train the fixture model: the CLI's defaults except corpus
// size and seed. A test-sized model would understate the core stage.
var fixtureArgs = []string{"train", "-benign", "100", "-malicious", "100", "-seed", "7"}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fixtureModel returns the path and sha256 of the fixture model trained by
// the current server binary, training it (about 8 s, untimed) the first time
// that binary is seen.
func fixtureModel() (path, sum string, err error) {
	binSum, err := fileSHA256(serverBin)
	if err != nil {
		return "", "", fmt.Errorf("%w (build it with bench/run.sh)", err)
	}
	path = filepath.Join(buildDir, "model-"+binSum[:16]+".json")
	if _, err := os.Stat(path); err != nil {
		tmp := path + ".tmp"
		cmd := exec.Command(serverBin, append(fixtureArgs, "-model", tmp)...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("train fixture model: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return "", "", err
		}
	}
	sum, err = fileSHA256(path)
	return path, sum, err
}

// server is one running `jsrevealer serve` child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	dir    string // scratch: ready file and log
	exited chan struct{}
}

// serverArgs are the flags of w's server; dir holds its ready file.
func serverArgs(w *workload, model, dir string) []string {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-model", model,
		"-ready-file", filepath.Join(dir, "addr"), "-log-level", "warn"}
	if w.triage {
		args = append(args, "-triage-threshold", strconv.FormatFloat(triage.DefaultThreshold, 'f', -1, 64))
	}
	if w.rules {
		args = append(args, "-rules-dir", rulesDir)
	}
	return args
}

// startServer execs a server for w in a fresh scratch directory and waits
// until /healthz answers 200. The returned duration runs from exec to that
// answer: model load, shadow validation and rules load.
func startServer(w *workload, model, scratch string) (*server, time.Duration, error) {
	dir, err := os.MkdirTemp(scratch, "server-")
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	s := &server{dir: dir, exited: make(chan struct{})}
	// The server runs at nice 10 so that, when it keeps both CPUs busy, the
	// load generator's wake-ups preempt it; at equal priority the scheduler
	// delays them by milliseconds and the generator, not the server, would
	// set the pace.
	s.cmd = exec.Command("nice", append([]string{"-n", "10", serverBin}, serverArgs(w, model, dir)...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the server goes too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-s.exited:
			log, _ := os.ReadFile(logf.Name())
			return nil, 0, fmt.Errorf("server exited during start-up: %s", bytes.TrimSpace(log))
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("server did not become healthy within 60s")
		}
		if s.base == "" {
			if addr, err := os.ReadFile(filepath.Join(dir, "addr")); err == nil && len(addr) > 0 {
				s.base = "http://" + string(addr)
			}
		}
		if s.base != "" {
			if resp, err := hc.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// stop terminates the server gracefully (SIGKILL after 15 s), waits for it to
// exit, and removes its scratch directory.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.dir)
}

// rssEvery is how often sampleRSS reads the server's resident set size.
const rssEvery = 100 * time.Millisecond

// sampleRSS reads the server's resident set size (VmRSS) every rssEvery
// until the returned function is first called, which stops the sampler and
// returns the median in MB with the sample count. The median of samples,
// not the peak (VmHWM): the peak is set by the model load at start-up and
// moves with the garbage collector's timing.
func (s *server) sampleRSS() func() (float64, int, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	var err error
	go func() {
		defer close(done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var mb float64
				if mb, err = s.rss(); err != nil {
					return
				}
				samples = append(samples, mb)
			}
		}
	}()
	var once sync.Once
	return func() (float64, int, error) {
		once.Do(func() {
			close(stop)
			<-done
			if err == nil && len(samples) == 0 {
				err = errors.New("no RSS samples")
			}
		})
		return median(samples), len(samples), err
	}
}

// rss reads the server's resident set size in MB.
func (s *server) rss() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// scrape reads /metrics into a map from series (name plus labels) to value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric family.
func family(m map[string]float64, name string) float64 {
	sum := 0.0
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}
