// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload against the real keyserverd binary, checks every
// verdict against the classes its seeded generators planted, and prints
// one JSON result as its last line.
//
//	perfbench --workload novel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run plus an
// in-process replay of the same inputs through each layer, and writes a
// Chrome trace_event file. See README.md for the workloads, the metrics
// and which layer should move which end-to-end figure.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: novel or members")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Int("seconds", 10, "length of the timed read phases")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding the built keyserverd")
		workRoot = flag.String("work", ".bench_build/run", "directory for the run's corpus, logs and trace")
	)
	flag.Parse()
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload novel|members, --seconds >= 2, --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	workDir := filepath.Join(*workRoot, fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	out, err := run(ctx, w, *seed, *seconds, *trace == 1, *binDir, workDir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w (logs in %s)", w.Name, err, workDir))
	}
	correct := out.Wrong == 0 && out.Failed == 0
	for _, e := range out.Errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	info := map[string]any{
		"workload":   w.Name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"provenance": provenance(),
		"detail":     out.Detail,
		"wrong":      out.Wrong,
	}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	res := resultJSON{Correct: correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricJSON{}}
	for _, m := range out.Metrics {
		res.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if correct {
		os.RemoveAll(workDir)
	} else {
		os.Exit(1)
	}
}

func run(ctx context.Context, w Workload, seed int64, seconds int, traced bool, binDir, workDir string) (*Outcome, error) {
	if _, err := os.Stat(filepath.Join(binDir, "keyserverd")); err != nil {
		return nil, fmt.Errorf("missing binary: %w", err)
	}
	in, err := prepare(w, seed, seconds, workDir)
	if err != nil {
		return nil, err
	}
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.NewTracer()
	}
	out, err := Serve(ctx, w, seed, seconds, in, tr, binDir, workDir)
	if err != nil {
		return nil, err
	}
	for k, v := range in.params {
		out.Detail[k] = v
	}
	if traced {
		if err := Replay(ctx, w, seed, in, tr, out); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		path := filepath.Join(filepath.Dir(workDir), fmt.Sprintf("trace-%s-%d.json", w.Name, seed))
		if err := tr.WriteFile(path); err != nil {
			return nil, err
		}
		out.Detail["trace_file"] = path
		out.Detail["self_us"] = selfTimes(tr)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// provenance records what produced a result.
func provenance() map[string]any {
	p := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		p["commit"] = strings.TrimSpace(string(b))
	}
	if s := os.Getenv("PERFBENCH_SOURCE"); s != "" {
		p["source_digest"] = s
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
