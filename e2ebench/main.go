// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload through a fixed phase script — emserve's first boot, a
// fixed number of logged writes, then rounds of batch Match, crash
// recovery that replays the logged writes and a fixed number of
// durable writes, then mixed reads and writes through the HTTP front
// door for a fixed time.
// It checks every answer against a model built apart from the program,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output.
//
//	go run ./e2ebench --workload bigclass --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// reference figures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"match_s", "s"},
	{"match_par_s", "s"},
	{"write_p50_ms", "ms"},
	{"write_dps", "deltas/s"},
	{"read_p50_us", "us"},
	{"restart_s", "s"},
	{"disk_mb", "MB"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.load_s", "s"},
	{"graph.plan_us_per_delta", "us"},
	{"graph.commit_wait_us_per_delta", "us"},
	{"graph.lower_us_per_delta", "us"},
	{"graph.plan_retries", "count"},
	{"match.candidates", "count"},
	{"match.stream_s", "s"},
	{"match.postings_scanned", "count"},
	{"chase.run_s", "s"},
	{"chase.key_checks", "count"},
	{"chase.key_checks_par", "count"},
	{"chase.par_work_ratio", "ratio"},
	{"chase.identified_per_check", "ratio"},
	{"eqrel.pairs", "count"},
	{"eqrel.pairs_s", "s"},
	{"engine.parallel_items", "count"},
	{"engine.pool_steals", "count"},
	{"inc.checked_per_delta", "count"},
	{"inc.region_per_delta", "count"},
	{"inc.deltas_per_repair", "ratio"},
	{"wal.fsyncs_per_delta", "ratio"},
	{"wal.group_size", "count"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_delta", "B"},
	{"wal.snapshot_s", "s"},
	{"wal.snapshot_mb", "MB"},
	{"wal.open_s", "s"},
	{"graphkeys.open_s", "s"},
	{"graphkeys.apply_batch_ms", "ms"},
	{"graphkeys.writer_batch_size", "count"},
	{"graphkeys.result_s", "s"},
	{"graphkeys.same_us", "us"},
	{"serve.same_us", "us"},
	{"serve.apply_ms", "ms"},
	{"serve.read_p99_us", "us"},
	{"serve.read_qps", "reads/s"},
}

func main() {
	name := flag.String("workload", "", "workload: bigclass, chains or ingest")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "seconds of load the write and the mixed phase are sized for")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	sz, ok := fullSizes[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want bigclass, chains or ingest)\n", *name)
		os.Exit(2)
	}
	root := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	err := execute(os.Stdout, os.Stderr, *name, *seed, sz, *seconds, *trace == 1, root)
	if rerr := os.RemoveAll(root); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute generates the workload, runs the phase script in root and
// prints the report line and the result line to out, and a readable
// summary to log.
func execute(out, log io.Writer, name string, seed int64, sz sizes, seconds float64, trace bool, root string) error {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return err
	}
	b := newBench(w, seconds, trace, root)
	steal0, stealOK := stealSeconds()
	if err := b.run(); err != nil {
		return err
	}
	if steal1, ok := stealSeconds(); ok && stealOK {
		// CPU time the hypervisor gave to other guests during the run:
		// a run with much of it was measured on a busy host.
		b.info["host_steal_s"] = steal1 - steal0
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: len(b.failures) == 0, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: b.m[d.name], Unit: d.unit}
	}
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		res.Attempted += b.ops[k].Attempted
		res.Failed += b.ops[k].Failed
	}

	report := map[string]any{
		"workload": name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    trace,
		"env":      environment(seed),
		"ops":      b.ops,
		"samples":  b.samples,
		"info":     b.info,
		"raw":      b.raw,
		"failures": b.failures,
	}
	if trace {
		// The traced run's own end-to-end figures: compared with an
		// untraced run they give the tracing overhead.
		e2e := make(map[string]float64)
		for _, d := range endToEnd {
			e2e[d.name] = b.m[d.name]
		}
		report["e2e"] = e2e
	}
	rep, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, k := range kinds {
		fmt.Fprintf(log, "%-8s attempted %d failed %d\n", k, b.ops[k].Attempted, b.ops[k].Failed)
	}
	for _, d := range defs {
		fmt.Fprintf(log, "%-34s %14.4f %s\n", d.name, b.m[d.name], d.unit)
	}
	for _, f := range b.failures {
		fmt.Fprintln(log, "CHECK FAILED:", f)
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", rep, last)
	return err
}

// environment records what the figures depend on besides the code.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitHead(),
		"source":     sourceDigest(),
		"seed":       seed,
	}
}

// stealSeconds reads the machine's cumulative steal time from
// /proc/stat, where the kernel reports it.
func stealSeconds() (float64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true // USER_HZ is 100 on Linux
}

// gitHead resolves HEAD when the benchmark runs in a git working tree,
// and reports "none" otherwise.
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes go.mod and every .go file under the working
// directory, skipping dot directories, so that a run outside a git
// tree still names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
