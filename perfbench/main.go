// Command perfbench is the repository's benchmark. One invocation runs
// one workload and prints its metrics, each by name with its unit, and
// as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured as a user
// of the system sees them; with --trace 1 they are the per-layer ones,
// including the cost ladder. Every value the program returns is
// checked; any mismatch prints the violations and exits 1.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload mem-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// --out FILE also writes the full record (environment, sample counts,
// violations); compare diffs two such records and refuses when their
// environments differ. See README.md for the workloads, the metrics
// and which layer should move which end-to-end number.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, every workload.
var endToEnd = []metricDef{
	{"throughput_ops", "1/s"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"space_amp", "ratio"},
	{"sim_slowdown", "ratio"},
}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// does not run through reads 0 (no filestore on mem-*, no serving on
// sim).
var perLayer = []metricDef{
	{"netserve.rtt_us", "us"},
	{"netserve.frames_per_op", "count"},
	{"netserve.retry_ratio", "ratio"},
	{"serve.batch_mean", "count"},
	{"serve.combined_ratio", "ratio"},
	{"serve.queue_us", "us"},
	{"serve.rejected_ratio", "ratio"},
	{"core.access_us", "us"},
	{"core.load_us", "us"},
	{"core.crypto_us", "us"},
	{"core.evict_us", "us"},
	{"core.seal_us", "us"},
	{"core.persist_rules_us", "us"},
	{"core.recover_us", "us"},
	{"oram.access_us", "us"},
	{"cryptoeng.seal_ns_per_block", "ns"},
	{"cryptoeng.open_ns_per_block", "ns"},
	{"mem.timing_us", "us"},
	{"nvm.cycles_per_access", "cycles"},
	{"filestore.persist_ms_p50", "ms"},
	{"filestore.persist_ms_p99", "ms"},
	{"filestore.group_mean", "count"},
	{"filestore.flushes_per_op", "count"},
	{"filestore.wchar_per_op", "B"},
	{"filestore.syscw_per_op", "count"},
	{"filestore.commit_wait_us", "us"},
	{"filestore.reopen_ms", "ms"},
	{"sim.baseline.ns_per_access", "ns"},
	{"sim.psoram.ns_per_access", "ns"},
	{"sim.baseline.cycles_per_access", "cycles"},
	{"sim.psoram.cycles_per_access", "cycles"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_count", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.p999_ms", "ms"},
	{"loadgen.p999_tail", "count"},
	{"trace.overhead_pct", "%"},
	{"ladder.residual_pct", "%"},
	{"ladder.r1_oram_bare_us", "us"},
	{"ladder.r2_oram_aes_us", "us"},
	{"ladder.r3_timing_us", "us"},
	{"ladder.r4_psoram_us", "us"},
	{"ladder.r5_filestore_us", "us"},
	{"ladder.r6_pool_us", "us"},
	{"ladder.r7_netserve_us", "us"},
	{"ladder.aes_self_us", "us"},
	{"ladder.filestore_self_us", "us"},
}

// result is one run's outcome.
type result struct {
	metrics    map[string]float64
	samples    map[string]int
	violations []string
	attempted  int64
	failed     int64
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

// set records metric name with the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

func (r *result) get(name string) float64 { return r.metrics[name] }

// record is the full result --out writes and compare reads.
type record struct {
	Workload   string                  `json:"workload"`
	Trace      bool                    `json:"trace"`
	Env        env                     `json:"env"`
	Correct    bool                    `json:"correct"`
	Attempted  int64                   `json:"attempted"`
	Failed     int64                   `json:"failed"`
	Metrics    map[string]recordMetric `json:"metrics"`
	Violations []string                `json:"violations,omitempty"`
}

type recordMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// line is the output's last line.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "mem-large, mem-hot, durable or sim")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "measured time of the serving phases")
	traced := fs.Int("trace", 0, "1: report the per-layer metrics instead")
	work := fs.String("work", ".bench_build", "scratch directory for stores and spans")
	out := fs.String("out", "", "also write the full record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The workloads are sized for two cores; use at most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rec, err := measure(context.Background(), *workload, runOpts{
		seed: *seed, seconds: *seconds, trace: *traced == 1, work: *work, setups: 3, probes: 31,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	e := rec.Env
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s store_fs=%s levels_per_shard=%d block_bytes=%d seed=%d\n",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.Kernel, e.StoreFS, e.LevelsPerShard, e.BlockBytes, e.Seed)
	ln := line{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]lineMetric{}}
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(stdout, "%-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		ln.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(stderr, "perfbench: MISMATCH:", v)
	}
	b, _ := json.Marshal(ln)
	fmt.Fprintln(stdout, string(b))
	if !rec.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles its record.
func measure(ctx context.Context, workload string, o runOpts) (record, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return record{}, err
	}
	var res *result
	var err error
	e := hostEnv(o.seed)
	e.LevelsPerShard = simLevels
	o.name = workload
	if workload == "sim" {
		res, err = runSim(ctx, o)
	} else if sp, ok := specs[workload]; ok {
		e.LevelsPerShard = sp.levels()
		if sp.durable || (o.trace && sp.ladderStore) {
			e.StoreFS = fsType(o.work)
		}
		res, err = runServing(ctx, sp, o)
	} else {
		return record{}, fmt.Errorf("unknown workload %q (want mem-large, mem-hot, durable or sim)", workload)
	}
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else if workload == "sim" {
		res.set("rss_mb", peakRSSMB(), 1)
	}
	rec := record{
		Workload: workload, Trace: o.trace, Env: e,
		Correct: len(res.violations) == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]recordMetric{}, Violations: res.violations,
	}
	for _, d := range defs {
		rec.Metrics[d.name] = recordMetric{res.metrics[d.name], d.unit, res.samples[d.name]}
	}
	return rec, nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareCmd prints each metric's change from OLD to NEW, two records
// written by --out. It refuses (exit 2) records of different workloads,
// modes or environments.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
	}
	a, b := recs[0], recs[1]
	err := compareEnv(a.Env, b.Env)
	if a.Workload != b.Workload || a.Trace != b.Trace {
		err = fmt.Errorf("records of %s (trace %v) and %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare: refused:", err)
		return 2
	}
	for _, name := range sortedKeys(a.Metrics) {
		x, y := a.Metrics[name], b.Metrics[name]
		fmt.Fprintf(stdout, "%-32s %14.6g -> %14.6g %-6s %+7.2f%%\n", name, x.Value, y.Value, x.Unit, 100*fdiv(y.Value-x.Value, x.Value))
	}
	return 0
}
