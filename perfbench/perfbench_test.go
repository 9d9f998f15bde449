package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStreamsRepeatPerSeed(t *testing.T) {
	for name, sp := range specs {
		for _, phase := range []int{phaseClosed, phaseOpen, phaseLadder} {
			a, b, c := newGen(7, phase, 1, sp), newGen(7, phase, 1, sp), newGen(8, phase, 1, sp)
			same := true
			for i := 0; i < 2000; i++ {
				x, y, z := a.next(), b.next(), c.next()
				if x != y {
					t.Fatalf("%s phase %d: op %d differs under one seed: %+v vs %+v", name, phase, i, x, y)
				}
				if x.key >= sp.blocks {
					t.Fatalf("%s: key %d outside [0,%d)", name, x.key, sp.blocks)
				}
				same = same && x == z
			}
			if same {
				t.Errorf("%s phase %d: seeds 7 and 8 gave the same stream", name, phase)
			}
		}
	}
	x, y := arrivals(3, 6000, 1), arrivals(3, 6000, 1)
	if len(x) != len(y) || len(x) < 5000 || len(x) > 7000 {
		t.Fatalf("arrivals: %d and %d offsets in 1 s at 6000/s", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("arrival %d differs under one seed", i)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		defs []metricDef
		bj   []struct{ Name, Unit string }
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(set.defs) != len(set.bj) {
			t.Fatalf("%d metrics in the code, %d in BENCHMARK.json", len(set.defs), len(set.bj))
		}
		for i, d := range set.defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
			if set.bj[i].Name != d.name || set.bj[i].Unit != d.unit {
				t.Errorf("metric %d: code has %s (%s), BENCHMARK.json %s (%s)", i, d.name, d.unit, set.bj[i].Name, set.bj[i].Unit)
			}
		}
	}
	for _, w := range bj.Workloads {
		if _, ok := specs[w.Name]; !ok && w.Name != "sim" {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
}

// fakeKV is an in-memory store that, once armed, answers one read of a
// key written twice with the older of the two values.
type fakeKV struct {
	mu      sync.Mutex
	vals    map[uint64][][]byte
	stale   bool
	injects int
}

func (f *fakeKV) Write(_ context.Context, k uint64, v []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vals[k] = append(f.vals[k], append([]byte(nil), v...))
	return nil
}

func (f *fakeKV) Read(_ context.Context, k uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	vs := f.vals[k]
	if len(vs) == 0 {
		return make([]byte, blockBytes), nil
	}
	if f.stale && len(vs) >= 2 && f.injects == 0 {
		f.injects++
		return vs[len(vs)-2], nil
	}
	return vs[len(vs)-1], nil
}

func TestCheckerCatchesStaleRead(t *testing.T) {
	sp := spec{blocks: 64, shards: 1, writeFrac: 0.5}
	for _, stale := range []bool{false, true} {
		f := &fakeKV{vals: map[uint64][][]byte{}, stale: stale}
		rn := newRunner()
		gens := []*gen{newGen(1, phaseClosed, 0, sp), newGen(1, phaseClosed, 1, sp)}
		rn.closed(context.Background(), []kv{f, f}, gens, 2, 0, 50*time.Millisecond, 1, -1)
		v := rn.log.check()
		switch {
		case !stale && len(v) > 0:
			t.Errorf("honest store flagged: %v", v)
		case stale && f.injects == 0:
			t.Fatal("the stale read was never injected")
		case stale && len(v) == 0:
			t.Error("checker missed the injected stale read")
		}
	}
}

func TestCheckerRules(t *testing.T) {
	w := func(key, seq uint64, send, ack int64) rec {
		return rec{key: key, seq: seq, send: send, ack: ack, write: true}
	}
	r := func(key, seq uint64, send, ack int64) rec { return rec{key: key, seq: seq, send: send, ack: ack} }
	for _, c := range []struct {
		name string
		recs []rec
		bad  bool
	}{
		{"latest", []rec{w(1, 10, 0, 5), w(1, 11, 6, 9), r(1, 11, 10, 12)}, false},
		{"stale", []rec{w(1, 10, 0, 5), w(1, 11, 6, 9), r(1, 10, 10, 12)}, true},
		{"concurrent writes either order", []rec{w(1, 10, 0, 9), w(1, 11, 1, 8), r(1, 10, 10, 12)}, false},
		{"in-flight write may show", []rec{w(1, 10, 0, 5), w(1, 11, 6, 20), r(1, 11, 10, 12)}, false},
		{"future write", []rec{w(1, 11, 13, 20), r(1, 11, 10, 12)}, true},
		{"zero after ack", []rec{w(1, 10, 0, 5), r(1, 0, 10, 12)}, true},
		{"zero before ack", []rec{w(1, 10, 0, 15), r(1, 0, 10, 12)}, false},
		{"wrong key", []rec{w(2, 10, 0, 5), r(1, 10, 10, 12)}, true},
		{"unacked write may survive", []rec{w(1, 10, 0, 5), w(1, 11, 6, 1<<62), r(1, 11, 10, 12)}, false},
	} {
		l := oplog{recs: c.recs}
		if got := len(l.check()) > 0; got != c.bad {
			t.Errorf("%s: violation %v, want %v", c.name, got, c.bad)
		}
	}
}

func TestDecodeRejectsForeignValues(t *testing.T) {
	if seq, err := decode(5, encode(5, 42)); err != nil || seq != 42 {
		t.Fatalf("round trip: seq %d, err %v", seq, err)
	}
	if _, err := decode(6, encode(5, 42)); !errors.Is(err, errCorrupt) {
		t.Error("value of key 5 accepted for key 6")
	}
	torn := encode(5, 42)
	torn[40] ^= 1
	if _, err := decode(5, torn); !errors.Is(err, errCorrupt) {
		t.Error("torn value accepted")
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	a := hostEnv(1)
	if err := compareEnv(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.StoreFS = "tmpfs"
	if err := compareEnv(a, b); err == nil {
		t.Fatal("environments with different store filesystems compared")
	}
}

// TestSmoke runs every workload once at a tiny size in both modes: it
// checks the harness (every applicable metric reported, every value
// checked), not speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pools and stores")
	}
	ctx := context.Background()
	for name, sp := range specs {
		sp.blocks = 2048
		sp.ladderOps, sp.slowOps = 300, 20
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: 0.5, trace: trace, work: t.TempDir(), setups: 1, probes: 1}
			res, err := runServing(ctx, sp, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			checkSmoke(t, name, o, res, func(m string) bool {
				store := strings.HasPrefix(m, "filestore.") || m == "ladder.filestore_self_us"
				return !strings.HasPrefix(m, "sim.") && (sp.ladderStore || !store) && !(sp.durable && m == "core.recover_us")
			})
		}
	}
	for _, trace := range []bool{false, true} {
		o := runOpts{seed: 1, seconds: 0.5, trace: trace}
		res, err := runSim(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "sim", o, res, func(m string) bool {
			return strings.HasPrefix(m, "sim.") || m == "nvm.cycles_per_access"
		})
	}
}

// mayBeZero are per-layer metrics a healthy tiny run can read as 0.
// trace.overhead_pct is one: on a tiny durable run the slices with spans
// off and on can complete the same number of requests.
var mayBeZero = map[string]bool{
	"netserve.retry_ratio": true, "serve.rejected_ratio": true, "serve.combined_ratio": true,
	"go.gc_count": true, "go.gc_pause_ms": true, "loadgen.p999_tail": true,
	"trace.overhead_pct": true,
}

func checkSmoke(t *testing.T, name string, o runOpts, res *result, applies func(string) bool) {
	t.Helper()
	if len(res.violations) > 0 {
		t.Errorf("%s: %v", name, res.violations)
	}
	if res.failed > 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d requests failed", name, res.failed, res.attempted)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.name == "rss_mb" || (o.trace && (!applies(d.name) || mayBeZero[d.name])) {
			continue
		}
		if res.metrics[d.name] == 0 {
			t.Errorf("%s trace=%v: metric %s not reported", name, o.trace, d.name)
		}
	}
}
