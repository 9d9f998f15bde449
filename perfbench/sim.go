package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Shape of the sim workload: the paper simulator on two Table 4 traces,
// Baseline and PS-ORAM, at L=20.
const (
	simLevels = 20
	simN      = 200000
)

var simTraces = []string{"429.mcf", "401.bzip2"}

// simHeapRuns is how many fresh models space_amp takes the median of.
const simHeapRuns = 3

// simRun is one timed sim.Simulate call.
type simRun struct {
	res   sim.Result
	setup time.Duration // call to first ORAM path read
	run   time.Duration // first path read to return
	heap  uint64        // live heap at the first path read (measureHeap only)
}

// simulate runs the simulator with an observer on the ORAM path reads,
// one per simulated access: the first marks the end of set-up, and the
// count must match the accesses requested. measureHeap collects garbage
// at the first read to weigh the model's live heap; it is set only on
// runs whose access rate is not reported.
func simulate(ctx context.Context, scheme config.Scheme, cfg config.Config, w trace.Workload, n int, measureHeap bool) (simRun, error) {
	var first time.Time
	var reads int
	var heap uint64
	obs := &sim.Observer{OnPathLeaf: func(oram.Leaf) {
		if reads++; reads == 1 {
			first = time.Now()
			if measureHeap {
				heap = heapAlloc()
			}
		}
	}}
	runtime.GC()
	t0 := time.Now()
	res, err := sim.Simulate(ctx, sim.Request{Scheme: scheme, Config: cfg, Workload: w, N: n, Levels: simLevels, Observer: obs})
	end := time.Now()
	if err != nil {
		return simRun{}, err
	}
	if reads != n || res.Accesses != uint64(n) || res.Cycles == 0 {
		return simRun{}, fmt.Errorf("sim %s/%s: %d path reads and %d accesses (%d cycles) for %d requested",
			scheme, w.Name, reads, res.Accesses, res.Cycles, n)
	}
	return simRun{res: res, setup: first.Sub(t0), run: end.Sub(first), heap: heap}, nil
}

// runSim runs the sim workload. Its end-to-end metrics read the
// simulator as its user does: accesses simulated per host second, time
// to the first access (setup_s), the model's heap per modelled byte, and
// the paper's headline ratio of simulated cycles.
func runSim(ctx context.Context, o runOpts) (*result, error) {
	res := newResult()
	cfg := config.Default()
	cfg.Seed = o.seed
	n := simN
	if o.seconds < 1 {
		n = 2000 // the harness smoke test
	}
	var setups []float64
	var run time.Duration
	var accesses int
	cycles := map[config.Scheme]uint64{}
	ns := map[config.Scheme]float64{}
	for _, name := range simTraces {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range []config.Scheme{config.SchemeBaseline, config.SchemePSORAM} {
			r, err := simulate(ctx, sc, cfg, w, n, false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setup.Seconds())
			run += r.run
			accesses += n
			cycles[sc] += r.res.Cycles
			ns[sc] += float64(r.run)
		}
	}
	// Determinism: the same request must give the same result.
	w, _ := trace.ByName(simTraces[0])
	a, err := simulate(ctx, config.SchemePSORAM, cfg, w, 2000, false)
	if err != nil {
		return nil, err
	}
	b, err := simulate(ctx, config.SchemePSORAM, cfg, w, 2000, false)
	if err != nil {
		return nil, err
	}
	if a.res != b.res {
		res.violations = append(res.violations, fmt.Sprintf("sim: two identical runs differ: %+v vs %+v", a.res, b.res))
	}
	var amp []float64
	for i := 0; i < simHeapRuns; i++ {
		r, err := simulate(ctx, config.SchemePSORAM, cfg, w, 1, true)
		if err != nil {
			return nil, err
		}
		modelled := float64(oram.NewTree(simLevels, cfg.Z).Slots()) * cfg.Utilization * float64(cfg.BlockBytes)
		amp = append(amp, float64(r.heap)/modelled)
	}

	if o.trace {
		for sc, name := range map[config.Scheme]string{config.SchemeBaseline: "baseline", config.SchemePSORAM: "psoram"} {
			res.set("sim."+name+".ns_per_access", ns[sc]/float64(accesses/2), accesses/2)
			res.set("sim."+name+".cycles_per_access", float64(cycles[sc])/float64(accesses/2), accesses/2)
		}
		res.set("nvm.cycles_per_access", float64(cycles[config.SchemePSORAM])/float64(accesses/2), accesses/2)
	} else {
		res.set("throughput_ops", float64(accesses)/run.Seconds(), accesses)
		res.set("setup_s", median(setups), len(setups))
		res.set("space_amp", median(amp), len(amp))
		res.set("sim_slowdown", float64(cycles[config.SchemePSORAM])/float64(cycles[config.SchemeBaseline]), 2)
	}
	res.attempted = int64(accesses)
	return res, nil
}

// replayLen is how many of a serving workload's requests replaySlowdown
// feeds the simulator.
const replayLen = 20000

// replaySlowdown replays the first requests of a serving workload's
// closed-loop stream, as one shard's local addresses, through the
// simulator under Baseline and PS-ORAM at the shard's tree height, and
// returns the ratio of simulated cycles: what the paper's model says
// PS-ORAM costs over Baseline for this traffic.
func replaySlowdown(ctx context.Context, sp spec, seed uint64) (float64, error) {
	g := newGen(seed, phaseClosed, 0, sp)
	recs := make([]trace.Record, replayLen)
	for i := range recs {
		o := g.next()
		recs[i] = trace.Record{Addr: o.key / uint64(sp.shards), Write: o.write}
	}
	cfg := config.Default()
	cfg.Seed = seed
	var cyc [2]uint64
	for i, sc := range []config.Scheme{config.SchemeBaseline, config.SchemePSORAM} {
		r, err := sim.Simulate(ctx, sim.Request{Scheme: sc, Config: cfg, Records: recs, TraceName: "replay", Levels: sp.levels()})
		if err != nil {
			return 0, err
		}
		if r.Accesses != replayLen {
			return 0, fmt.Errorf("replay under %s simulated %d of %d accesses", sc, r.Accesses, replayLen)
		}
		cyc[i] = r.Cycles
	}
	return float64(cyc[1]) / float64(cyc[0]), nil
}
