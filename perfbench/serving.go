package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/netserve"
	"repro/internal/oracle"
	"repro/internal/serve"
)

// spec is one serving workload's shape. Everything the program sees is
// derived from it and the seed.
type spec struct {
	blocks    uint64
	shards    int
	zipf      bool    // zipf(0.99) keys; uniform otherwise
	writeFrac float64 // share of requests that write
	rate      float64 // open-loop offered rate, requests/s
	window    int     // closed loop: requests in flight per connection
	durable   bool    // filestore-backed, group commit groupK
	groupK    int
	sweep     sweepMode
	latSlices int // open-loop slices whose latency quantiles are medianed
	// ladderStore adds the filestore rungs to the traced run's ladder:
	// a filestore-backed store and pool at this workload's shape.
	ladderStore bool
	ladderOps   int // sequential ops per in-memory ladder rung
	slowOps     int // sequential ops per rung that waits on filestore
}

// sweepMode is how a run ends with a sweep of the keyspace.
type sweepMode int

const (
	// sweepClient reads every key through the client connections.
	sweepClient sweepMode = iota
	// sweepWritten reads, through the clients, every key written plus a
	// seeded sample of 8192 others, which must still hold the initial
	// zero block: 2^20 ORAM reads would take longer than the run.
	sweepWritten
	// sweepPeek reads every key with Pool.Peek (the value the pool would
	// serve, without an ORAM access): at a few hundred durable accesses
	// per second a client sweep would take longer than the run.
	sweepPeek
)

// conns is the number of client connections, one per core of the
// two-core machine the workloads are sized for.
const conns = 2

var specs = map[string]spec{
	// Tree far larger than the CPU caches: protocol cost dominates.
	"mem-large": {blocks: 1 << 20, shards: 2, writeFrac: 0.5, rate: 6000, window: 16, sweep: sweepWritten, latSlices: 24, ladderOps: 3000},
	// Tree in cache, skewed keys: framing, batching and read-combining
	// are a large share of each request.
	"mem-hot": {blocks: 4096, shards: 2, zipf: true, writeFrac: 0.1, rate: 8000, window: 16, sweep: sweepClient, latSlices: 24, ladderStore: true, ladderOps: 5000, slowOps: 320},
	// The only workload on the persist path.
	"durable": {blocks: 16384, shards: 2, writeFrac: 0.5, rate: 150, window: 16, durable: true, groupK: 16, sweep: sweepPeek, latSlices: 1, ladderStore: true, ladderOps: 5000, slowOps: 320},
}

func (sp spec) levels() int {
	return config.Default().TreeLevelsFor(sp.blocks / uint64(sp.shards))
}

func (sp spec) validate() error {
	if sp.zipf && (sp.blocks&(sp.blocks-1) != 0 || (sp.blocks/uint64(sp.shards))&(sp.blocks/uint64(sp.shards)-1) != 0) {
		return fmt.Errorf("zipf workloads need a power-of-two keyspace, have %d", sp.blocks)
	}
	return nil
}

func (sp spec) options(seed uint64, dir string) serve.Options {
	return serve.Options{Shards: sp.shards, NumBlocks: sp.blocks, Seed: seed, StoreDir: dir, GroupCommitOps: sp.groupK}
}

// runOpts is one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	name    string // workload name
	work    string // scratch directory inside the checkout
	setups  int    // set-ups (and durable reopens) timed for the median, at least
	probes  int    // crash-recovery probes on in-memory pools, at least
}

// openPool builds (or reopens) a pool and serves its first request, a
// read of key 0. It returns the time that took and the read's record.
func openPool(ctx context.Context, rn *runner, o serve.Options) (*serve.Pool, time.Duration, rec, error) {
	send := rn.now()
	t0 := time.Now()
	p, err := serve.New(o)
	if err != nil {
		return nil, 0, rec{}, err
	}
	v, err := p.Read(ctx, 0)
	took := time.Since(t0)
	if err != nil {
		p.Close(ctx)
		return nil, 0, rec{}, fmt.Errorf("first read: %w", err)
	}
	seq, err := decode(0, v)
	if err != nil {
		p.Close(ctx)
		return nil, 0, rec{}, err
	}
	return p, took, rec{key: 0, seq: seq, send: send, ack: rn.now()}, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupBudget is how much set-up time a run spends on repeats beyond
// the minimum, up to maxSetups, to steady the median of fast set-ups.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 15
)

// setups collects set-up timings: for each pool built, the time to its
// first served read and, for in-memory pools, the live heap it holds
// per logical byte stored.
type setups struct{ took, amp []float64 }

func (st *setups) build(ctx context.Context, rn *runner, sp spec, seed uint64, dir string) (*serve.Pool, rec, error) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, rec{}, err
		}
	}
	base := heapAlloc()
	p, d, r, err := openPool(ctx, rn, sp.options(seed, dir))
	if err != nil {
		return nil, rec{}, fmt.Errorf("set-up: %w", err)
	}
	h := heapAlloc()
	st.took = append(st.took, d.Seconds())
	st.amp = append(st.amp, float64(h-min(base, h))/float64(sp.blocks*blockBytes))
	return p, r, nil
}

// more builds and discards pools until there are at least n timings, and
// further while they fit in setupBudget. A run calls it after its timed
// phases, so the garbage of the extra pools, which a user never builds,
// cannot reach them.
func (st *setups) more(ctx context.Context, sp spec, seed uint64, dir string, n int) error {
	var total float64
	for _, t := range st.took {
		total += t
	}
	for len(st.took) < n || (total < setupBudget.Seconds() && len(st.took) < maxSetups) {
		p, _, err := st.build(ctx, newRunner(), sp, seed, dir)
		if err != nil {
			return err
		}
		total += st.took[len(st.took)-1]
		if err := p.Close(ctx); err != nil {
			return err
		}
	}
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}

// server is a netserve front-end on loopback with its client
// connections.
type server struct {
	srv  *netserve.Server
	errc chan error
	cs   []*netserve.Client
}

func startServer(p *serve.Pool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: netserve.NewServer(p, netserve.ServerOptions{}), errc: make(chan error, 1)}
	go func() { s.errc <- s.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := netserve.Dial(ln.Addr().String(), netserve.ClientOptions{MaxInFlight: maxOutstanding})
		if err != nil {
			s.stop(context.Background())
			return nil, err
		}
		s.cs = append(s.cs, c)
	}
	return s, nil
}

func (s *server) kvs() []kv {
	out := make([]kv, len(s.cs))
	for i, c := range s.cs {
		out[i] = c
	}
	return out
}

func (s *server) stop(ctx context.Context) error {
	for _, c := range s.cs {
		c.Close()
	}
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; serr != nil && !errors.Is(serr, netserve.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// runServing runs one serving workload: set-up, a closed loop for
// throughput, an open loop for latency, crash recovery (in-memory) or
// close-and-reopen (durable), and the keyspace sweep. With o.trace it
// instead measures the per-layer metrics and the cost ladder.
func runServing(ctx context.Context, sp spec, o runOpts) (*result, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	res := newResult()
	rn := newRunner()
	if o.trace {
		rn.tr = &tracer{}
	}
	dir := ""
	if sp.durable {
		dir = filepath.Join(o.work, fmt.Sprintf("store-%d", os.Getpid()))
		defer os.RemoveAll(dir)
	}
	var st setups
	p, first, err := st.build(ctx, rn, sp, o.seed, dir)
	if err != nil {
		return nil, err
	}
	rn.log.add([]rec{first})
	defer func() {
		if p != nil {
			p.Close(ctx)
		}
	}()
	srv, err := startServer(p)
	if err != nil {
		return nil, err
	}
	cs := srv.kvs()

	// Set-up a user pays once per process (the build's garbage) is
	// collected before the timed window, not inside it.
	runtime.GC()
	gens := []*gen{newGen(o.seed, phaseClosed, 0, sp), newGen(o.seed, phaseClosed, 1, sp)}
	S := o.seconds
	if !o.trace {
		// The end-to-end run spends all its measured time on the closed
		// loop. Open-loop latency proved too unsteady on a shared VM to gate
		// (README, "Steadiness"), so the traced run reports it per layer.
		done := make(chan struct{})
		rss := peakRSSAt(rn, rssRequests, done)
		rates := rn.closed(ctx, cs, gens, sp.window, sec(0.05*S), sec(0.95*S), max(1, int(0.95*S+0.5)), -1)
		close(done)
		res.set("throughput_ops", median(rates), len(rates))
		res.set("rss_mb", <-rss, 1)
	} else if err := rn.latency(ctx, sp, o, p, srv, gens, res); err != nil {
		return nil, err
	}

	if sp.sweep == sweepPeek {
		if err := peekAll(ctx, rn, p, sp.blocks); err != nil {
			return nil, err
		}
	} else {
		rn.sweep(ctx, cs, sweepKeys(sp, o.seed, &rn.log), sp.window)
	}
	if err := srv.stop(ctx); err != nil {
		return nil, err
	}
	if sp.durable {
		if err := reopen(ctx, rn, sp, o, dir, &p); err != nil {
			return nil, err
		}
	}
	if err := p.Close(ctx); err != nil {
		return nil, err
	}
	p = nil
	if sp.durable && !o.trace {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		res.set("space_amp", float64(n)/float64(sp.blocks*blockBytes), 1)
	}
	if o.trace {
		if err := rn.lowRungs(ctx, sp, o, res); err != nil {
			return nil, err
		}
		if err := rn.tr.write(filepath.Join(o.work, "spans-"+o.name+".jsonl")); err != nil {
			return nil, err
		}
	} else {
		sd, err := replaySlowdown(ctx, sp, o.seed)
		if err != nil {
			return nil, err
		}
		res.set("sim_slowdown", sd, 1)
		extra := ""
		if sp.durable {
			extra = dir + "-setup"
		}
		if err := st.more(ctx, sp, o.seed, extra, o.setups); err != nil {
			return nil, err
		}
		res.set("setup_s", median(st.took), len(st.took))
		if !sp.durable {
			res.set("space_amp", median(st.amp), len(st.amp))
		}
	}
	res.violations = rn.log.check()
	res.attempted, res.failed = rn.issued.Load(), rn.failed.Load()
	return res, nil
}

// rssRequests is how many requests a serving run has issued when it
// reads its peak resident set. Set-up and the start of serving are in
// that figure; the request log the check keeps, which grows with every
// request, is still small then. Read at a time instead of a count, the
// log's share moved with throughput.
const rssRequests = 8192

// peakRSSAt reads the peak resident set once rn has issued n requests,
// or when done is closed, whichever comes first.
func peakRSSAt(rn *runner, n int64, done <-chan struct{}) <-chan float64 {
	c := make(chan float64, 1)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
	wait:
		for rn.issued.Load() < n {
			select {
			case <-t.C:
			case <-done:
				break wait
			}
		}
		c <- peakRSSMB()
	}()
	return c
}

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// latency runs the traced serving phases: closed-loop slices with spans
// off and on (trace.overhead_pct), then the open loop at the workload's
// rate, whose latency quantiles, generator lateness and GC activity are
// reported per layer, then the pool's own counters, the two top ladder
// rungs and, on in-memory pools, the crash-recovery probes.
func (rn *runner) latency(ctx context.Context, sp spec, o runOpts, p *serve.Pool, srv *server, gens []*gen, res *result) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cs := srv.kvs()
	S := o.seconds
	traceOverhead(ctx, rn, cs, gens, sp.window, sec(0.05*S), sec(0.35*S), res)
	phase := rn.tr.add("phase.open", -1, rn.now(), 0)
	or := rn.open(ctx, cs, newGen(o.seed, phaseOpen, 0, sp), arrivals(o.seed, sp.rate, 0.6*S), phase)
	rn.tr.end(phase, rn.now())
	runtime.ReadMemStats(&m1)
	n := len(or.lat)
	p50 := or.quantile(0.50, sp.latSlices)
	res.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1)
	res.set("go.gc_count", float64(m1.NumGC-m0.NumGC), 1)
	res.set("loadgen.late_ms_p99", ms(quantile(or.late, 0.99)), len(or.late))
	res.set("loadgen.p50_ms", p50, n)
	res.set("loadgen.p99_ms", or.quantile(0.99, sp.latSlices), n)
	res.set("loadgen.p999_ms", ms(quantile(or.lat, 0.999)), n)
	res.set("loadgen.p999_tail", float64(n-int(0.999*float64(n)+0.999999)), n)
	res.set("netserve.retry_ratio", ratio(rn.retries.Load(), rn.attempts.Load()), int(rn.attempts.Load()))
	layerStats(p, srv.srv.Stats(), rn, res)
	top, err := topRungs(ctx, rn, sp, o.seed, p, srv.cs[0], res)
	if err != nil {
		return err
	}
	res.set("ladder.residual_pct", 100*(1e3*p50-top)/(1e3*p50), n)
	if sp.durable {
		return nil
	}
	// Finish any collection the loops started first: on mem-large a 1 GB
	// mark phase overlapping the probes in some runs and not others made
	// the figure bimodal (4 vs 6 ms).
	runtime.GC()
	took, err := crashProbes(ctx, rn, p, o)
	if err != nil {
		return err
	}
	res.set("core.recover_us", 1e6*median(took), len(took))
	return nil
}

// traceOverhead alternates untraced and traced slices of the closed
// loop and reports throughput with spans on, and what recording them
// cost.
func traceOverhead(ctx context.Context, rn *runner, cs []kv, gens []*gen, window int, warm, measure time.Duration, res *result) {
	tr := rn.tr
	rn.tr = nil
	rn.closed(ctx, cs, gens, window, 0, warm, 1, -1)
	slice := measure / 4
	var off, on float64
	for i := 0; i < 2; i++ {
		rn.tr = nil
		off += rn.closed(ctx, cs, gens, window, 0, slice, 1, -1)[0]
		rn.tr = tr
		id := tr.add("phase.closed", -1, rn.now(), 0)
		on += rn.closed(ctx, cs, gens, window, 0, slice, 1, id)[0]
		tr.end(id, rn.now())
	}
	res.set("trace.overhead_pct", 100*(off-on)/off, 4)
}

// probeBudget bounds the time crash probes may take beyond o.probes.
const (
	probeBudget = 500 * time.Millisecond
	maxProbes   = 2001
)

// crashProbes injects a simulated power failure into a shard, at least
// o.probes times and more while they fit in probeBudget, alternating
// shards. Each is timed from the request that hits it to the first reply
// after the shard's §4.3 recovery. The requests go to the pool
// in-process, as openPool's first read does, so the figure is the
// recovery and not the wire. It returns each probe's time in seconds.
func crashProbes(ctx context.Context, rn *runner, p *serve.Pool, o runOpts) ([]float64, error) {
	r := rand.New(rand.NewPCG(o.seed, phaseProbe))
	var took []float64
	start := time.Now()
	for i := 0; i < o.probes || (time.Since(start) < probeBudget && i < maxProbes); i++ {
		shard := i % p.Shards()
		key := uint64(shard) + uint64(p.Shards())*r.Uint64N(p.NumBlocks()/uint64(p.Shards()))
		var fired atomic.Bool
		if err := p.ArmCrash(ctx, shard, func(oracle.CrashSpec) bool { return fired.CompareAndSwap(false, true) }); err != nil {
			return nil, err
		}
		var batch []rec
		t0 := time.Now()
		ok := rn.do(ctx, p, op{key: key}, &batch, -1)
		took = append(took, time.Since(t0).Seconds())
		rn.log.add(batch)
		// Disarm with an injector that never fires: ArmCrash(nil), which
		// its doc says disarms, panics in the core adapter.
		if err := p.ArmCrash(ctx, shard, func(oracle.CrashSpec) bool { return false }); err != nil {
			return nil, err
		}
		if !ok || !fired.Load() {
			return nil, fmt.Errorf("crash probe %d: fired=%v, read ok=%v", i, fired.Load(), ok)
		}
	}
	return took, nil
}

// sweepKeys lists the keys a client sweep reads.
func sweepKeys(sp spec, seed uint64, l *oplog) []uint64 {
	if sp.sweep == sweepClient {
		keys := make([]uint64, sp.blocks)
		for i := range keys {
			keys[i] = uint64(i)
		}
		return keys
	}
	w := l.written()
	keys := make([]uint64, 0, len(w)+8192)
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	r := rand.New(rand.NewPCG(seed, 0x5EE9))
	for n := 0; n < 8192; {
		if k := r.Uint64N(sp.blocks); !w[k] {
			keys = append(keys, k)
			n++
		}
	}
	return keys
}

// reopen closes the durable pool cleanly, reopens it from disk and peeks
// every key of the reopened pool: each must hold a value no older than
// its last acked write.
func reopen(ctx context.Context, rn *runner, sp spec, o runOpts, dir string, pp **serve.Pool) error {
	if err := (*pp).Close(ctx); err != nil {
		return err
	}
	*pp = nil
	p, _, r, err := openPool(ctx, rn, sp.options(o.seed, dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	*pp = p
	rn.log.add([]rec{r})
	return peekAll(ctx, rn, p, sp.blocks)
}

// peekAll reads every key of p through Pool.Peek (which returns a key's
// value as the pool would serve it, without an ORAM access), one
// goroutine per shard, and logs each as a read.
func peekAll(ctx context.Context, rn *runner, p *serve.Pool, blocks uint64) error {
	shards := uint64(p.Shards())
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := uint64(0); s < shards; s++ {
		wg.Add(1)
		go func(s uint64) {
			defer wg.Done()
			var batch []rec
			for k := s; k < blocks; k += shards {
				send := rn.now()
				v, err := p.Peek(ctx, k)
				if err != nil {
					errs[s] = err
					break
				}
				seq, err := decode(k, v)
				if err != nil {
					rn.log.corrupted(err)
					continue
				}
				batch = append(batch, rec{key: k, seq: seq, send: send, ack: rn.now()})
			}
			rn.log.add(batch)
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
