package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/cryptoeng"
	"repro/internal/netserve"
	"repro/internal/oram"
	"repro/internal/serve"
)

// layerStats turns the pool's and the server's own counters, read after
// the traced workload, into per-layer metrics.
func layerStats(p *serve.Pool, ss netserve.ServerStats, rn *runner, res *result) {
	var completed, submitted, rejected, combined, batches uint64
	var batchSum float64
	stage := map[string]float64{}
	for _, s := range p.Stats().Shards {
		completed += s.Completed
		submitted += s.Submitted
		rejected += s.Rejected
		combined += s.Combined
		batches += s.Batches
		batchSum += s.BatchMean * float64(s.Batches)
		for _, st := range s.Stages {
			stage[st.Name] += st.MeanNs * float64(s.Completed)
		}
	}
	n := int(completed)
	res.set("serve.batch_mean", fdiv(batchSum, float64(batches)), int(batches))
	res.set("serve.combined_ratio", fdiv(float64(combined), float64(completed)), n)
	res.set("serve.rejected_ratio", fdiv(float64(rejected), float64(submitted+rejected)), int(submitted+rejected))
	for _, name := range []string{"load", "crypto", "evict", "seal"} {
		res.set("core."+name+"_us", fdiv(stage[name], float64(completed))/1e3, n)
	}
	res.set("netserve.frames_per_op", fdiv(float64(ss.FramesIn+ss.FramesOut), float64(rn.issued.Load())), int(rn.issued.Load()))
}

// persistStats reads a durable pool's group-commit counters.
func persistStats(ps serve.PoolStats, res *result) {
	var completed, flushes uint64
	var groupSum, p50, p99 float64
	for _, s := range ps.Shards {
		completed += s.Completed
		flushes += s.Flushes
		groupSum += s.GroupMean * float64(s.Flushes)
		// Shards persist independently; the slower shard's figure is
		// the one a request can wait for.
		p50 = max(p50, float64(s.PersistP50Ns))
		p99 = max(p99, float64(s.PersistP99Ns))
	}
	res.set("filestore.persist_ms_p50", p50/1e6, int(flushes))
	res.set("filestore.persist_ms_p99", p99/1e6, int(flushes))
	res.set("filestore.group_mean", fdiv(groupSum, float64(flushes)), int(flushes))
	res.set("filestore.flushes_per_op", fdiv(float64(flushes), float64(completed)), int(completed))
}

func fdiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seqMean issues ops one at a time on c, logging them for the check,
// and returns the mean time per op in microseconds. These are the
// unloaded top rungs: no request waits behind another.
func (rn *runner) seqMean(ctx context.Context, c kv, ops []op, name string) (float64, error) {
	var batch []rec
	id := rn.tr.add(name, -1, rn.now(), 0)
	var sum int64
	for _, o := range ops {
		if !rn.do(ctx, c, o, &batch, id) {
			rn.log.add(batch)
			return 0, fmt.Errorf("%s: op on key %d failed", name, o.key)
		}
		r := batch[len(batch)-1]
		sum += r.ack - r.send
	}
	rn.tr.end(id, rn.now())
	rn.log.add(batch)
	return float64(sum) / float64(len(ops)) / 1e3, nil
}

func genOps(seed uint64, conn int, sp spec, n int) []op {
	g := newGen(seed, phaseLadder, conn, sp)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// topRungs times the two rungs that need the live pool: rung 6, the
// serve.Pool called in-process, and rung 7, the same through a netserve
// client. It returns rung 7 in microseconds.
func topRungs(ctx context.Context, rn *runner, sp spec, seed uint64, p *serve.Pool, c *netserve.Client, res *result) (float64, error) {
	n := sp.ladderOps
	if sp.durable {
		n = sp.slowOps
	}
	r6, err := rn.seqMean(ctx, p, genOps(seed, 6, sp, n), "rung.pool")
	if err != nil {
		return 0, err
	}
	r7, err := rn.seqMean(ctx, c, genOps(seed, 7, sp, n), "rung.netserve")
	if err != nil {
		return 0, err
	}
	res.set("ladder.r6_pool_us", r6, n)
	res.set("ladder.r7_netserve_us", r7, n)
	res.set("netserve.rtt_us", r7-r6, n)
	return r7, nil
}

// store is the sequential surface of the lower rungs.
type store struct {
	read  func(k uint64) ([]byte, error)
	write func(k uint64, v []byte) error
	flush func() error // after every groupOps ops; nil: none
}

// groupOps matches the durable workload's group-commit size.
const groupOps = 16

// warmOps leading ops of each lower rung (at most a quarter of them) run
// untimed, so a rung is not charged for being the first to touch cold
// code and data.
const warmOps = 256

// timeStore runs ops one at a time against s, checking every read
// against an exact reference (nothing else touches s), and returns the
// mean time per op, after the first warmOps, in microseconds.
func (rn *runner) timeStore(name string, s store, ops []op) (float64, error) {
	ref := map[uint64]uint64{}
	warm := min(warmOps, len(ops)/4)
	var start int64
	var t0 time.Time
	for i, o := range ops {
		if i == warm {
			start, t0 = rn.now(), time.Now()
		}
		if o.write {
			if err := s.write(o.key, encode(o.key, o.seq)); err != nil {
				return 0, fmt.Errorf("%s: write key %d: %w", name, o.key, err)
			}
			ref[o.key] = o.seq
		} else {
			v, err := s.read(o.key)
			if err != nil {
				return 0, fmt.Errorf("%s: read key %d: %w", name, o.key, err)
			}
			seq, err := decode(o.key, v)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			if seq != ref[o.key] {
				return 0, fmt.Errorf("%s: key %d read seq %#x, last written %#x", name, o.key, seq, ref[o.key])
			}
		}
		if s.flush != nil && (i+1)%groupOps == 0 {
			if err := s.flush(); err != nil {
				return 0, fmt.Errorf("%s: flush: %w", name, err)
			}
		}
	}
	d := time.Since(t0)
	rn.tr.add(name, -1, start, rn.now())
	return us(d) / float64(len(ops)-warm), nil
}

// lowRungs builds one shard's store at the workload's shape once per
// rung and times the same op stream on each:
//
//	r2  oram.Controller (the Path ORAM protocol; it always seals with AES)
//	r1  r2 minus the AES it does, priced per block by cryptoeng
//	r3  + the mem/nvm timing model: a Baseline psoram.Store
//	r4  + the PS-ORAM persist rules: a PS-ORAM psoram.Store
//	r5  + filestore with group commit (workloads with ladderStore; else
//	    r5 = r4); the pool rung r6 stands on r5 only if the workload's
//	    own pool is durable
func (rn *runner) lowRungs(ctx context.Context, sp spec, o runOpts, res *result) error {
	cfg := config.Default()
	local := sp.blocks / uint64(sp.shards)
	levels := sp.levels()
	lsp := sp
	lsp.blocks, lsp.shards = local, 1
	n := sp.ladderOps
	ops := genOps(o.seed, 1, lsp, n)

	seal, open := aesCost()
	res.set("cryptoeng.seal_ns_per_block", seal, aesReps)
	res.set("cryptoeng.open_ns_per_block", open, aesReps)

	c, err := oram.New(oram.Params{Levels: levels, Z: cfg.Z, BlockBytes: cfg.BlockBytes,
		StashEntries: cfg.StashEntries, NumBlocks: local, Seed: o.seed})
	if err != nil {
		return err
	}
	r2, err := rn.timeStore("rung.oram", store{
		read: func(k uint64) ([]byte, error) {
			v, _, err := c.Access(oram.OpRead, oram.Addr(k), nil)
			return v, err
		},
		write: func(k uint64, v []byte) error {
			_, _, err := c.Access(oram.OpWrite, oram.Addr(k), v)
			return err
		},
	}, ops)
	if err != nil {
		return err
	}
	c = nil
	aes := float64(cfg.Z*(levels+1)) * (seal + open) / 1e3

	var r3, r4, cyc float64
	for _, sc := range []psoram.Scheme{psoram.Baseline, psoram.PSORAM} {
		runtime.GC()
		st, err := psoram.New(local, psoram.WithScheme(sc), psoram.WithLevels(levels), psoram.WithRNGSeed(o.seed))
		if err != nil {
			return err
		}
		r, err := rn.timeStore("rung."+sc.String(), store{read: st.Read, write: st.Write}, ops)
		if err != nil {
			return err
		}
		if sc == psoram.Baseline {
			r3 = r
		} else {
			r4 = r
			cyc = fdiv(float64(st.Cycles()), float64(st.Accesses()))
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	r5 := r4
	if sp.ladderStore {
		if r5, err = rn.filestoreRung(local, levels, o, ops[:min(len(ops), warmOps+sp.slowOps*4)], res); err != nil {
			return err
		}
		if err := rn.durablePool(ctx, sp, o, res); err != nil {
			return err
		}
	}
	below := r4
	if sp.durable {
		below = r5
	}
	r6 := res.get("ladder.r6_pool_us")
	res.set("ladder.r1_oram_bare_us", r2-aes, n)
	res.set("ladder.r2_oram_aes_us", r2, n)
	res.set("ladder.r3_timing_us", r3, n)
	res.set("ladder.r4_psoram_us", r4, n)
	res.set("ladder.r5_filestore_us", r5, n)
	res.set("oram.access_us", r2, n)
	res.set("ladder.aes_self_us", aes, n)
	res.set("mem.timing_us", r3-r2, n)
	res.set("core.access_us", r4, n)
	res.set("core.persist_rules_us", r4-r3, n)
	res.set("nvm.cycles_per_access", cyc, n)
	res.set("ladder.filestore_self_us", r5-r4, n)
	res.set("serve.queue_us", r6-below, n)
	return nil
}

// durablePool builds an in-memory pool and a filestore-backed one with
// group commit at the workload's shape. The difference of their
// unloaded request times is the commit wait; a closed loop of
// conns×window in-process requests on the durable one then gives the
// group shape and persist latency a loaded pool sees, and closing and
// reopening it the time to recover from disk.
func (rn *runner) durablePool(ctx context.Context, sp spec, o runOpts, res *result) error {
	dir := filepath.Join(o.work, fmt.Sprintf("pool-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	mem, dur := sp, sp
	mem.durable, mem.groupK = false, 0
	dur.durable, dur.groupK = true, groupOps
	var unloaded [2]float64
	for i, s := range []spec{mem, dur} {
		d := ""
		if s.durable {
			d = dir
		}
		p, err := serve.New(s.options(o.seed, d))
		if err != nil {
			return err
		}
		// Each pool gets its own runner: the check must not mix the
		// histories of two stores.
		prn := &runner{epoch: rn.epoch, tr: rn.tr}
		unloaded[i], err = prn.seqMean(ctx, p, genOps(o.seed, 8, s, sp.slowOps), fmt.Sprintf("rung.pool.durable=%v", s.durable))
		if err == nil && s.durable {
			gens := []*gen{newGen(o.seed, phaseLadder, 9, s), newGen(o.seed, phaseLadder, 10, s)}
			prn.closed(ctx, []kv{p, p}, gens, sp.window, 0, time.Second, 1, -1)
			persistStats(p.Stats(), res)
			// Reopen after a clean close, up to the first served read.
			if err := p.Close(ctx); err != nil {
				return err
			}
			var d time.Duration
			var r rec
			if p, d, r, err = openPool(ctx, prn, s.options(o.seed, dir)); err != nil {
				return err
			}
			prn.log.add([]rec{r})
			res.set("filestore.reopen_ms", ms(d), 1)
		}
		if cerr := p.Close(ctx); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if v := prn.log.check(); len(v) > 0 {
			return fmt.Errorf("pool rung (durable=%v): %s", s.durable, v[0])
		}
	}
	res.set("filestore.commit_wait_us", unloaded[1]-unloaded[0], sp.slowOps)
	return nil
}

// filestoreRung times a PS-ORAM store on filestore with the durable
// workload's group commit, flushing every groupOps ops, and reads the
// process's write syscalls and bytes around it from /proc/self/io.
func (rn *runner) filestoreRung(local uint64, levels int, o runOpts, ops []op, res *result) (float64, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("rung-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := psoram.New(local, psoram.WithScheme(psoram.PSORAM), psoram.WithLevels(levels), psoram.WithRNGSeed(o.seed),
		psoram.WithStorePath(dir), psoram.WithGroupCommit(groupOps, 2*time.Millisecond))
	if err != nil {
		return 0, err
	}
	io0, err := procIO()
	if err != nil {
		st.Close()
		return 0, err
	}
	r, err := rn.timeStore("rung.filestore", store{read: st.Read, write: st.Write, flush: st.FlushCommits}, ops)
	io1, ioErr := procIO()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = ioErr
	}
	if err != nil {
		return 0, err
	}
	res.set("filestore.wchar_per_op", float64(io1["wchar"]-io0["wchar"])/float64(len(ops)), len(ops))
	res.set("filestore.syscw_per_op", float64(io1["syscw"]-io0["syscw"])/float64(len(ops)), len(ops))
	return r, nil
}

func procIO() (map[string]int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
			m[k] = n
		}
	}
	return m, sc.Err()
}

// aesReps is how many 64 B blocks aesCost seals and opens.
const aesReps = 200000

// aesCost returns cryptoeng's nanoseconds per 64 B block to seal and to
// open.
func aesCost() (seal, open float64) {
	e := cryptoeng.MustNew(oram.DefaultKey)
	src := encode(1, 1)
	ct := make([]byte, blockBytes)
	pt := make([]byte, blockBytes)
	t0 := time.Now()
	for i := 0; i < aesReps; i++ {
		ct = e.SealInto(uint64(i), src, ct[:0])
	}
	t1 := time.Now()
	for i := 0; i < aesReps; i++ {
		pt = e.OpenInto(uint64(i), ct, pt[:0])
	}
	t2 := time.Now()
	return float64(t1.Sub(t0)) / aesReps, float64(t2.Sub(t1)) / aesReps
}
