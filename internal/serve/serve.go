// Package serve is the concurrent front-end the paper's controller lacks:
// a serving layer that shards the keyspace across a pool of independent
// crash-consistent stores and multiplexes concurrent clients into them.
//
// The concurrency model is shard-per-goroutine. Block addresses route
// deterministically to shards (shard = addr mod S), each shard owns one
// single-threaded backend controller, and exactly one worker goroutine
// drives it — so the controllers themselves never see concurrency, which
// is precisely the regime the §4 crash-consistency protocol was proved
// in. Clients submit requests into bounded per-shard queues; the worker
// coalesces queued requests into protocol rounds (batches), executes
// them back-to-back, and replies through per-request channels.
//
// Routing goes through an immutable, epoch-stamped table swapped
// atomically (copy-on-write): the stable fast path costs one atomic
// pointer load. Reshard replaces the table stripe by stripe, migrating
// the keyspace onto a freshly built shard set while unaffected stripes
// keep serving (see reshard.go and DESIGN.md §8).
//
// Overload never blocks a client: a full queue fails fast with
// ErrOverloaded. Cancellation is honoured at both ends: a client whose
// context dies while waiting stops waiting (the worker's reply is
// buffered, so it never blocks either), and a request whose context is
// already dead when the worker dequeues it is answered with the context
// error without touching the backend.
//
// Injected power failures surface as ErrInterrupted on the victim
// request; the worker immediately runs the scheme's recovery procedure
// (§4.3) and continues the round, so one crash never poisons a shard.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/storage/filestore"
)

// Typed serving-layer errors.
var (
	// ErrOverloaded reports a full shard queue. The request was not
	// enqueued; the caller may retry after backing off.
	ErrOverloaded = errors.New("serve: shard queue full")
	// ErrPoolClosed reports a submit after Close began.
	ErrPoolClosed = errors.New("serve: pool closed")
	// ErrInterrupted reports an access interrupted by a simulated power
	// failure. The shard has already recovered (§4.3); per the crash
	// contract the interrupted op either fully persisted or never
	// happened, so the caller may re-issue it.
	ErrInterrupted = errors.New("serve: access interrupted by simulated power failure (shard recovered)")
	// ErrResharding reports an access to a keyspace stripe that is being
	// migrated by an in-flight Reshard. The request touched no backend;
	// the stripe unfreezes within one migration step, so the caller may
	// retry after backing off (the network front-end maps this to a
	// RETRY_AFTER status frame).
	ErrResharding = errors.New("serve: keyspace stripe migrating; retry")
	// ErrReshardBusy reports a Reshard call while another is in flight.
	ErrReshardBusy = errors.New("serve: reshard already in progress")
)

// errRouteChanged is the internal retry signal: the routing table was
// swapped between route resolution and enqueue, so the request must be
// re-routed against the new table. Never escapes the package.
var errRouteChanged = errors.New("serve: routing table changed mid-submit")

// Backend is one shard's underlying store: the oracle's uniform target
// shape plus the recovery hook. The adapters oracle.NewTarget builds
// satisfy it for every scheme.
type Backend interface {
	oracle.Target
	Recover() error
}

// clocked is the optional backend facet pricing accesses in simulated
// cycles (the core controllers implement it; the functional Ring and
// plain stores do not, and their latencies record as zero).
type clocked interface{ Cycles() uint64 }

// prefetcher is the optional backend facet for protocol pipelining: the
// worker calls Prefetch for the next queued request while the current
// one is still in its eviction/seal tail, so the next access starts
// with its path headers already decoded. Prefetch must be protocol-free
// (no state mutation, no simulated traffic).
type prefetcher interface{ Prefetch(addr oram.Addr) }

// staged is the optional backend facet exposing cumulative per-stage
// wall time (load / crypto / evict / seal / persist); the worker
// differences snapshots around each access to feed the stage
// histograms.
type staged interface{ StageNanos() [5]int64 }

// stageNames labels the staged facet's indices (mirrors core.StageNames
// without importing core).
var stageNames = [5]string{"load", "crypto", "evict", "seal", "persist"}

// grouped is the optional backend facet for group-commit durability:
// accesses return before their mutations are durable, so the worker
// holds each successful access's reply on OnCommit (fired by the
// backend once the covering group persist barrier completes — possibly
// on the backend's persist worker, hence the buffered reply channels),
// flushes the open group when the queue idles past GroupCommitDelay,
// and drains it before exiting. SetCommitObserver feeds the group-size
// and persist-latency histograms.
type grouped interface {
	OnCommit(fn func(error))
	FlushCommits() error
	CommitPending() bool
	SetCommitObserver(fn func(ops int, persistNanos int64))
}

// crashable is the optional backend facet accepting a crash injector.
type crashable interface {
	Arm(fire func(oracle.CrashSpec) bool)
}

// snapshotter is the optional backend facet serializing the shard's
// durable NVM image (core.SaveDurable through the oracle adapter) plus
// the effective config a core.LoadDurable of that image needs; the
// resharding path migrates WPQ-persistent shards through it.
type snapshotter interface {
	SaveDurable(w io.Writer) error
	SnapshotConfig() config.Config
}

// Factory builds the backend for one shard. localBlocks is the number
// of logical blocks the shard owns after keyspace striping. A Factory
// is also used by Reshard to build the replacement shard set, so it
// must be callable more than once per pool, and the shards of one set
// are built concurrently, so it must be safe for concurrent calls.
type Factory func(shard int, localBlocks uint64) (Backend, error)

// Options sizes a Pool.
type Options struct {
	// Shards is the number of independent stores (default 4). For a
	// durable pool over a store directory that has been resharded, the
	// committed on-disk topology wins and this field is ignored.
	Shards int
	// NumBlocks is the total logical block count across the pool
	// (required). Block addr lives on shard addr%Shards as local block
	// addr/Shards.
	NumBlocks uint64
	// Scheme defaults to PSORAM.
	Scheme config.Scheme
	// Levels forces each shard's tree height (0 = derive from the
	// shard's block count).
	Levels int
	// Seed is the pool RNG root; each shard derives an independent
	// stream from it, so pools built from the same seed are replicas.
	Seed uint64
	// Cfg overrides the base configuration; nil means config.Default().
	Cfg *config.Config
	// QueueDepth bounds each shard's request queue (default 64). A full
	// queue rejects with ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many queued requests one protocol round
	// coalesces (default 8).
	MaxBatch int
	// StoreDir, when non-empty, backs every shard with a durable on-disk
	// store under StoreDir (create-or-recover; flat Path ORAM schemes
	// only). A fresh pool lays shards out as StoreDir/shard-NNN; after a
	// Reshard they live under an epoch directory committed by the
	// TOPOLOGY manifest (see internal/storage/filestore). Close then
	// persists and closes every shard's store after the drain. Ignored
	// when Factory is set.
	StoreDir string
	// Factory overrides backend construction (tests, custom schemes).
	// Nil means oracle.NewTarget with per-shard derived seeds.
	Factory Factory
	// CryptoWorkers sizes each shard controller's seal fan-out pool.
	// 0 or 1 keeps sealing inline on the shard worker (byte-identical to
	// the serial path).
	CryptoWorkers int
	// PipelineDepth controls intra-shard protocol pipelining. 1 disables
	// it entirely — every request runs the strict serial protocol with no
	// lookahead and no read-combining, matching the pre-pipelining
	// behavior exactly. Depths above 1 let the worker prefetch the next
	// queued request's path while the current one finishes, and collapse
	// duplicate-address reads within one coalesced round into a single
	// physical access. 0 defaults to 4.
	PipelineDepth int
	// GroupCommitOps batches each durable shard's persist barrier across
	// up to this many accesses: replies are held until the covering
	// group flushes, so acks still imply durability, but the fsync floor
	// is paid once per group instead of once per access. <= 1 keeps the
	// per-access serial barrier (byte-identical on disk). Only effective
	// for durable backends (StoreDir, or a Factory whose backends
	// implement the group-commit facet).
	GroupCommitOps int
	// GroupCommitDelay bounds how long an idle shard may hold an open
	// commit group: when the worker's queue is empty and acks are
	// pending, the group is flushed after this long. 0 defaults to 2ms
	// when GroupCommitOps > 1.
	GroupCommitDelay time.Duration
}

func (o *Options) normalize() error {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.NumBlocks == 0 {
		return errors.New("serve: Options.NumBlocks is required")
	}
	if uint64(o.Shards) > o.NumBlocks {
		return fmt.Errorf("serve: %d shards need at least %d blocks, have %d", o.Shards, o.Shards, o.NumBlocks)
	}
	if o.Scheme == config.SchemeNonORAM && o.Factory == nil {
		o.Scheme = config.SchemePSORAM
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 4
	}
	if o.GroupCommitOps > 1 && o.GroupCommitDelay <= 0 {
		o.GroupCommitDelay = 2 * time.Millisecond
	}
	return nil
}

// ShardOf is the routing function: the shard owning global block addr.
// It is pure arithmetic — the same address maps to the same shard in
// every pool with the same shard count, across restarts.
func ShardOf(addr uint64, shards int) int { return int(addr % uint64(shards)) }

// localAddr is addr's block index within its shard's keyspace stripe.
func localAddr(addr uint64, shards int) oram.Addr { return oram.Addr(addr / uint64(shards)) }

// localBlocks is how many of the n global blocks stripe onto shard s.
func localBlocks(n uint64, shards, s int) uint64 {
	return (n - uint64(s) + uint64(shards) - 1) / uint64(shards)
}

// stripeState is one old stripe's position in an in-flight reshard:
// still served by its old shard, frozen while its blocks move, or
// re-routed to the new shard set.
type stripeState uint8

const (
	stripeOld stripeState = iota
	stripeMigrating
	stripeNew
)

// routeTable is the pool's immutable routing state. Stable pools have
// next == nil and route addr to shards[addr%S]. During a reshard, next
// holds the replacement shard set and state tracks each old stripe
// (addr%oldS): OLD routes to the old shard, MIGRATING rejects with
// ErrResharding, NEW routes to the new set — with writes mirrored back
// to the old shard so an abort (or a crash before the topology commit)
// never loses an acknowledged write. Every transition installs a fresh
// table; a table, once published, is never mutated.
type routeTable struct {
	epoch  uint64
	shards []*shard      // serving set (stable), or the old set mid-reshard
	next   []*shard      // replacement set; nil when stable
	state  []stripeState // per old stripe; nil when stable
}

// route resolves addr: the shard to submit to, the shard-local address,
// and — for writes landing on an already-migrated stripe — the old
// shard to mirror the write into.
func (rt *routeTable) route(addr uint64) (primary *shard, local oram.Addr, mirror *shard, mirrorLocal oram.Addr, err error) {
	oldS := uint64(len(rt.shards))
	if rt.next == nil {
		return rt.shards[addr%oldS], oram.Addr(addr / oldS), nil, 0, nil
	}
	o := addr % oldS
	switch rt.state[o] {
	case stripeOld:
		return rt.shards[o], oram.Addr(addr / oldS), nil, 0, nil
	case stripeMigrating:
		return nil, 0, nil, 0, ErrResharding
	default: // stripeNew
		newS := uint64(len(rt.next))
		return rt.next[addr%newS], oram.Addr(addr / newS), rt.shards[o], oram.Addr(addr / oldS), nil
	}
}

// live returns every shard the table references (serving set plus the
// replacement set mid-reshard).
func (rt *routeTable) live() []*shard {
	if rt.next == nil {
		return rt.shards
	}
	all := make([]*shard, 0, len(rt.shards)+len(rt.next))
	all = append(all, rt.shards...)
	return append(all, rt.next...)
}

// request kinds a shard worker executes.
type kind uint8

const (
	kindAccess kind = iota
	kindPeek
	kindInvariants
	kindArm
	// kindExec runs an arbitrary closure on the shard's worker goroutine,
	// preserving the single-threaded backend contract. The resharding
	// path extracts a frozen shard's blocks through it.
	kindExec
)

type response struct {
	value []byte
	leaf  oram.Leaf
	errs  []error
	err   error
}

// request is a pooled submission envelope. The reply channel is
// allocated once per request object and buffered(1), so the worker
// never blocks on it; the object cycles through Pool.reqPool and is
// reused only after its reply has been received (an abandoned request —
// client context died first — is left to the GC, because its late
// reply would otherwise leak into the next user of the channel).
type request struct {
	kind  kind
	op    oram.Op
	addr  oram.Addr // shard-local
	data  []byte
	fire  func(oracle.CrashSpec) bool
	fn    func(b Backend) error // kindExec body
	ctx   context.Context
	reply chan response
}

// shard is one keyspace stripe: a single-threaded backend plus the one
// goroutine allowed to touch it.
type shard struct {
	id       int
	blocks   uint64 // local block count (stats)
	backend  Backend
	clock    clocked    // nil when the backend has no cycle clock
	prefetch prefetcher // nil when pipelining is off or unsupported
	stages   staged     // nil when the backend has no stage clock
	grouped  grouped    // nil when group commit is off or unsupported
	queue    chan *request
	done     chan struct{} // closed when the worker exits (per-shard join)

	// Worker-owned pipelining scratch (no locks: one worker per shard).
	stageLast [5]int64     // last StageNanos snapshot
	combine   []int        // per-round: leader index for combinable reads, -1 = physical
	caps      []combineCap // per-round leader value captures

	// closeMu serializes sends on queue against its close: submitters
	// hold the read side around the send, teardown (pool Close, or
	// Reshard retiring a shard set) holds the write side around
	// close(queue). closed is the queue's state, guarded by closeMu —
	// per-shard, because Reshard closes old shards while the pool as a
	// whole keeps serving.
	closeMu sync.RWMutex
	closed  bool

	// Counters are atomics (written by the worker and the submit path,
	// read by Stats), each padded to its own cache line so shards and
	// adjacent counters never false-share; the histograms are
	// worker-owned and guarded by mu.
	submitted  stats.PaddedUint64
	rejected   stats.PaddedUint64
	completed  stats.PaddedUint64
	expired    stats.PaddedUint64
	crashes    stats.PaddedUint64
	recoveries stats.PaddedUint64
	batches    stats.PaddedUint64
	combined   stats.PaddedUint64 // reads served from a round-mate's access
	flushes    stats.PaddedUint64 // group persist barriers run (group commit)

	mu        sync.Mutex
	latency   stats.Histogram    // per-access service time, simulated cycles
	batch     stats.Histogram    // requests coalesced per protocol round
	stageHist [5]stats.Histogram // per-access wall ns per protocol stage
	groupHist stats.Histogram    // accesses covered per group persist barrier
	persistNs stats.Histogram    // wall ns per group barrier, flush → durable
}

// combineCap captures one physical access's outcome for round-mates that
// combine with it: the post-access value (read result, or the data just
// written) and the leaf of the physical round. The value buffer is
// capture-owned and reused across rounds.
type combineCap struct {
	want  bool // some later read in this round combines with this access
	ok    bool // the access succeeded and value/leaf are valid
	leaf  oram.Leaf
	value []byte
}

// Pool is the concurrent serving layer: S shards, S workers, bounded
// queues in front. All methods are safe for concurrent use.
type Pool struct {
	opts   Options
	router atomic.Pointer[routeTable]
	wg     sync.WaitGroup // every worker ever started (old sets included)

	closed  atomic.Bool // submits re-check under the shard's closeMu
	reqPool sync.Pool   // *request envelopes with their reply channels

	// reshardMu serializes Reshard against itself and against Close.
	// Invariant: whenever it is free, the published table is stable
	// (next == nil).
	reshardMu sync.Mutex
	storeRoot string // durable pool root; "" for in-memory or Factory pools
}

// New builds and starts a pool. The returned Pool is serving; callers
// own shutting it down with Close. Over a store directory that holds a
// committed reshard topology, the on-disk shard count and epoch are
// adopted (the TOPOLOGY manifest is authoritative — the pool may have
// been resharded since the flags were written down).
func New(opts Options) (*Pool, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	epoch := uint64(0)
	p := &Pool{opts: opts}
	if opts.StoreDir != "" && opts.Factory == nil {
		topo, err := filestore.ReadTopology(opts.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if topo != nil {
			opts.Shards = topo.Shards
			epoch = topo.Epoch
			if uint64(opts.Shards) > opts.NumBlocks {
				return nil, fmt.Errorf("serve: committed topology has %d shards, need at least %d blocks, have %d",
					opts.Shards, opts.Shards, opts.NumBlocks)
			}
			p.opts.Shards = opts.Shards
		}
		if err := filestore.CleanStale(opts.StoreDir, topo); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		p.storeRoot = opts.StoreDir
	}
	p.reqPool.New = func() any { return &request{reply: make(chan response, 1)} }
	backends, err := p.buildBackends(opts.Shards, epoch)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	shards := make([]*shard, opts.Shards)
	for s, b := range backends {
		shards[s] = p.newShard(s, b)
	}
	p.router.Store(&routeTable{epoch: epoch, shards: shards})
	return p, nil
}

// buildBackends builds the backends of an n-shard set in the given
// topology epoch, concurrently on at most GOMAXPROCS goroutines (a
// large shard's build is dominated by sealing its whole tree). If any
// shard fails, every backend that was built is closed and the failure
// of the lowest-numbered failing shard is returned.
func (p *Pool) buildBackends(n int, epoch uint64) ([]Backend, error) {
	out := make([]Backend, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < n; s = int(next.Add(1)) - 1 {
				dir := ""
				if p.storeRoot != "" {
					dir = filestore.ShardDir(p.storeRoot, epoch, s)
				}
				out[s], errs[s] = p.buildBackend(s, localBlocks(p.opts.NumBlocks, n, s), dir)
			}
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err == nil {
			continue
		}
		for _, b := range out {
			if c, ok := b.(io.Closer); ok {
				c.Close()
			}
		}
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	return out, nil
}

// buildBackend constructs one shard's backend: the Options.Factory when
// set, otherwise oracle.NewTarget with a per-shard derived seed and the
// given durable directory ("" = in-memory). Reshard calls it again for
// the replacement shard set.
func (p *Pool) buildBackend(s int, local uint64, dir string) (Backend, error) {
	if p.opts.Factory != nil {
		return p.opts.Factory(s, local)
	}
	// Derive the tree height here rather than leaving it to the
	// controller: ringoram.New requires an explicit height, and the WPQ
	// sizing in oracle.NewTarget scales with it.
	levels := p.opts.Levels
	if levels == 0 {
		cfg := config.Default()
		if p.opts.Cfg != nil {
			cfg = *p.opts.Cfg
		}
		levels = cfg.TreeLevelsFor(local)
	}
	t, err := oracle.NewTarget(oracle.Params{
		Scheme:           p.opts.Scheme,
		NumBlocks:        local,
		Levels:           levels,
		Seed:             rng.DeriveSeed(p.opts.Seed, 0x5e4e, uint64(s)),
		Cfg:              p.opts.Cfg,
		StoreDir:         dir,
		CryptoWorkers:    p.opts.CryptoWorkers,
		GroupCommitOps:   p.opts.GroupCommitOps,
		GroupCommitDelay: p.opts.GroupCommitDelay,
	})
	if err != nil {
		return nil, err
	}
	b, ok := t.(Backend)
	if !ok {
		return nil, fmt.Errorf("serve: %v target does not support recovery", p.opts.Scheme)
	}
	return b, nil
}

// newShard wraps a backend in a shard and starts its worker.
func (p *Pool) newShard(id int, b Backend) *shard {
	sh := &shard{
		id:      id,
		blocks:  b.NumBlocks(),
		backend: b,
		queue:   make(chan *request, p.opts.QueueDepth),
		done:    make(chan struct{}),
	}
	sh.clock, _ = b.(clocked)
	sh.stages, _ = b.(staged)
	if p.opts.PipelineDepth > 1 {
		sh.prefetch, _ = b.(prefetcher)
	}
	if p.opts.GroupCommitOps > 1 {
		sh.grouped, _ = b.(grouped)
		if sh.grouped != nil {
			// The observer runs on the backend's persist worker;
			// histograms are mu-guarded, so a third writer is fine.
			sh.grouped.SetCommitObserver(func(ops int, persistNanos int64) {
				sh.flushes.Add(1)
				sh.mu.Lock()
				sh.groupHist.Observe(uint64(ops))
				sh.persistNs.Observe(uint64(persistNanos))
				sh.mu.Unlock()
			})
		}
	}
	sh.combine = make([]int, 0, p.opts.MaxBatch)
	sh.caps = make([]combineCap, p.opts.MaxBatch)
	p.wg.Add(1)
	go p.work(sh)
	return sh
}

// work is a shard's worker loop: block for one request, coalesce up to
// MaxBatch-1 more that are already queued, and run them as one protocol
// round. With pipelining on (PipelineDepth > 1), the round is planned
// before execution: duplicate-address reads combine with the latest
// preceding access to their address (one physical round, value fanned
// out), and after each access the worker prefetches the next request's
// path so its header decodes overlap the current access's tail. Under
// group commit, an idle queue with held acks flushes the open group
// after GroupCommitDelay. Exits when the queue is closed and drained —
// flushing any open group on the way out, so every request accepted
// before Close is answered.
func (p *Pool) work(sh *shard) {
	defer close(sh.done)
	defer p.wg.Done()
	batch := make([]*request, 0, p.opts.MaxBatch)
	combining := p.opts.PipelineDepth > 1
	for {
		var first *request
		var ok bool
		if sh.grouped != nil && sh.grouped.CommitPending() {
			// Acks are held on an open commit group and no request is
			// ready: bound their wait. The flush error (if any) reaches
			// the held replies through their tickets.
			select {
			case first, ok = <-sh.queue:
			case <-time.After(p.opts.GroupCommitDelay):
				sh.grouped.FlushCommits()
				continue
			}
		} else {
			first, ok = <-sh.queue
		}
		if !ok {
			break
		}
		batch = append(batch[:0], first)
	coalesce:
		for len(batch) < p.opts.MaxBatch {
			select {
			case r, ok := <-sh.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, r)
			default:
				break coalesce
			}
		}
		sh.batches.Add(1)
		occ := uint64(len(batch))
		sh.planCombines(batch, combining)
		for i, r := range batch {
			var cc *combineCap
			if combining {
				if j := sh.combine[i]; j >= 0 && sh.caps[j].ok &&
					(r.ctx == nil || r.ctx.Err() == nil) {
					// Read-combining fast path: a round-mate already ran
					// the physical access for this address; fan its value
					// out without another round.
					c := &sh.caps[j]
					sh.combined.Add(1)
					sh.completed.Add(1)
					resp := response{value: append([]byte(nil), c.value...), leaf: c.leaf}
					sh.deliver(r, resp)
					continue
				}
				if sh.caps[i].want {
					cc = &sh.caps[i]
				}
			}
			p.execute(sh, r, cc)
			// Pipelining: the current request's protocol round is done (or
			// in its seal tail on a parallel crypto pool) — start decoding
			// the next queued access's path.
			if sh.prefetch != nil && i+1 < len(batch) {
				if nxt := batch[i+1]; nxt.kind == kindAccess && sh.combine[i+1] < 0 {
					sh.prefetch.Prefetch(nxt.addr)
				}
			}
		}
		sh.mu.Lock()
		sh.batch.Observe(occ)
		sh.mu.Unlock()
	}
	if sh.grouped != nil {
		// Queue closed and drained: flush the open group so every held
		// reply resolves before the shard reports done.
		sh.grouped.FlushCommits()
	}
}

// deliver sends a successful access reply — immediately, or held on the
// covering commit group's ticket under group commit, so the ack is only
// observable once the access is durable. A barrier failure replaces the
// held reply with the error. The reply channel is buffered(1), so the
// eventual send (possibly from the backend's persist worker) never
// blocks.
func (sh *shard) deliver(r *request, resp response) {
	if sh.grouped == nil {
		r.reply <- resp
		return
	}
	sh.grouped.OnCommit(func(perr error) {
		if perr != nil {
			r.reply <- response{err: fmt.Errorf("serve: shard %d: %w", sh.id, perr)}
			return
		}
		r.reply <- resp
	})
}

// planCombines marks, for each read in the round, the latest preceding
// access (read or write) to the same address: the read can be served
// from that access's captured outcome without a physical round of its
// own. Chains resolve to the physical leader, and writes are never
// combined away — they serialize in arrival order, so a combined read
// always observes the newest preceding write in the round.
func (sh *shard) planCombines(batch []*request, combining bool) {
	sh.combine = sh.combine[:0]
	for range batch {
		sh.combine = append(sh.combine, -1)
	}
	for i := range sh.caps {
		sh.caps[i].want, sh.caps[i].ok = false, false
	}
	if !combining || len(batch) < 2 {
		return
	}
	for i, r := range batch {
		if r.kind != kindAccess || r.op != oram.OpRead {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			rj := batch[j]
			if rj.kind == kindAccess && rj.addr == r.addr {
				lead := j
				if sh.combine[lead] >= 0 {
					lead = sh.combine[lead] // j itself combines; share its leader
				}
				sh.combine[i] = lead
				sh.caps[lead].want = true
				break
			}
		}
	}
}

// execute runs one request on the shard's backend and replies. Crash
// errors trigger immediate recovery so the round (and the shard) keeps
// serving. When cc is non-nil a later read in this round combines with
// this access: on success the post-access value and leaf are captured
// into cc before the reply is sent (the client may mutate its buffers
// the moment the reply lands).
func (p *Pool) execute(sh *shard, r *request, cc *combineCap) {
	// A request whose deadline passed while queued is answered without
	// spending a protocol access on it.
	if r.ctx != nil && r.ctx.Err() != nil && r.kind != kindArm {
		sh.expired.Add(1)
		r.reply <- response{err: r.ctx.Err()}
		return
	}
	var resp response
	switch r.kind {
	case kindAccess:
		start := uint64(0)
		if sh.clock != nil {
			start = sh.clock.Cycles()
		}
		v, leaf, err := sh.backend.Access(r.op, r.addr, r.data)
		if errors.Is(err, oracle.ErrCrashed) {
			sh.crashes.Add(1)
			if rerr := sh.backend.Recover(); rerr != nil {
				resp.err = fmt.Errorf("serve: shard %d recovery failed: %w", sh.id, rerr)
			} else {
				sh.recoveries.Add(1)
				resp.err = ErrInterrupted
			}
		} else if err != nil {
			resp.err = fmt.Errorf("serve: shard %d: %w", sh.id, err)
		} else {
			// The backend's value may alias its internal buffer, valid
			// only until its next access; ownership transfers to the
			// client here, so this is the data path's one copy.
			resp.value, resp.leaf = append([]byte(nil), v...), leaf
			if cc != nil {
				post := v
				if r.op == oram.OpWrite {
					post = r.data
				}
				cc.value = append(cc.value[:0], post...)
				cc.leaf = leaf
				cc.ok = true
			}
			if sh.clock != nil || sh.stages != nil {
				sh.mu.Lock()
				if sh.clock != nil {
					sh.latency.Observe(sh.clock.Cycles() - start)
				}
				if sh.stages != nil {
					now := sh.stages.StageNanos()
					for k := range now {
						if d := now[k] - sh.stageLast[k]; d > 0 {
							sh.stageHist[k].Observe(uint64(d))
						}
						sh.stageLast[k] = now[k]
					}
				}
				sh.mu.Unlock()
			}
		}
	case kindPeek:
		resp.value, resp.err = sh.backend.Peek(r.addr)
	case kindInvariants:
		resp.errs = sh.backend.Invariants()
	case kindArm:
		if c, ok := sh.backend.(crashable); ok {
			c.Arm(r.fire)
		} else {
			resp.err = fmt.Errorf("serve: shard %d backend does not support crash injection", sh.id)
		}
	case kindExec:
		resp.err = r.fn(sh.backend)
	}
	if resp.err == nil || errors.Is(resp.err, ErrInterrupted) {
		sh.completed.Add(1)
	}
	if r.kind == kindAccess && resp.err == nil {
		// Successful accesses are the only replies that imply the
		// mutation is durable; under group commit they are held on their
		// commit ticket. Errors (including ErrInterrupted — the access
		// never happened) and non-access kinds reply immediately.
		sh.deliver(r, resp)
		return
	}
	r.reply <- resp
}

// getRequest takes a request envelope from the pool; putRequest resets
// it (keeping its reply channel) and returns it. Only requests whose
// reply has been received — or that were never enqueued — may be put
// back; the channel must be empty on reuse.
func (p *Pool) getRequest() *request {
	return p.reqPool.Get().(*request)
}

func (p *Pool) putRequest(r *request) {
	reply := r.reply
	*r = request{reply: reply}
	p.reqPool.Put(r)
}

// submit routes r to shard sh without ever blocking on a full queue.
// It consumes r: the envelope is recycled (or, on abandonment, leaked
// to the GC) before submit returns, so the caller must not touch it
// again.
//
// When rt is non-nil, the routing table is revalidated under the
// shard's closeMu read lock: if it changed since the caller resolved
// the route, submit backs out with errRouteChanged and the caller
// re-routes. This is the reshard freeze handshake — a stripe
// transition swaps the table and then takes the old shard's closeMu
// write lock as a barrier, so every enqueue that slipped past the old
// table has landed (and will drain) before migration reads the shard.
func (p *Pool) submit(ctx context.Context, sh *shard, r *request, rt *routeTable) (response, error) {
	r.ctx = ctx
	sh.closeMu.RLock()
	if p.closed.Load() {
		sh.closeMu.RUnlock()
		p.putRequest(r)
		return response{}, ErrPoolClosed
	}
	if sh.closed {
		// The shard's queue is gone (its set was retired by a completed
		// or aborted reshard); the current table routes elsewhere.
		sh.closeMu.RUnlock()
		p.putRequest(r)
		return response{}, errRouteChanged
	}
	if rt != nil && p.router.Load() != rt {
		sh.closeMu.RUnlock()
		p.putRequest(r)
		return response{}, errRouteChanged
	}
	select {
	case sh.queue <- r:
		sh.submitted.Add(1)
		sh.closeMu.RUnlock()
	default:
		sh.rejected.Add(1)
		sh.closeMu.RUnlock()
		p.putRequest(r)
		return response{}, ErrOverloaded
	}
	if ctx == nil {
		resp := <-r.reply
		p.putRequest(r)
		return resp, resp.err
	}
	select {
	case resp := <-r.reply:
		p.putRequest(r)
		return resp, resp.err
	case <-ctx.Done():
		// The worker will still execute (or expire) the request and its
		// reply lands in the buffered channel; the client just stops
		// waiting. The envelope is NOT recycled — the late reply sitting
		// in its channel would surface as the next user's answer.
		return response{}, ctx.Err()
	}
}

// Access performs one oblivious access on the shard owning addr and
// returns the value read (for writes: the previous value) plus the leaf
// whose path was read, mirroring the oracle target contract. During a
// reshard, writes landing on an already-migrated stripe are mirrored
// into the stripe's old shard before the access is acknowledged, so an
// acknowledged write survives both reshard outcomes (commit and abort —
// or, for durable pools, a crash recovered on either topology).
func (p *Pool) Access(ctx context.Context, op oram.Op, addr uint64, data []byte) ([]byte, oram.Leaf, error) {
	if addr >= p.opts.NumBlocks {
		return nil, 0, fmt.Errorf("serve: access to addr %d outside [0,%d)", addr, p.opts.NumBlocks)
	}
	// first remembers the initial acked primary execution across
	// mirror-driven retries: a retry re-runs the (idempotent) write so
	// the data provably lands on whatever table is now authoritative,
	// but the linearized previous value is the one the FIRST execution
	// observed — the re-run would see the write's own data.
	var first *response
	for {
		rt := p.router.Load()
		sh, local, mirror, mirrorLocal, rerr := rt.route(addr)
		if rerr != nil {
			return nil, 0, rerr
		}
		r := p.getRequest()
		r.kind, r.op, r.addr, r.data = kindAccess, op, local, data
		resp, err := p.submit(ctx, sh, r, rt)
		if err == errRouteChanged {
			continue
		}
		if err != nil || mirror == nil || op != oram.OpWrite {
			if first != nil && err == nil {
				resp = *first
			}
			return resp.value, resp.leaf, err
		}
		if first == nil {
			cp := resp
			first = &cp
		}
		if merr := p.mirrorWrite(ctx, rt, mirror, mirrorLocal, data); merr != nil {
			if merr == errRouteChanged {
				// The table moved between the primary and the mirror
				// (reshard committed, aborted, or advanced a stripe).
				// Re-run the whole write against the new table.
				continue
			}
			return nil, 0, merr
		}
		return first.value, first.leaf, nil
	}
}

// mirrorWrite replicates an acked write into the stripe's old shard
// during a reshard. Replication is an internal duty, so transient
// serving errors (full queue, injected-crash recovery) retry in place
// rather than surfacing a spurious failure for an access whose primary
// copy already landed; only errRouteChanged (caller re-routes) and hard
// errors escape.
func (p *Pool) mirrorWrite(ctx context.Context, rt *routeTable, sh *shard, local oram.Addr, data []byte) error {
	for {
		m := p.getRequest()
		m.kind, m.op, m.addr, m.data = kindAccess, oram.OpWrite, local, data
		_, err := p.submit(ctx, sh, m, rt)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrOverloaded):
			select {
			case <-time.After(50 * time.Microsecond):
			case <-ctxDone(ctx):
				return ctx.Err()
			}
		case errors.Is(err, ErrInterrupted):
			// The mirror shard recovered; the write is idempotent.
		default:
			return err
		}
	}
}

// ctxDone tolerates the package's nil-context convention (nil = no
// deadline, never cancelled).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Read performs one oblivious read.
func (p *Pool) Read(ctx context.Context, addr uint64) ([]byte, error) {
	v, _, err := p.Access(ctx, oram.OpRead, addr, nil)
	return v, err
}

// Write performs one oblivious write; data must be BlockBytes long.
func (p *Pool) Write(ctx context.Context, addr uint64, data []byte) error {
	_, _, err := p.Access(ctx, oram.OpWrite, addr, data)
	return err
}

// Peek reads addr without a protocol access (test/debug oracle path).
func (p *Pool) Peek(ctx context.Context, addr uint64) ([]byte, error) {
	if addr >= p.opts.NumBlocks {
		return nil, fmt.Errorf("serve: peek at addr %d outside [0,%d)", addr, p.opts.NumBlocks)
	}
	for {
		rt := p.router.Load()
		sh, local, _, _, rerr := rt.route(addr)
		if rerr != nil {
			return nil, rerr
		}
		r := p.getRequest()
		r.kind, r.addr = kindPeek, local
		resp, err := p.submit(ctx, sh, r, rt)
		if err == errRouteChanged {
			continue
		}
		return resp.value, err
	}
}

// Invariants runs every shard's structural invariant checks through the
// shards' own queues (so they serialize against in-flight rounds) and
// returns all violations found, prefixed with the shard id. During a
// reshard both shard sets are checked.
func (p *Pool) Invariants(ctx context.Context) []error {
	var out []error
	for _, sh := range p.router.Load().live() {
		r := p.getRequest()
		r.kind = kindInvariants
		resp, err := p.submit(ctx, sh, r, nil)
		if err == errRouteChanged {
			continue // the shard was retired mid-call; its set is gone
		}
		if err != nil {
			out = append(out, fmt.Errorf("serve: shard %d invariants: %w", sh.id, err))
			continue
		}
		for _, e := range resp.errs {
			out = append(out, fmt.Errorf("serve: shard %d: %w", sh.id, e))
		}
	}
	return out
}

// ArmCrash installs a crash injector on one shard of the current
// serving set, serialized through its queue like any other request:
// fire is called at each protocol crash point and returning true
// simulates the power failure there. Pass nil to disarm.
func (p *Pool) ArmCrash(ctx context.Context, shard int, fire func(oracle.CrashSpec) bool) error {
	for {
		rt := p.router.Load()
		if shard < 0 || shard >= len(rt.shards) {
			return fmt.Errorf("serve: no shard %d (have %d)", shard, len(rt.shards))
		}
		r := p.getRequest()
		r.kind, r.fire = kindArm, fire
		_, err := p.submit(ctx, rt.shards[shard], r, rt)
		if err == errRouteChanged {
			continue
		}
		return err
	}
}

// NumBlocks returns the pool's total logical block count.
func (p *Pool) NumBlocks() uint64 { return p.opts.NumBlocks }

// Closed reports whether Close has begun: the drain hook for front-ends
// that must stop admitting work (and advertise "closing" to clients)
// before the pool stops answering.
func (p *Pool) Closed() bool { return p.closed.Load() }

// BlockBytes returns the block payload size in bytes.
func (p *Pool) BlockBytes() int { return p.router.Load().shards[0].backend.BlockBytes() }

// Shards returns the current serving shard count (the old set's, while
// a reshard is migrating).
func (p *Pool) Shards() int { return len(p.router.Load().shards) }

// Epoch returns the routing epoch: 0 for a pool that has never been
// resharded, incremented by each committed Reshard. For durable pools
// the epoch is committed in the store's TOPOLOGY manifest.
func (p *Pool) Epoch() uint64 { return p.router.Load().epoch }

// Resharding reports whether a Reshard is migrating stripes right now.
func (p *Pool) Resharding() bool { return p.router.Load().next != nil }

// Scheme returns the persistence protocol the shards run.
func (p *Pool) Scheme() config.Scheme { return p.router.Load().shards[0].backend.Scheme() }

// Close drains the pool: no new submits are accepted, every already
// queued request is executed (crashed rounds recover via §4.3 on the
// way out), the workers exit, and any backend implementing io.Closer is
// closed (for file-backed shards that runs the final persist barrier).
// An in-flight Reshard is aborted (it observes closed at its next
// stripe boundary and reverts) before the drain begins. The context
// bounds the drain; on expiry the workers keep draining — and the
// backends still get closed — in the background, but Close returns the
// context error.
func (p *Pool) Close(ctx context.Context) error {
	if !p.closed.CompareAndSwap(false, true) {
		return ErrPoolClosed
	}
	// Wait out any in-flight Reshard: it checks closed at every stripe
	// boundary and aborts, releasing reshardMu with a stable table.
	p.reshardMu.Lock()
	defer p.reshardMu.Unlock()
	shards := p.router.Load().live()
	// Safe: submitters re-check closed under the shard's read lock
	// before touching the queue, so taking the write lock here means
	// nobody can send on a closed channel.
	for _, sh := range shards {
		sh.closeMu.Lock()
		if !sh.closed {
			sh.closed = true
			close(sh.queue)
		}
		sh.closeMu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		// Backends are single-threaded; closing them only after every
		// worker has exited keeps that contract.
		p.wg.Wait()
		var first error
		for _, sh := range shards {
			if c, ok := sh.backend.(io.Closer); ok {
				if err := c.Close(); err != nil && first == nil {
					first = fmt.Errorf("serve: shard %d close: %w", sh.id, err)
				}
			}
		}
		done <- first
	}()
	if ctx == nil {
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
