package oracle

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/oram"
	"repro/internal/ringoram"
)

// ErrCrashed is the normalized "injected power failure" error: the
// adapters translate core.ErrCrashed / ringoram.ErrCrashed into it so the
// harness handles every scheme uniformly.
var ErrCrashed = errors.New("oracle: simulated power failure")

// CrashSpec is a crash-injection offer in the shared step numbering
// (crash.DeclaredSteps; Ring phases mapped via crash.RingStepForPhase).
type CrashSpec struct {
	Access uint64 // completed accesses when the point was offered
	Step   int
	Sub    int // sub-step, -1 when the scheme has none
}

// Target is the oracle's uniform view of a system under test. Access
// runs one protocol access and returns the value read (the previous
// value for writes) plus the leaf whose path was read; Peek reads an
// address without a protocol access; Invariants checks the scheme's
// structural invariants (stash bounds, block placement, metadata
// coherence) and returns every violation found.
type Target interface {
	Scheme() config.Scheme
	NumBlocks() uint64
	BlockBytes() int
	// Leaves returns the tree's leaf count, or 0 when the scheme has no
	// ORAM tree (NonORAM) — the leaf returned by Access is then
	// meaningless and the obliviousness probe is skipped.
	Leaves() uint64
	// Access performs one protocol access. The returned value may alias
	// a target-owned buffer and is only valid until the next call on the
	// same target; callers that retain it must copy.
	Access(op oram.Op, addr oram.Addr, data []byte) (value []byte, leaf oram.Leaf, err error)
	Peek(addr oram.Addr) ([]byte, error)
	Invariants() []error
}

// CrashTarget is a Target that supports crash injection: Arm installs
// the injection hook (fire returns true to trigger the power failure at
// the offered point; a nil fire disarms) and Recover runs the scheme's
// recovery procedure.
type CrashTarget interface {
	Target
	Arm(fire func(CrashSpec) bool)
	Recover() error
}

// Params selects and sizes a system under test.
type Params struct {
	Scheme    config.Scheme
	NumBlocks uint64
	Levels    int
	Seed      uint64
	// Cfg overrides the base configuration; nil means config.Default().
	Cfg *config.Config
	// StoreDir, when non-empty, backs the target with a durable on-disk
	// store (create-or-recover via core.NewDurable). Flat Path ORAM
	// schemes only; the target then also implements io.Closer.
	StoreDir string
	// CryptoWorkers sizes the controller's seal fan-out pool (core
	// schemes only; 0 or 1 = inline serial sealing).
	CryptoWorkers int
	// GroupCommitOps batches the durable persist barrier across this
	// many accesses (core schemes with StoreDir only; <= 1 keeps the
	// per-access serial barrier). Acks must then wait on OnCommit.
	GroupCommitOps int
	// GroupCommitDelay is the matching idle-flush bound, carried to the
	// controller for callers that schedule MaxDelay flushes.
	GroupCommitDelay time.Duration
}

func (p Params) config() config.Config {
	if p.Cfg != nil {
		return *p.Cfg
	}
	return config.Default()
}

// NewTarget builds a fresh functional system for the scheme. Every
// scheme in config.Schemes() is constructible: the core controller
// covers the Path ORAM family, ringoram covers the Ring family, and
// NonORAM gets a plain store (trivially correct, so the harness's
// "every scheme" sweeps hold literally).
func NewTarget(p Params) (Target, error) {
	if p.NumBlocks == 0 {
		return nil, fmt.Errorf("oracle: Params.NumBlocks is required")
	}
	cfg := p.config()
	cfg.Seed = p.Seed
	if p.StoreDir != "" && (p.Scheme == config.SchemeNonORAM || p.Scheme.Ring()) {
		return nil, fmt.Errorf("oracle: StoreDir is not supported for scheme %s", p.Scheme)
	}
	switch {
	case p.Scheme == config.SchemeNonORAM:
		return &plainTarget{
			scheme: p.Scheme,
			n:      p.NumBlocks,
			bb:     cfg.BlockBytes,
			m:      make(map[oram.Addr][]byte),
		}, nil
	case p.Scheme.Ring():
		stash := cfg.StashEntries
		if path := cfg.Z * (p.Levels + 1); stash <= path {
			stash = path * 3
		}
		// Ring's EvictPath commits a whole-path rewrite — (L+1)*(Z+S)
		// slots — as one atomic batch; grow the WPQs so tall functional
		// trees stay constructible under the default sizing.
		if need := (p.Levels + 1) * (cfg.Z + cfg.RingS + 1); cfg.DataWPQEntries < need {
			cfg.DataWPQEntries = need
		}
		ctl, err := ringoram.New(ringoram.Params{
			Levels:         p.Levels,
			Z:              cfg.Z,
			S:              cfg.RingS,
			A:              cfg.RingA,
			BlockBytes:     cfg.BlockBytes,
			StashEntries:   stash,
			NumBlocks:      p.NumBlocks,
			Seed:           p.Seed,
			Persist:        p.Scheme == config.SchemeRingPSORAM,
			JournalEntries: cfg.TempPosMapSize,
		}, cfg)
		if err != nil {
			return nil, err
		}
		return &ringTarget{scheme: p.Scheme, ctl: ctl}, nil
	default:
		// A recursive eviction batch spans the data path plus a posmap-ORAM
		// path; grow the data WPQ so tall functional trees fit the batch.
		if p.Scheme.Recursive() {
			if need := 2 * (p.Levels + 1) * cfg.Z; cfg.DataWPQEntries < need {
				cfg.DataWPQEntries = need
			}
		}
		copts := core.Options{
			NumBlocks:     p.NumBlocks,
			Levels:        p.Levels,
			CryptoWorkers: p.CryptoWorkers,
			GroupCommit:   core.GroupCommit{MaxOps: p.GroupCommitOps, MaxDelay: p.GroupCommitDelay},
		}
		if p.StoreDir != "" {
			ctl, _, err := core.NewDurable(p.Scheme, cfg, copts, p.StoreDir)
			if err != nil {
				return nil, err
			}
			return &coreTarget{ctl: ctl}, nil
		}
		ctl, err := core.New(p.Scheme, cfg, copts)
		if err != nil {
			return nil, err
		}
		return &coreTarget{ctl: ctl}, nil
	}
}

// --- core (Path ORAM family) adapter ---

type coreTarget struct {
	ctl *core.Controller
}

func (t *coreTarget) Scheme() config.Scheme { return t.ctl.Scheme }
func (t *coreTarget) NumBlocks() uint64     { return t.ctl.ORAM.NumBlocks() }
func (t *coreTarget) BlockBytes() int       { return t.ctl.Cfg.BlockBytes }
func (t *coreTarget) Leaves() uint64        { return t.ctl.ORAM.Tree.Leaves() }

func (t *coreTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	res, err := t.ctl.Access(op, addr, data)
	if errors.Is(err, core.ErrCrashed) {
		return nil, 0, ErrCrashed
	}
	if err != nil {
		return nil, 0, err
	}
	return res.Value, res.PathLeaf, nil
}

func (t *coreTarget) Peek(addr oram.Addr) ([]byte, error) { return t.ctl.Peek(addr) }

// currentLeaf reconstructs the controller's working view: the temporary
// PosMap overlays the on-chip map (the same rule core.currentLeaf
// applies internally).
func (t *coreTarget) currentLeaf(a oram.Addr) oram.Leaf {
	if l, ok := t.ctl.Temp.Lookup(a); ok {
		return l
	}
	return t.ctl.ORAM.PosMap.Lookup(a)
}

func (t *coreTarget) Arm(fire func(CrashSpec) bool) {
	if fire == nil {
		t.ctl.CrashAt = nil
		return
	}
	t.ctl.CrashAt = func(p core.CrashPoint) bool {
		return fire(CrashSpec{Access: p.Access, Step: p.Step, Sub: p.Sub})
	}
}

func (t *coreTarget) Recover() error { return t.ctl.Recover() }

// Close persists and releases the durable backend, if any (io.Closer —
// the serving layer closes file-backed shards through this).
func (t *coreTarget) Close() error { return t.ctl.Close() }

// Cycles reports the controller's simulated clock, letting callers (the
// serving layer's latency histograms) price accesses in simulated cycles.
func (t *coreTarget) Cycles() uint64 { return uint64(t.ctl.Now()) }

// SaveDurable serializes the controller's durable NVM image — exactly
// the state the §4 persistency protocol guarantees survives a power
// loss. The serving layer's resharding path snapshots frozen
// WPQ-persistent shards through it.
func (t *coreTarget) SaveDurable(w io.Writer) error { return t.ctl.SaveDurable(w) }

// SnapshotConfig returns the controller's effective configuration: the
// cfg a core.LoadDurable of this target's snapshot requires.
func (t *coreTarget) SnapshotConfig() config.Config { return t.ctl.Cfg }

// Prefetch decodes addr's path headers ahead of its Access — the serving
// layer's pipelining hook. Protocol-free: no state or traffic changes.
func (t *coreTarget) Prefetch(addr oram.Addr) { t.ctl.Prefetch(addr) }

// StageNanos exposes the controller's cumulative per-stage wall time
// (load / crypto / evict / seal / persist) for the serving layer's
// histograms.
func (t *coreTarget) StageNanos() [5]int64 { return t.ctl.StageNanos() }

// OnCommit registers fn to fire once the most recently completed
// access is durable (inline when it already is) — the serving layer
// holds acks on it under group commit.
func (t *coreTarget) OnCommit(fn func(error)) { t.ctl.OnCommit(fn) }

// FlushCommits closes and flushes the open commit group (the serving
// layer's MaxDelay idle flush and drain-on-close hook).
func (t *coreTarget) FlushCommits() error { return t.ctl.FlushCommits() }

// CommitPending reports whether acked-but-not-yet-durable accesses are
// waiting on an open commit group.
func (t *coreTarget) CommitPending() bool { return t.ctl.CommitPending() }

// SetCommitObserver forwards per-group flush observations (ops covered,
// barrier wall time) to the serving layer's histograms.
func (t *coreTarget) SetCommitObserver(fn func(ops int, persistNanos int64)) {
	t.ctl.SetCommitObserver(fn)
}

// --- ringoram adapter ---

type ringTarget struct {
	scheme config.Scheme
	ctl    *ringoram.Controller
}

func (t *ringTarget) Scheme() config.Scheme { return t.scheme }
func (t *ringTarget) NumBlocks() uint64     { return t.ctl.NumBlocks() }
func (t *ringTarget) BlockBytes() int       { return t.ctl.P.BlockBytes }
func (t *ringTarget) Leaves() uint64        { return t.ctl.Tree.Leaves() }

func (t *ringTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	// The read path's leaf is the working-map leaf before the access
	// (Ring forces room-making evictions before the lookup, and those
	// never move the target), so capture it up front.
	l := t.ctl.CurrentLeaf(addr)
	v, err := t.ctl.Access(op, addr, data)
	if errors.Is(err, ringoram.ErrCrashed) {
		return nil, 0, ErrCrashed
	}
	if err != nil {
		return nil, 0, err
	}
	return v, l, nil
}

func (t *ringTarget) Peek(addr oram.Addr) ([]byte, error) { return t.ctl.Peek(addr) }

func (t *ringTarget) Arm(fire func(CrashSpec) bool) {
	if fire == nil {
		t.ctl.CrashAt = nil
		return
	}
	t.ctl.CrashAt = func(p ringoram.CrashPoint) bool {
		return fire(CrashSpec{Access: p.Access, Step: crash.RingStepForPhase(p.Phase), Sub: -1})
	}
}

func (t *ringTarget) Recover() error { return t.ctl.Recover() }

// Cycles: the functional Ring controller has no timing model; report 0
// so cycle-based latency stats degrade gracefully.
func (t *ringTarget) Cycles() uint64 { return 0 }

// --- NonORAM adapter: a plain store, no tree, no crash model ---

type plainTarget struct {
	scheme config.Scheme
	n      uint64
	bb     int
	m      map[oram.Addr][]byte
}

func (t *plainTarget) Scheme() config.Scheme { return t.scheme }
func (t *plainTarget) NumBlocks() uint64     { return t.n }
func (t *plainTarget) BlockBytes() int       { return t.bb }
func (t *plainTarget) Leaves() uint64        { return 0 }

func (t *plainTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	if uint64(addr) >= t.n {
		return nil, 0, fmt.Errorf("oracle: access to addr %d outside [0,%d)", addr, t.n)
	}
	prev, err := t.Peek(addr)
	if err != nil {
		return nil, 0, err
	}
	if op == oram.OpWrite {
		if len(data) != t.bb {
			return nil, 0, fmt.Errorf("oracle: write of %d bytes, block size %d", len(data), t.bb)
		}
		t.m[addr] = append([]byte(nil), data...)
	}
	return prev, 0, nil
}

func (t *plainTarget) Peek(addr oram.Addr) ([]byte, error) {
	if v, ok := t.m[addr]; ok {
		return append([]byte(nil), v...), nil
	}
	return make([]byte, t.bb), nil
}

func (t *plainTarget) Invariants() []error { return nil }

// Recover is a no-op: the plain store has no crash model, but providing
// it lets NonORAM satisfy the serving layer's recoverable-backend shape.
func (t *plainTarget) Recover() error { return nil }

// Cycles: no timing model.
func (t *plainTarget) Cycles() uint64 { return 0 }
