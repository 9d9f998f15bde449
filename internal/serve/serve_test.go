package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crash"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// poolTarget adapts a whole Pool to the oracle's Target shape, so the
// PR 2 differential oracle drives the serving layer exactly like it
// drives a bare controller. Leaves is 0: the pool stripes the keyspace
// over independent trees, so there is no single leaf sequence to probe
// (each shard's own obliviousness is covered by the oracle's per-scheme
// suite).
type poolTarget struct{ p *Pool }

func (t poolTarget) Scheme() config.Scheme { return t.p.Scheme() }
func (t poolTarget) NumBlocks() uint64     { return t.p.NumBlocks() }
func (t poolTarget) BlockBytes() int       { return t.p.BlockBytes() }
func (t poolTarget) Leaves() uint64        { return 0 }
func (t poolTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	return t.p.Access(context.Background(), op, uint64(addr), data)
}
func (t poolTarget) Peek(addr oram.Addr) ([]byte, error) {
	return t.p.Peek(context.Background(), uint64(addr))
}
func (t poolTarget) Invariants() []error { return t.p.Invariants(context.Background()) }

func mustPool(t testing.TB, opts Options) *Pool {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Bounded: a test that fails while a fake backend still holds a
		// worker must not hang the whole binary in the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Close(ctx)
	})
	return p
}

// TestPoolOracle runs the differential oracle against a 4-shard pool for
// each scheme family: every access value diffs against the plain-map
// reference, and deep checks sweep every shard's invariants and full
// keyspace through the serving path.
func TestPoolOracle(t *testing.T) {
	schemes := []config.Scheme{config.SchemePSORAM, config.SchemeBaseline, config.SchemeRingPSORAM}
	const blocks, nOps = 256, 96
	bb := config.Default().BlockBytes
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			p := mustPool(t, Options{Shards: 4, NumBlocks: blocks, Scheme: scheme, Levels: 6, Seed: 1})
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, blocks, bb, nOps, 1)
			rep, err := oracle.Check(poolTarget{p}, ops, oracle.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			if rep.DeepChecks == 0 {
				t.Error("no deep checks ran")
			}
		})
	}
}

// TestPoolConcurrentOracle is the tentpole acceptance check: 4 shards ×
// 4 concurrent clients under -race. Each client owns a contiguous
// address range (so its ops land on every shard) and diffs every value
// the pool returns against its private reference map; afterwards a
// Peek sweep and the structural invariants must agree with the merged
// references.
func TestPoolConcurrentOracle(t *testing.T) {
	const (
		shards  = 4
		clients = 4
		perCli  = 64
		nOps    = 200
	)
	blocks := uint64(clients * perCli)
	p := mustPool(t, Options{Shards: shards, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 7, Seed: 3})
	bb := p.BlockBytes()

	refs := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make(map[uint64][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(c * perCli)
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, perCli, bb, nOps, uint64(100+c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i, op := range ops {
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				got, _, err := p.Access(ctx, kind, addr, data)
				if err != nil {
					errc <- fmt.Errorf("client %d op %d: %v", c, i, err)
					return
				}
				want, ok := ref[addr]
				if !ok {
					want = zero
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("client %d op %d addr %d: got %.16q want %.16q", c, i, addr, got, want)
					return
				}
				if op.Write {
					ref[addr] = op.Data
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	for _, err := range p.Invariants(context.Background()) {
		t.Errorf("invariant: %v", err)
	}
	zero := make([]byte, bb)
	for c := 0; c < clients; c++ {
		for a := uint64(c * perCli); a < uint64((c+1)*perCli); a++ {
			got, err := p.Peek(context.Background(), a)
			if err != nil {
				t.Fatalf("peek %d: %v", a, err)
			}
			want, ok := refs[c][a]
			if !ok {
				want = zero
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final sweep addr %d: got %.16q want %.16q", a, got, want)
			}
		}
	}

	st := p.Stats()
	if sub, _, done, _ := st.Totals(); sub == 0 || done < sub-uint64(clients) {
		t.Errorf("stats look wrong: submitted=%d completed=%d", sub, done)
	}
}

// TestCrashTorture kills shards mid-batch: every shard is armed with a
// periodic crash injector while concurrent clients hammer writes. An
// interrupted op returns ErrInterrupted after the shard recovers (§4.3);
// per the crash contract the value is then either the old or the new
// one, the client retries to convergence, and the final state must
// match the references exactly with all invariants intact.
func TestCrashTorture(t *testing.T) {
	const (
		shards  = 4
		clients = 4
		perCli  = 32
		nOps    = 150
	)
	blocks := uint64(clients * perCli)
	p := mustPool(t, Options{Shards: shards, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 6, Seed: 5})
	bb := p.BlockBytes()

	// Fire on every 41st offered crash point, pool-wide: frequent enough
	// to interrupt many batches, sparse enough to make progress.
	var points atomic.Uint64
	for s := 0; s < shards; s++ {
		if err := p.ArmCrash(context.Background(), s, func(oracle.CrashSpec) bool {
			return points.Add(1)%41 == 0
		}); err != nil {
			t.Fatal(err)
		}
	}

	refs := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	var interrupted atomic.Uint64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make(map[uint64][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(c * perCli)
			ops := oracle.GenOps(oracle.Workload{Name: "write-heavy"}, perCli, bb, nOps, uint64(500+c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i, op := range ops {
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				for attempt := 0; ; attempt++ {
					got, _, err := p.Access(ctx, kind, addr, data)
					if errors.Is(err, ErrInterrupted) {
						interrupted.Add(1)
						if op.Write {
							// Crash contract: the interrupted write either
							// fully persisted or never happened.
							v, perr := p.Peek(ctx, addr)
							if perr != nil {
								errc <- fmt.Errorf("client %d op %d: peek after crash: %v", c, i, perr)
								return
							}
							old, ok := ref[addr]
							if !ok {
								old = zero
							}
							if !bytes.Equal(v, old) && !bytes.Equal(v, op.Data) {
								errc <- fmt.Errorf("client %d op %d addr %d: post-crash value %.16q is neither old %.16q nor new %.16q",
									c, i, addr, v, old, op.Data)
								return
							}
						}
						if attempt > 100 {
							errc <- fmt.Errorf("client %d op %d: no progress after %d crash retries", c, i, attempt)
							return
						}
						continue // re-issue: idempotent for both reads and writes
					}
					if err != nil {
						errc <- fmt.Errorf("client %d op %d: %v", c, i, err)
						return
					}
					_ = got // pre-op value is indeterminate across crash retries
					break
				}
				if op.Write {
					ref[addr] = op.Data
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Disarm and verify the end state.
	for s := 0; s < shards; s++ {
		if err := p.ArmCrash(context.Background(), s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range p.Invariants(context.Background()) {
		t.Errorf("invariant after torture: %v", err)
	}
	zero := make([]byte, bb)
	for c := 0; c < clients; c++ {
		for a := uint64(c * perCli); a < uint64((c+1)*perCli); a++ {
			got, err := p.Peek(context.Background(), a)
			if err != nil {
				t.Fatalf("peek %d: %v", a, err)
			}
			want, ok := refs[c][a]
			if !ok {
				want = zero
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("post-torture addr %d: got %.16q want %.16q", a, got, want)
			}
		}
	}

	st := p.Stats()
	var crashes, recoveries uint64
	for _, s := range st.Shards {
		crashes += s.Crashes
		recoveries += s.Recoveries
	}
	if crashes == 0 {
		t.Fatal("torture ran but no crash ever fired")
	}
	if crashes != recoveries {
		t.Fatalf("crashes=%d recoveries=%d: a shard failed to recover", crashes, recoveries)
	}
	if got := interrupted.Load(); got != crashes {
		t.Errorf("clients saw %d interruptions, shards recorded %d crashes", got, crashes)
	}
	t.Logf("torture: %d crashes, all recovered", crashes)
}

// TestShardRoutingDeterminism pins the routing function: pure arithmetic
// on the address, identical across pool instances (i.e. restarts), and
// observable in the per-shard counters.
func TestShardRoutingDeterminism(t *testing.T) {
	const shards = 5
	for _, addr := range []uint64{0, 1, 4, 5, 63, 64, 1 << 40} {
		if a, b := ShardOf(addr, shards), ShardOf(addr, shards); a != b {
			t.Fatalf("ShardOf(%d) not deterministic: %d vs %d", addr, a, b)
		}
	}

	// Two pools from the same options are replicas: drive the same
	// addresses, observe the same shard receives each request.
	opts := Options{Shards: 4, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 9}
	route := func(p *Pool) [64]int {
		var owner [64]int
		before := p.Stats()
		for a := uint64(0); a < 64; a++ {
			if _, err := p.Read(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			after := p.Stats()
			owner[a] = -1
			for s := range after.Shards {
				if after.Shards[s].Submitted > before.Shards[s].Submitted {
					owner[a] = s
				}
			}
			before = after
		}
		return owner
	}
	p1 := mustPool(t, opts)
	o1 := route(p1)
	if err := p1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	p2 := mustPool(t, opts) // the "restart"
	o2 := route(p2)
	for a := range o1 {
		want := ShardOf(uint64(a), opts.Shards)
		if o1[a] != want || o2[a] != want {
			t.Fatalf("addr %d routed to %d then %d, want shard %d", a, o1[a], o2[a], want)
		}
	}
}

// blockingBackend is a test backend whose accesses park on a gate, so
// tests can hold a shard's worker busy and fill its queue at will.
type blockingBackend struct {
	n    uint64
	bb   int
	gate chan struct{}
}

func (b *blockingBackend) Scheme() config.Scheme { return config.SchemeNonORAM }
func (b *blockingBackend) NumBlocks() uint64     { return b.n }
func (b *blockingBackend) BlockBytes() int       { return b.bb }
func (b *blockingBackend) Leaves() uint64        { return 0 }
func (b *blockingBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	<-b.gate
	return make([]byte, b.bb), 0, nil
}
func (b *blockingBackend) Peek(addr oram.Addr) ([]byte, error) { return make([]byte, b.bb), nil }
func (b *blockingBackend) Invariants() []error                 { return nil }
func (b *blockingBackend) Recover() error                      { return nil }

// TestBackpressure: with the worker parked and the queue full, a submit
// fails fast with ErrOverloaded — it must never block.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	const depth = 2
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: depth, MaxBatch: 1,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})

	// One request parks the worker; `depth` more fill the queue.
	var wg sync.WaitGroup
	for i := 0; i < depth+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Read(context.Background(), 0)
		}()
	}
	// Wait until the queue is actually full (worker holds one, queue holds depth).
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].QueueDepth < depth {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.Read(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("want ErrOverloaded, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit against a full queue blocked instead of failing fast")
	}
	if p.Stats().Shards[0].Rejected == 0 {
		t.Error("rejected counter did not move")
	}

	close(gate) // release everything so Cleanup's Close can drain
	wg.Wait()
}

// TestContextDeadline covers both cancellation ends: a waiting client
// stops waiting when its context dies, and a request whose context is
// already dead when dequeued is answered without a protocol access.
func TestContextDeadline(t *testing.T) {
	gate := make(chan struct{})
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 8, MaxBatch: 4,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})

	// Park the worker on a background request.
	go p.Read(context.Background(), 0)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the parking request")
		}
		time.Sleep(time.Millisecond)
	}

	// Client-side: a cancelled waiter returns promptly with ctx.Err().
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Read(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled client kept waiting")
	}

	// Worker-side: that request's context is dead by the time the worker
	// dequeues it, so it must be expired, not executed.
	close(gate)
	deadline = time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead-on-dequeue request was not counted as expired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: Close answers every already-accepted request, then
// rejects new ones with ErrPoolClosed.
func TestGracefulDrain(t *testing.T) {
	p, err := New(Options{Shards: 2, NumBlocks: 32, Scheme: config.SchemePSORAM, Levels: 5, Seed: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := p.Read(context.Background(), uint64(i%32))
			errs <- err
		}(i)
	}
	wg.Wait() // every request answered before Close — now drain an idle pool
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pre-close request failed: %v", err)
		}
	}
	if _, err := p.Read(context.Background(), 0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close read: want ErrPoolClosed, got %v", err)
	}
	if err := p.Close(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("double close: want ErrPoolClosed, got %v", err)
	}
}

// TestDrainCompletesQueuedWork: requests still sitting in the queue when
// Close begins are executed, not dropped.
func TestDrainCompletesQueuedWork(t *testing.T) {
	gate := make(chan struct{})
	p, err := New(Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 8, MaxBatch: 2,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Read(context.Background(), 0)
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests entered the queue", p.Stats().Shards[0].Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close(context.Background()) }()
	close(gate) // un-park the worker; the drain must now finish
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("queued request dropped during drain: %v", err)
		}
	}
	if got := p.Stats().Shards[0].Completed; got != n {
		t.Fatalf("drain completed %d/%d requests", got, n)
	}
}

// TestBatchCoalescing: with the worker parked, queued requests come out
// in rounds of up to MaxBatch.
func TestBatchCoalescing(t *testing.T) {
	gate := make(chan struct{}, 64)
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 16, MaxBatch: 4,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})
	// Park the worker on request 0 with 8 more behind it. The worker may
	// coalesce some of them into its first (parked) round, so wait on
	// Submitted — all in the system — rather than on queue depth.
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Read(context.Background(), 0)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted < 9 {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the shard")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	st := p.Stats().Shards[0]
	if st.BatchMax < 2 {
		t.Errorf("no coalescing observed: max batch %d", st.BatchMax)
	}
	if st.BatchMax > 4 {
		t.Errorf("batch exceeded MaxBatch: %d > 4", st.BatchMax)
	}
}

// TestOptionsValidation covers the constructor's failure modes.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Shards: 4}); err == nil {
		t.Error("NumBlocks=0 accepted")
	}
	if _, err := New(Options{Shards: 8, NumBlocks: 4}); err == nil {
		t.Error("more shards than blocks accepted")
	}
	p := mustPool(t, Options{Shards: 2, NumBlocks: 16, Levels: 5, Seed: 1})
	if _, _, err := p.Access(context.Background(), oram.OpRead, 99, nil); err == nil {
		t.Error("out-of-range access accepted")
	}
	if err := p.ArmCrash(context.Background(), 7, nil); err == nil {
		t.Error("ArmCrash on missing shard accepted")
	}
}

// TestDerivedLevels builds pools with Levels unset: the default factory
// must derive each shard's tree height from its local block count for
// every scheme (Ring requires an explicit height at the controller).
func TestDerivedLevels(t *testing.T) {
	for _, sc := range []config.Scheme{config.SchemePSORAM, config.SchemeRingPSORAM} {
		p := mustPool(t, Options{Shards: 4, NumBlocks: 128, Scheme: sc, Seed: 1})
		data := make([]byte, p.BlockBytes())
		copy(data, "derived")
		if err := p.Write(context.Background(), 5, data); err != nil {
			t.Fatalf("%v: write: %v", sc, err)
		}
		got, err := p.Read(context.Background(), 5)
		if err != nil {
			t.Fatalf("%v: read: %v", sc, err)
		}
		if string(got[:7]) != "derived" {
			t.Fatalf("%v: read back %q", sc, got[:7])
		}
	}
}

// TestArmCrashDisarm: ArmCrash with a nil fire disarms the shard. A
// shard armed with a hook that never fires is driven until it has
// offered every declared crash point of its scheme; after disarming,
// the same workload passes every one of those points again without
// consulting any hook, for a core controller and for Ring ORAM.
func TestArmCrashDisarm(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeRingPSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			const blocks = 64
			p := mustPool(t, Options{Shards: 1, NumBlocks: blocks, Scheme: scheme, Levels: 6, Seed: 3})
			ctx := context.Background()
			ops := oracle.GenOps(oracle.Workload{Name: "write-heavy"}, blocks, p.BlockBytes(), 200, 9)
			run := func() {
				for i, op := range ops {
					kind, data := oram.OpRead, []byte(nil)
					if op.Write {
						kind, data = oram.OpWrite, op.Data
					}
					if _, _, err := p.Access(ctx, kind, op.Addr, data); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			var mu sync.Mutex
			seen := map[int]bool{}
			if err := p.ArmCrash(ctx, 0, func(cs oracle.CrashSpec) bool {
				mu.Lock()
				seen[cs.Step] = true
				mu.Unlock()
				return false
			}); err != nil {
				t.Fatal(err)
			}
			run()
			mu.Lock()
			for _, step := range crash.DeclaredStepsFor(scheme) {
				if !seen[step] {
					t.Fatalf("workload never offered crash step %d", step)
				}
			}
			seen = map[int]bool{}
			mu.Unlock()

			if err := p.ArmCrash(ctx, 0, nil); err != nil {
				t.Fatal(err)
			}
			run()
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 0 {
				t.Fatalf("disarmed shard still consulted its hook at steps %v", seen)
			}
		})
	}
}
