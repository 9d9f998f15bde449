package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netserve"
	"repro/internal/serve"
)

// kv is the request surface the load loops drive: *netserve.Client in
// the benchmark, *serve.Pool for the in-process ladder rung, and a fake
// in the checker's own test.
type kv interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
}

// runner issues requests and keeps what the checker and the metrics
// need: the op log, retry and failure counts, and (when tracing) spans.
type runner struct {
	epoch    time.Time
	log      oplog
	attempts atomic.Int64 // requests sent, retries included
	retries  atomic.Int64 // refusals (RETRY_AFTER, interrupted) re-sent
	issued   atomic.Int64 // ops started
	failed   atomic.Int64 // ops that errored or were dropped
	tr       *tracer      // nil: tracing off
}

func newRunner() *runner { return &runner{epoch: time.Now()} }

func (rn *runner) now() int64 { return int64(time.Since(rn.epoch)) }

// retryable reports whether err is a refusal the server asks the client
// to re-send, and the back-off it asked for.
func retryable(err error) (time.Duration, bool) {
	var se *netserve.StatusError
	hint := time.Millisecond
	if errors.As(err, &se) && se.RetryAfter > 0 {
		hint = se.RetryAfter
	}
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrResharding):
		return hint, true
	case errors.Is(err, serve.ErrInterrupted):
		// §4.3: the interrupted access fully persisted or never
		// happened, and the shard has already recovered.
		return 0, true
	}
	return 0, false
}

// do issues o on c until it succeeds or fails for good, appends its
// record to batch and reports success. Reads are decoded here, so a
// corrupt value is caught at once; staleness is judged offline by check.
func (rn *runner) do(ctx context.Context, c kv, o op, batch *[]rec, parent int32) bool {
	rn.issued.Add(1)
	send := rn.now()
	for {
		rn.attempts.Add(1)
		var v []byte
		var err error
		if o.write {
			err = c.Write(ctx, o.key, encode(o.key, o.seq))
		} else {
			v, err = c.Read(ctx, o.key)
		}
		if err == nil {
			r := rec{key: o.key, seq: o.seq, send: send, ack: rn.now(), write: o.write}
			if rn.tr != nil {
				rn.tr.add(spanName(o.write), parent, r.send, r.ack)
			}
			if !o.write {
				seq, derr := decode(o.key, v)
				if derr != nil {
					rn.log.corrupted(derr)
					rn.failed.Add(1)
					return false
				}
				r.seq = seq
			}
			*batch = append(*batch, r)
			return true
		}
		if d, ok := retryable(err); ok && ctx.Err() == nil {
			rn.retries.Add(1)
			if d > 0 {
				time.Sleep(d)
			}
			continue
		}
		rn.failed.Add(1)
		if o.write {
			// Never acked: it may or may not have been applied, so it
			// stays a legal value for later reads but never makes an
			// older value stale.
			*batch = append(*batch, rec{key: o.key, seq: o.seq, send: send, ack: math.MaxInt64, write: true})
		}
		return false
	}
}

func spanName(write bool) string {
	if write {
		return "client.write"
	}
	return "client.read"
}

// closed runs a closed loop: each connection keeps window requests in
// flight, each worker sending its next request when the previous one
// completes. Requests completing in the first warm of the loop are not
// counted; the measured part is cut into slices and the loop returns
// each slice's completed requests per second.
func (rn *runner) closed(ctx context.Context, cs []kv, gens []*gen, window int, warm, measure time.Duration, slices int, parent int32) []float64 {
	from := rn.now() + int64(warm)
	to := from + int64(measure)
	width := int64(measure) / int64(slices)
	counts := make([]atomic.Int64, slices)
	var wg sync.WaitGroup
	for i, c := range cs {
		for w := 0; w < window; w++ {
			wg.Add(1)
			go func(c kv, g *gen) {
				defer wg.Done()
				var batch []rec
				for rn.now() < to {
					if rn.do(ctx, c, g.next(), &batch, parent) {
						if a := batch[len(batch)-1].ack; a >= from && a < to {
							counts[min((a-from)/width, int64(slices-1))].Add(1)
						}
					}
				}
				rn.log.add(batch)
			}(c, gens[i])
		}
	}
	wg.Wait()
	rates := make([]float64, slices)
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / (float64(width) / 1e9)
	}
	return rates
}

// maxOutstanding bounds the open loop's requests in flight; an arrival
// that finds it full is dropped and counted as failed.
const maxOutstanding = 4096

// openResult is what one open-loop run measured: for every request that
// completed, the time from when it was due to its reply, and when (as an
// offset into the run) it was due.
type openResult struct {
	lat  []time.Duration
	due  []float64
	late []time.Duration // how late the generator dispatched each arrival
}

// quantile returns the median over slices of the q-quantile of latency
// within each slice of due times. One slice's hiccup then moves the
// figure less than it would move one quantile over the whole run.
func (r openResult) quantile(q float64, slices int) float64 {
	if len(r.due) == 0 {
		return 0
	}
	span := r.due[len(r.due)-1] + 1e-9
	per := make([][]time.Duration, slices)
	for i, d := range r.lat {
		k := min(int(r.due[i]/span*float64(slices)), slices-1)
		per[k] = append(per[k], d)
	}
	qs := make([]float64, 0, slices)
	for _, ds := range per {
		if len(ds) > 0 {
			qs = append(qs, ms(quantile(ds, q)))
		}
	}
	return median(qs)
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// open runs an open loop: arrivals at the seed's Poisson offsets for the
// given rate, dispatched round-robin over the connections whether or
// not earlier requests have completed, each timed from when it was due.
func (rn *runner) open(ctx context.Context, cs []kv, g *gen, offsets []float64, parent int32) openResult {
	sem := make(chan struct{}, maxOutstanding)
	lat := make([]time.Duration, len(offsets))
	late := make([]time.Duration, len(offsets))
	var wg sync.WaitGroup
	// Pace from one OS thread with the smallest timer slack: the default
	// 50 µs slack made every nanosleep in waitUntil wake ~60 µs late, and
	// that lateness is charged to every request. 0 restores the default.
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
		runtime.UnlockOSThread()
	}()
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		waitUntil(due)
		late[i] = time.Since(due)
		o := g.next()
		lat[i] = -1
		select {
		case sem <- struct{}{}:
		default:
			rn.issued.Add(1)
			rn.failed.Add(1)
			continue
		}
		wg.Add(1)
		go func(i int, c kv) {
			defer func() { <-sem; wg.Done() }()
			var batch []rec
			if rn.do(ctx, c, o, &batch, parent) {
				lat[i] = time.Since(due)
			}
			rn.log.add(batch)
		}(i, cs[i%len(cs)])
	}
	wg.Wait()
	res := openResult{late: late}
	for i, d := range lat {
		if d >= 0 {
			res.lat = append(res.lat, d)
			res.due = append(res.due, offsets[i])
		}
	}
	return res
}

// waitUntil returns at due. time.Sleep overshoots sub-millisecond waits
// by up to a millisecond on Linux (the runtime's timer wake-up), which an
// open loop timed from due times would charge to the server; a
// nanosleep on the generator's own thread overshoots by tens of
// microseconds.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}

// sweep reads every key in keys through the connections, window
// requests in flight per connection, logging each read for the check.
func (rn *runner) sweep(ctx context.Context, cs []kv, keys []uint64, window int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		for w := 0; w < window; w++ {
			wg.Add(1)
			go func(c kv) {
				defer wg.Done()
				var batch []rec
				for {
					i := next.Add(1) - 1
					if i >= int64(len(keys)) {
						break
					}
					rn.do(ctx, c, op{key: keys[i]}, &batch, -1)
				}
				rn.log.add(batch)
			}(c)
		}
	}
	wg.Wait()
}
