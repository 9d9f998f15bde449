package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// rec is one completed (or failed) request as the client saw it. Times
// are nanoseconds since the run's epoch: send is when the request was
// issued, ack when its reply arrived.
type rec struct {
	key   uint64
	seq   uint64 // write: the seq written; read: the seq observed
	send  int64
	ack   int64 // math.MaxInt64: a write that was never acked
	write bool
}

// oplog collects every request of a run for the offline consistency
// check. Workers append private batches, so the lock is taken once per
// worker, not once per request.
type oplog struct {
	mu      sync.Mutex
	recs    []rec
	corrupt []string // decode failures, caught at read time
}

func (l *oplog) add(rs []rec) {
	l.mu.Lock()
	l.recs = append(l.recs, rs...)
	l.mu.Unlock()
}

func (l *oplog) corrupted(err error) {
	l.mu.Lock()
	if len(l.corrupt) < 8 {
		l.corrupt = append(l.corrupt, err.Error())
	}
	l.mu.Unlock()
}

// check applies the benchmark's correctness rule to every read in the
// log: a read must return a value some write stored (or the initial
// zero block), never a value from a write that had not been sent when
// the read was answered, and never a value that was overwritten before
// the read was sent — that is, older than the last write acked before
// the read went out. Concurrent writes to one key may be applied in
// either order, so "overwritten" means: some later write w' was sent
// after the observed write was acked, and w' was itself acked before the
// read was sent. The durable workload's post-reopen sweep is checked by
// the same rule, which makes it the acked-prefix guarantee: every acked
// write survives a close and reopen. It returns the first violations.
func (l *oplog) check() []string {
	out := append([]string(nil), l.corrupt...)
	type wr struct{ send, ack int64 }
	byKey := map[uint64][]wr{}
	bySeq := map[uint64]rec{}
	for _, r := range l.recs {
		if r.write {
			byKey[r.key] = append(byKey[r.key], wr{r.send, r.ack})
			bySeq[r.seq] = r
		}
	}
	// Per key: writes by ack time, with the running maximum send time,
	// so "latest send among writes acked before t" is a binary search.
	maxSend := map[uint64][]int64{}
	for k, ws := range byKey {
		sort.Slice(ws, func(i, j int) bool { return ws[i].ack < ws[j].ack })
		m := make([]int64, len(ws))
		best := int64(math.MinInt64)
		for i, w := range ws {
			best = max(best, w.send)
			m[i] = best
		}
		maxSend[k] = m
	}
	for _, r := range l.recs {
		if r.write || len(out) >= 8 {
			continue
		}
		ws := byKey[r.key]
		i := sort.Search(len(ws), func(i int) bool { return ws[i].ack >= r.send })
		latestSend := int64(math.MinInt64) // initial block: acked at -inf
		if i > 0 {
			latestSend = maxSend[r.key][i-1]
		}
		if r.seq == 0 {
			if i > 0 {
				out = append(out, fmt.Sprintf("key %d: read the initial zero block after %d acked write(s)", r.key, i))
			}
			continue
		}
		w, ok := bySeq[r.seq]
		switch {
		case !ok || w.key != r.key:
			out = append(out, fmt.Sprintf("key %d: read seq %#x that no request wrote to it", r.key, r.seq))
		case w.send > r.ack:
			out = append(out, fmt.Sprintf("key %d: read seq %#x before it was written", r.key, r.seq))
		case w.ack < latestSend:
			out = append(out, fmt.Sprintf("key %d: stale read of seq %#x, overwritten by a write acked before the read was sent", r.key, r.seq))
		}
	}
	return out
}

// written returns every key some request wrote.
func (l *oplog) written() map[uint64]bool {
	m := map[uint64]bool{}
	for _, r := range l.recs {
		if r.write {
			m[r.key] = true
		}
	}
	return m
}
