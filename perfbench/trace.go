package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: a client
// request, a ladder rung's operation, or a phase enclosing them. parent
// indexes the enclosing span (-1: none). Spans are recorded only by the
// benchmark around its own calls; nothing inside the program is
// instrumented.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, parent, start, end})
	return int32(len(t.spans) - 1)
}

// end closes span id at the given time.
func (t *tracer) end(id int32, at int64) {
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of ds (nearest rank), sorting ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
