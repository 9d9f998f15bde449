package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// blockBytes is the payload size every workload writes (config.Default's
// 64 B block); values shorter or longer than this are checker failures.
const blockBytes = 64

// op is one generated request. seq is the write's unique, seed-derived
// identity (0 for reads); it is embedded in the written value so a read
// can name exactly which write it observed.
type op struct {
	key   uint64
	seq   uint64
	write bool
}

// Phase identifiers keep the streams of different phases of one run
// disjoint while deriving all of them from the one --seed.
const (
	phaseClosed = 1 + iota
	phaseOpen
	phaseLadder
	phaseProbe
)

// gen yields one connection's deterministic op stream. The same (seed,
// phase, conn, shape) always yields the same sequence, no matter how fast
// it is consumed.
type gen struct {
	mu    sync.Mutex
	r     *rand.Rand
	keys  func(*rand.Rand) uint64
	wfrac float64
	base  uint64 // seq prefix: phase and connection
	n     uint64
}

func newGen(seed uint64, phase, conn int, sp spec) *gen {
	r := rand.New(rand.NewPCG(seed, uint64(phase)<<32|uint64(conn)))
	g := &gen{r: r, wfrac: sp.writeFrac, base: uint64(phase)<<56 | uint64(conn)<<48}
	if sp.zipf {
		z := newZipf(sp.blocks, 0.99)
		g.keys = z.next
	} else {
		n := sp.blocks
		g.keys = func(r *rand.Rand) uint64 { return r.Uint64N(n) }
	}
	return g
}

func (g *gen) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	o := op{key: g.keys(g.r)}
	if g.r.Float64() < g.wfrac {
		o.write, o.seq = true, g.base|g.n
	}
	return o
}

// zipf draws ranks with P(rank i) ∝ 1/i^theta (the YCSB generator of
// Gray et al., which, unlike math/rand's Zipf, accepts theta < 1) and
// scatters them over the keyspace, so hot keys land on every shard.
type zipf struct {
	n                 uint64
	alpha, zetan, eta float64
	half              float64
}

func newZipf(n uint64, theta float64) *zipf {
	var zetan, zeta2 float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			zeta2 = zetan
		}
	}
	return &zipf{
		n: n, zetan: zetan,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func (z *zipf) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// Multiplying by an odd constant permutes [0, n) when n is a power
	// of two (spec.validate enforces that for zipf workloads).
	return (rank * 0x9E3779B97F4A7C15) & (z.n - 1)
}

// encode builds the value a write stores: key, seq, then filler derived
// from both, so a value returned for the wrong key or torn in transit
// fails decode.
func encode(key, seq uint64) []byte {
	b := make([]byte, blockBytes)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], seq)
	x := key*0x9E3779B97F4A7C15 ^ seq
	for i := 16; i < blockBytes; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

var errCorrupt = errors.New("value does not decode")

// decode returns the seq a read value carries: 0 for the all-zero
// initial block, or the seq of the write that stored it.
func decode(key uint64, v []byte) (uint64, error) {
	if len(v) != blockBytes {
		return 0, fmt.Errorf("%w: key %d: %d bytes, want %d", errCorrupt, key, len(v), blockBytes)
	}
	zero := true
	for _, c := range v {
		if c != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, nil
	}
	seq := binary.LittleEndian.Uint64(v[8:])
	if k := binary.LittleEndian.Uint64(v); k != key || string(v) != string(encode(key, seq)) {
		return 0, fmt.Errorf("%w: key %d read a value written for key %d (seq %#x)", errCorrupt, key, k, seq)
	}
	return seq, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// arrivals returns the offsets of a Poisson arrival process at rate per
// second over d seconds: exponential gaps drawn from the seed.
func arrivals(seed uint64, rate, d float64) []float64 {
	r := rand.New(rand.NewPCG(seed, 0xA11))
	var out []float64
	for t := r.ExpFloat64() / rate; t < d; t += r.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
