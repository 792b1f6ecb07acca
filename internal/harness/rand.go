package harness

import (
	"math/rand"
	"sync"
)

// Per-candidate generators. Adversary campaigns draw each candidate
// schedule from its own stream, rand.New(rand.NewSource(DeriveSeed(…))),
// and every fuzz golden is fixed by those streams. math/rand allocates a
// 4.9 KB source per NewSource and seeds it with 1,841 serial steps of
// Schrage's method, two integer divisions each. lfSource is the same
// additive lagged-Fibonacci generator (Mitchell and Reeds); its seeding
// reduces modulo the Mersenne prime 2³¹−1 without division and jumps
// ahead to shorten the serial chain. AcquireRand hands out pooled
// generators that are reseeded in place rather than reallocated. The
// streams are bit-identical to math/rand's; TestRandMatchesMathRand pins
// them.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// lfSource is a rand.Source64 whose stream equals rand.NewSource's for
// every seed.
type lfSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Seeding steps x ← x·48271 mod (2³¹−1), 1,841 times. Each step depends
// on the last, so Seed jumps ahead instead: one entry needs the next three
// values x·a, x·a², x·a³, which are independent products of the same x,
// and only x·a³ feeds the next entry. The 20 warm-up steps are one product
// by a²⁰. Go's constant arithmetic is exact, so the powers are reduced
// here at compile time.
const (
	seedA   = 48271
	seedA2  = seedA * seedA % int32max
	seedA3  = seedA2 * seedA % int32max
	seedA4  = seedA2 * seedA2 % int32max
	seedA16 = seedA4 * seedA4 % int32max * seedA4 % int32max * seedA4 % int32max
	seedA20 = seedA16 * seedA4 % int32max
)

// mulmod returns x·a mod (2³¹−1) for x, a in [1, 2³¹−2], without
// division. Since 2³¹ ≡ 1, the product t folds to (t mod 2³¹) + ⌊t/2³¹⌋,
// which is at most 2·(2³¹−1); t is not a multiple of the prime 2³¹−1, so
// one conditional subtraction finishes the reduction.
func mulmod(x, a uint64) uint64 {
	t := x * a
	r := t&int32max + t>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed initializes the generator exactly as math/rand's source does.
func (s *lfSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := mulmod(uint64(seed), seedA20)
	for i := range s.vec {
		x1, x2, x3 := mulmod(x, seedA), mulmod(x, seedA2), mulmod(x, seedA3)
		s.vec[i] = int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
		x = x3
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lfSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

var randPool = sync.Pool{New: func() any { return rand.New(new(lfSource)) }}

// AcquireRand returns a generator whose stream is identical to
// rand.New(rand.NewSource(seed)), taken from a pool and reseeded with
// Rand.Seed. Hand it back with ReleaseRand once no draw is left to make;
// it must not be used after that.
func AcquireRand(seed int64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// ReleaseRand returns a generator obtained from AcquireRand to the pool.
func ReleaseRand(r *rand.Rand) { randPool.Put(r) }
