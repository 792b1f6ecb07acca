package harness

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randDraws covers more than two full 607-entry lag cycles, so every
// feedback register entry is read after having been rewritten twice.
const randDraws = 1300

// TestRandMatchesMathRand pins lfSource to math/rand.NewSource: the
// per-candidate streams of every fuzz campaign, and so every fuzz golden,
// depend on the two being bit-identical.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max * int32max, -int32max * 1000003, int32max - 1, int32max + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311,
	}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, DeriveSeed(int64(i%7), fmt.Sprintf("adversary/random/%d", i)))
	}
	var ours lfSource
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		ours.Seed(seed)
		for d := 0; d < randDraws; d++ {
			if d%2 == 0 {
				if want, got := ref.Int63(), ours.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, d, got, want)
				}
			} else if want, got := ref.Uint64(), ours.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, d, got, want)
			}
		}
	}
}

// TestMulmodMatchesSchrage checks the division-free multiply against
// math/rand's Schrage step over the ends of its domain and a stride
// through the middle, both for one step and for the a²⁰ and a³ jumps.
func TestMulmodMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	steps := func(x int32, k int) int32 {
		for ; k > 0; k-- {
			x = schrage(x)
		}
		return x
	}
	check := func(x int32) {
		for _, j := range []struct {
			a uint64
			k int
		}{{seedA, 1}, {seedA2, 2}, {seedA3, 3}, {seedA20, 20}} {
			if got, want := mulmod(uint64(x), j.a), steps(x, j.k); got != uint64(want) {
				t.Fatalf("%d steps from %d: mulmod %d, Schrage %d", j.k, x, got, want)
			}
		}
	}
	for x := int32(1); x < 1<<12; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int64(1); x < int32max; x += 104729 {
		check(int32(x))
	}
}

// TestReseededRandMatchesFresh draws from a generator in every way that
// leaves state behind — partial lag cycles, Read's buffered bytes, Perm —
// reseeds it, and requires the same stream as a fresh math/rand one. It
// checks both Rand.Seed on an lfSource-backed Rand, the reseed the pool
// relies on, and a generator handed back out by AcquireRand.
func TestReseededRandMatchesFresh(t *testing.T) {
	dirty := func(r *rand.Rand, i int) {
		for d := 0; d < 300*(i+1); d++ {
			r.Int63()
		}
		r.Read(make([]byte, 5+i)) // leaves bytes buffered in the Rand
		r.Perm(9)
	}
	same := func(t *testing.T, seed int64, got *rand.Rand) {
		t.Helper()
		want := rand.New(rand.NewSource(seed))
		gb, wb := make([]byte, 13), make([]byte, 13)
		got.Read(gb)
		want.Read(wb)
		if string(gb) != string(wb) {
			t.Fatalf("seed %d: Read after reseed %x, want %x", seed, gb, wb)
		}
		for d := 0; d < randDraws; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, d, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, d, g, w)
			}
		}
	}
	reused := rand.New(new(lfSource))
	for i, seed := range []int64{42, -7, 0, math.MaxInt64} {
		dirty(reused, i)
		reused.Seed(seed)
		same(t, seed, reused)

		pooled := AcquireRand(seed + 1)
		dirty(pooled, i)
		ReleaseRand(pooled)
		pooled = AcquireRand(seed)
		same(t, seed, pooled)
		ReleaseRand(pooled)
	}
}

func BenchmarkSeedMathRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i))).Int63()
	}
}

func BenchmarkSeedAcquireRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := AcquireRand(int64(i))
		r.Int63()
		ReleaseRand(r)
	}
}
