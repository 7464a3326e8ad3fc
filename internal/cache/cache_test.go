package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"racetrack/hifi/internal/sim"
)

func TestNewGeometry(t *testing.T) {
	c := New(4<<20, 16, 64)
	if c.Sets() != 4096 {
		t.Errorf("sets = %d, want 4096", c.Sets())
	}
	if c.Ways() != 16 || c.LineBytes() != 64 {
		t.Error("geometry wrong")
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 16, 64) },
		func() { New(4<<20, 0, 64) },
		func() { New(100, 16, 64) },      // not divisible
		func() { New(4*17*64, 17, 64) },  // more than 16 ways
		func() { New(192*4*64, 4, 64) },  // 192 sets
		func() { New(64*16*48, 16, 48) }, // 48-byte lines
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(1<<10, 2, 64) // 8 sets
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(0x1000, false)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	c.Access(0*64, false) // A
	c.Access(1*64, false) // B
	c.Access(0*64, false) // touch A: B is LRU
	r := c.Access(2*64, false)
	if !r.Evicted || r.EvictedAddr != 1*64 {
		t.Errorf("LRU eviction wrong: %+v", r)
	}
	if !c.Contains(0 * 64) {
		t.Error("recently used line evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Access(0*64, true) // dirty A
	c.Access(1*64, false)
	c.Access(1*64, false)
	r := c.Access(2*64, false) // evicts A (LRU)
	if !r.Writeback || r.EvictedAddr != 0 {
		t.Errorf("dirty eviction: %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Access(0, false)
	c.Access(0, true) // dirty via write hit
	c.Access(64, false)
	c.Access(64, false)
	r := c.Access(128, false)
	if !r.Writeback {
		t.Error("write-hit dirty bit lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1<<10, 2, 64)
	c.Access(0x40, true)
	res, dirty := c.Invalidate(0x40)
	if !res || !dirty {
		t.Errorf("invalidate = %v, %v", res, dirty)
	}
	if c.Contains(0x40) {
		t.Error("line still resident")
	}
	res, _ = c.Invalidate(0x40)
	if res {
		t.Error("double invalidate reported resident")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestQuickWorkingSetFits(t *testing.T) {
	// Property: a working set no larger than capacity, accessed twice,
	// hits on every second-round access (true LRU, no conflict aliasing
	// beyond capacity within a set... use a direct-capacity set check).
	f := func(seed uint64) bool {
		c := New(1<<12, 4, 64) // 16 sets x 4 ways = 64 lines
		r := sim.NewRNG(seed)
		// Pick 64 distinct line addresses mapped evenly: exactly 4 per set.
		addrs := make([]uint64, 0, 64)
		for set := 0; set < 16; set++ {
			for w := 0; w < 4; w++ {
				addrs = append(addrs, uint64(set)*64+uint64(w)*16*64)
			}
		}
		_ = r
		for _, a := range addrs {
			c.Access(a, false)
		}
		for _, a := range addrs {
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRTMGeometry(t *testing.T) {
	g := DefaultRTM()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.LinesPerGroup() != 64 {
		t.Errorf("lines per group = %d, want 64", g.LinesPerGroup())
	}
	if g.GroupBytes() != 4096 {
		t.Errorf("group bytes = %d, want 4096", g.GroupBytes())
	}
	bad := g
	bad.SegLen = 7
	if bad.Validate() == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestRTMArraySizing(t *testing.T) {
	a := NewRTMArray(DefaultRTM(), 128<<20)
	if a.Groups() != 32768 {
		t.Errorf("groups = %d, want 32768 (128MB/4KB)", a.Groups())
	}
}

func TestRTMAccessDistance(t *testing.T) {
	a := NewRTMArray(DefaultRTM(), 1<<20)
	const ways = 16
	// (set 0, way 0) is domain 0: offset 0, head already there.
	g, d, _ := a.AccessDistance(0, 0, ways)
	if d != 0 {
		t.Errorf("domain 0 distance = %d, want 0", d)
	}
	// (set 1, way 1): domain = 1*4 + 1 = 5 -> offset 5.
	_, d, dir := a.AccessDistance(1, 1, ways)
	if d != 5 || dir != +1 {
		t.Errorf("domain 5: dist %d dir %d", d, dir)
	}
	a.MoveHead(g, 5, +1, 1)
	if a.Head(g) != 5 {
		t.Errorf("head = %d, want 5", a.Head(g))
	}
	// Back toward offset 2 ((set 2, way 0): domain 2): distance 3 back.
	_, d, dir = a.AccessDistance(2, 0, ways)
	if d != 3 || dir != -1 {
		t.Errorf("return: dist %d dir %d", d, dir)
	}
}

func TestRTMGroupMapping(t *testing.T) {
	a := NewRTMArray(DefaultRTM(), 1<<20)
	const ways = 16
	// The 64 (set, way) slots of 4 consecutive sets share one group.
	g0, _, _ := a.AccessDistance(0, 0, ways)
	g1, _, _ := a.AccessDistance(3, 15, ways)
	if g0 != g1 {
		t.Errorf("slots of sets 0-3 in different groups: %d vs %d", g0, g1)
	}
	g2, _, _ := a.AccessDistance(4, 0, ways)
	if g2 == g0 {
		t.Error("set 4 should start the next group")
	}
	// Domain assignment is a bijection over the group.
	seen := map[int]bool{}
	for set := 0; set < 4; set++ {
		for way := 0; way < ways; way++ {
			_, domain := a.lineIndex(set, way, ways)
			if seen[domain] {
				t.Fatalf("domain %d assigned twice", domain)
			}
			seen[domain] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("only %d distinct domains", len(seen))
	}
	// Way 0 of neighbouring sets sits at adjacent offsets (short shifts
	// for sequential fills).
	_, d0 := a.lineIndex(0, 0, ways)
	_, d1 := a.lineIndex(1, 0, ways)
	if d1-d0 != 1 {
		t.Errorf("way-0 domains of neighbouring sets: %d, %d", d0, d1)
	}
}

func TestRTMMoveHeadBounds(t *testing.T) {
	a := NewRTMArray(DefaultRTM(), 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range head move did not panic")
		}
	}()
	a.MoveHead(0, 8, +1, 1)
}

func TestRTMStats(t *testing.T) {
	a := NewRTMArray(DefaultRTM(), 1<<20)
	a.MoveHead(0, 3, +1, 1)
	a.MoveHead(0, 3, -1, 3)
	a.MoveHead(1, 0, +1, 1)
	if a.ShiftOps != 4 || a.ShiftSteps != 6 {
		t.Errorf("ops=%d steps=%d", a.ShiftOps, a.ShiftSteps)
	}
	if a.ZeroShiftAccesses != 1 {
		t.Errorf("zero-shift accesses = %d", a.ZeroShiftAccesses)
	}
	if want := []uint64{0, 0, 0, 2, 0, 0, 0, 0}; !slices.Equal(a.Distances, want) {
		t.Errorf("distances = %v, want %v", a.Distances, want)
	}
	if a.AvgShiftDistance() != 1.5 {
		t.Errorf("avg distance = %v", a.AvgShiftDistance())
	}
}

func TestRTMCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisible capacity did not panic")
		}
	}()
	NewRTMArray(DefaultRTM(), 4096+512)
}

// refCache is the cache model as an array of line records, kept as the
// reference the parallel-array tag store must match call for call.
type refCache struct {
	sets, ways, lineBytes int
	lines                 []refLine
	clock                 uint64
	stats                 Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	age          uint64
}

func newRefCache(capacityB int64, ways, lineBytes int) *refCache {
	sets := int(capacityB / int64(ways*lineBytes))
	return &refCache{sets: sets, ways: ways, lineBytes: lineBytes, lines: make([]refLine, sets*ways)}
}

func (c *refCache) index(addr uint64) (int, uint64) {
	lineAddr := addr / uint64(c.lineBytes)
	return int(lineAddr % uint64(c.sets)), lineAddr / uint64(c.sets)
}

func (c *refCache) access(addr uint64, write bool) Result {
	c.clock++
	set, tag := c.index(addr)
	base := set * c.ways
	if write {
		c.stats.WriteAccesses++
	} else {
		c.stats.ReadAccesses++
	}
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.age = c.clock
			l.dirty = l.dirty || write
			c.stats.Hits++
			return Result{Hit: true, Way: w, Set: set}
		}
	}
	c.stats.Misses++
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = w
			break
		}
		if l.age < oldest {
			oldest, victim = l.age, w
		}
	}
	res := Result{Way: victim, Set: set}
	l := &c.lines[base+victim]
	if l.valid {
		res.Evicted, res.Writeback = true, l.dirty
		if l.dirty {
			c.stats.Writebacks++
		}
		c.stats.Evictions++
		res.EvictedAddr = (l.tag*uint64(c.sets) + uint64(set)) * uint64(c.lineBytes)
	}
	*l = refLine{tag: tag, valid: true, dirty: write, age: c.clock}
	return res
}

func (c *refCache) contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.lines[set*c.ways : (set+1)*c.ways] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) invalidate(addr uint64) (resident, dirty bool) {
	set, tag := c.index(addr)
	for w := set * c.ways; w < (set+1)*c.ways; w++ {
		if l := &c.lines[w]; l.valid && l.tag == tag {
			l.valid = false
			return true, l.dirty
		}
	}
	return false, false
}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// mix of accesses, probes and invalidations and requires identical
// answers and Stats after every call. The geometries include the 128 MB
// LLC's, whose lines are drawn from 64 sets spread over its whole set
// range, and a multiprogrammed mix, whose lines sit in four address-space
// slices at i<<36 as memsim's offsetSource places them.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct {
		sets, ways int
		// used is the number of sets the lines fall in, evenly spaced (0
		// for all of them); slices the number of address-space slices
		// (0 for one at address 0).
		used, slices int
	}{{sets: 64, ways: 16}, {sets: 128, ways: 4}, {sets: 256, ways: 2},
		{sets: 1 << 17, ways: 16, used: 64}, {sets: 16, ways: 2, slices: 4}} {
		used := g.used
		if used == 0 {
			used = g.sets
		}
		for seed := uint64(1); seed <= 3; seed++ {
			capacity := int64(g.sets * g.ways * 64)
			c, ref := New(capacity, g.ways, 64), newRefCache(capacity, g.ways, 64)
			r := sim.NewRNG(seed)
			// Lines over three times the capacity of the sets in use, a
			// quarter of them hot, so hits, evictions and writebacks all
			// happen.
			lines := uint64(3 * used * g.ways)
			for i := 0; i < 20000; i++ {
				line := r.Uint64n(lines)
				if r.Bool(0.5) {
					line %= lines / 4
				}
				line = line/uint64(used)*uint64(g.sets) + line%uint64(used)*uint64(g.sets/used)
				addr := line*64 + r.Uint64n(64)
				if g.slices > 0 {
					addr += r.Uint64n(uint64(g.slices)) << 36
				}
				what := func() string { return fmt.Sprintf("%dx%d seed %d call %d", g.sets, g.ways, seed, i) }
				switch p := r.Float64(); {
				case p < 0.8:
					write := r.Bool(0.3)
					if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
						t.Fatalf("%s: Access(%#x, %v) = %+v, reference %+v", what(), addr, write, got, want)
					}
				case p < 0.9:
					if got, want := c.Contains(addr), ref.contains(addr); got != want {
						t.Fatalf("%s: Contains(%#x) = %v, reference %v", what(), addr, got, want)
					}
				default:
					gr, gd := c.Invalidate(addr)
					wr, wd := ref.invalidate(addr)
					if gr != wr || gd != wd {
						t.Fatalf("%s: Invalidate(%#x) = %v, %v, reference %v, %v", what(), addr, gr, gd, wr, wd)
					}
				}
				if c.Stats != ref.stats {
					t.Fatalf("%s: Stats %+v, reference %+v", what(), c.Stats, ref.stats)
				}
			}
			if c.Stats.Hits == 0 || c.Stats.Writebacks == 0 {
				t.Fatalf("%dx%d seed %d: no hits or no writebacks: %+v", g.sets, g.ways, seed, c.Stats)
			}
		}
	}
}

// TestTagLimit checks the edge of the 32-bit tag range: the last line
// below (2^32-1)*sets*lineBytes is stored and evicted with its address
// intact, and the first line at the limit panics.
func TestTagLimit(t *testing.T) {
	const sets, ways = 16, 2
	c := New(sets*ways*64, ways, 64)
	limit := uint64(1<<32-1) * sets * 64
	last := limit - 64
	c.Access(last, true)
	if !c.Contains(last) {
		t.Fatalf("line %#x not resident after access", last)
	}
	c.Access(last-sets*64, false) // same set, next tag down
	r := c.Access(last-2*sets*64, false)
	if !r.Evicted || !r.Writeback || r.EvictedAddr != last {
		t.Fatalf("evicting %#x: %+v", last, r)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("address %#x at the tag limit did not panic", limit)
		}
	}()
	c.Access(limit, false)
}
