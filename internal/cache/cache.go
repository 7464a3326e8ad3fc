// Package cache implements the set-associative cache model used by the
// system simulator, plus the racetrack-memory LLC organization with the
// paper's data mapping: each 64-byte line is interleaved over a group of
// 512 stripes that shift together, each stripe contributing one bit per
// line across its 64 data domains (8 segments of 8 by default).
package cache

import "fmt"

// Stats counts cache events.
type Stats struct {
	Hits, Misses  uint64
	Evictions     uint64
	Writebacks    uint64
	ReadAccesses  uint64
	WriteAccesses uint64
}

// MissRate returns misses / accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a blocking set-associative cache with true-LRU replacement.
//
// Line state is kept in parallel arrays indexed by set*ways+way, so a
// lookup scans only the set's tags, 8 bytes a way. A line costs 17
// bytes in all.
type Cache struct {
	sets, ways int
	lineBytes  int
	// tags holds each line's tag plus one; 0 marks an invalid line.
	tags []uint64
	// ages holds per-set LRU clock stamps; larger is more recent.
	ages  []uint64
	dirty []bool
	clock uint64
	Stats Stats
}

// New builds a cache of the given capacity. capacity must be divisible by
// ways*lineBytes.
func New(capacityB int64, ways, lineBytes int) *Cache {
	if capacityB <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	setBytes := int64(ways * lineBytes)
	if capacityB%setBytes != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible by way size %d", capacityB, setBytes))
	}
	sets := int(capacityB / setBytes)
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		tags:      make([]uint64, sets*ways),
		ages:      make([]uint64, sets*ways),
		dirty:     make([]bool, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// index splits an address into set index and stored tag (tag + 1).
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.lineBytes)
	return int(lineAddr % uint64(c.sets)), lineAddr/uint64(c.sets) + 1
}

// find returns the way holding tag in the set whose lines start at base,
// or -1.
func (c *Cache) find(base int, tag uint64) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// Result describes one access.
type Result struct {
	Hit bool
	// Way is the way the line occupies after the access.
	Way int
	// Set is the set index.
	Set int
	// Evicted reports a valid line was displaced.
	Evicted bool
	// Writeback reports the displaced line was dirty.
	Writeback bool
	// EvictedAddr reconstructs the displaced line's address.
	EvictedAddr uint64
}

// Access looks up addr, allocating on miss (write-allocate, writeback).
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	set, tag := c.index(addr)
	base := set * c.ways
	if write {
		c.Stats.WriteAccesses++
	} else {
		c.Stats.ReadAccesses++
	}
	if w := c.find(base, tag); w >= 0 {
		c.ages[base+w] = c.clock
		if write {
			c.dirty[base+w] = true
		}
		c.Stats.Hits++
		return Result{Hit: true, Way: w, Set: set}
	}
	c.Stats.Misses++
	// Victim: invalid way first, else LRU.
	victim := 0
	oldest := ^uint64(0)
	ages := c.ages[base : base+c.ways]
	for w, t := range c.tags[base : base+c.ways] {
		if t == 0 {
			victim = w
			break
		}
		if ages[w] < oldest {
			oldest = ages[w]
			victim = w
		}
	}
	res := Result{Way: victim, Set: set}
	i := base + victim
	if old := c.tags[i]; old != 0 {
		res.Evicted = true
		res.Writeback = c.dirty[i]
		if res.Writeback {
			c.Stats.Writebacks++
		}
		c.Stats.Evictions++
		res.EvictedAddr = ((old-1)*uint64(c.sets) + uint64(set)) * uint64(c.lineBytes)
	}
	c.tags[i], c.ages[i], c.dirty[i] = tag, c.clock, write
	return res
}

// Contains reports whether addr is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	return c.find(set*c.ways, tag) >= 0
}

// Invalidate drops addr if resident, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (resident, dirty bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	w := c.find(base, tag)
	if w < 0 {
		return false, false
	}
	c.tags[base+w] = 0
	return true, c.dirty[base+w]
}
