// Package cache implements the set-associative cache model used by the
// system simulator, plus the racetrack-memory LLC organization with the
// paper's data mapping: each 64-byte line is interleaved over a group of
// 512 stripes that shift together, each stripe contributing one bit per
// line across its 64 data domains (8 segments of 8 by default).
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

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

// maxWays is the highest associativity New accepts: a set's recency
// order holds one four-bit way number per way in a uint64.
const maxWays = 16

// maxTag bounds the tags a Cache stores: tag+1 must fit in 32 bits.
const maxTag = 1<<32 - 1

// Cache is a blocking set-associative cache with true-LRU replacement.
//
// A lookup scans one host cache line of tags: tags holds each line's tag
// plus one in 32 bits at set*ways+way, so a 16-way set's tags fill 64
// bytes. order holds each set's recency order and dirty its dirty bits,
// one bit per way. A line of a 16-way cache costs 4.625 bytes in all.
type Cache struct {
	sets, ways int
	lineBytes  int
	// index splits an address with two shifts and a mask.
	lineShift, setShift uint
	setMask             uint64
	// tags holds each line's tag plus one; 0 marks an invalid line.
	tags []uint32
	// order holds each set's way numbers in four-bit nibbles, most
	// recently used in the lowest; way i starts at nibble i.
	order []uint64
	dirty []uint16
	Stats Stats
}

// CheckGeometry reports whether New can build a cache of capacityB bytes
// with the given associativity and line size: all three positive, at
// most 16 ways, and a line size and set count that are powers of
// two.
func CheckGeometry(capacityB int64, ways, lineBytes int) error {
	if capacityB <= 0 || ways <= 0 || lineBytes <= 0 {
		return errors.New("cache: non-positive geometry")
	}
	if ways > maxWays {
		return fmt.Errorf("cache: %d ways, more than %d", ways, maxWays)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two", lineBytes)
	}
	setBytes := int64(ways) * int64(lineBytes)
	if capacityB%setBytes != 0 {
		return fmt.Errorf("cache: capacity %d not divisible by way size %d", capacityB, setBytes)
	}
	if sets := capacityB / setBytes; sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return nil
}

// New builds a cache of the given capacity. It panics unless
// CheckGeometry accepts the geometry.
func New(capacityB int64, ways, lineBytes int) *Cache {
	if err := CheckGeometry(capacityB, ways, lineBytes); err != nil {
		panic(err)
	}
	sets := int(capacityB / int64(ways*lineBytes))
	c := &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint32, sets*ways),
		order:     make([]uint64, sets),
		dirty:     make([]uint16, sets),
	}
	for i := range c.order {
		c.order[i] = 0xFEDCBA9876543210
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// index splits an address into set index and stored tag (tag + 1). It
// panics on an address at or above (2^32-1)*sets*lineBytes, whose tag
// does not fit.
func (c *Cache) index(addr uint64) (set int, tag uint32) {
	line := addr >> c.lineShift
	t := line >> c.setShift
	if t >= maxTag {
		panic("cache: address beyond the 32-bit tag range")
	}
	return int(line & c.setMask), uint32(t) + 1
}

// find returns the way holding tag in the set whose lines start at base,
// or -1.
func (c *Cache) find(base int, tag uint32) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// nibbles has a one in every nibble of a recency order.
const nibbles = 0x1111111111111111

// position returns the bit offset of way w's nibble in recency order o.
// x has a zero nibble exactly where o holds w. (x-nibbles)&^x sets the
// top bit of that nibble, and of no nibble below it: a borrow starts only
// at a zero nibble.
func position(o uint64, w int) int {
	x := o ^ uint64(w)*nibbles
	return bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3)) &^ 3
}

// promote returns recency order o with the way at bit offset p moved to
// the front.
func promote(o uint64, p int) uint64 {
	below := uint64(1)<<p - 1
	return o&^(below|0xF<<p) | (o&below)<<4 | o>>p&0xF
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
	set, tag := c.index(addr)
	base := set * c.ways
	if write {
		c.Stats.WriteAccesses++
	} else {
		c.Stats.ReadAccesses++
	}
	o := c.order[set]
	if w := c.find(base, tag); w >= 0 {
		c.order[set] = promote(o, position(o, w))
		if write {
			c.dirty[set] |= 1 << w
		}
		c.Stats.Hits++
		return Result{Hit: true, Way: w, Set: set}
	}
	c.Stats.Misses++
	// Victim: the first invalid way, else the least recently used, which
	// is last in the order.
	p := 4 * (c.ways - 1)
	w := c.find(base, 0)
	if w >= 0 {
		p = position(o, w)
	} else {
		w = int(o >> p & 0xF)
	}
	res := Result{Way: w, Set: set}
	bit := uint16(1) << w
	if old := c.tags[base+w]; old != 0 {
		res.Evicted = true
		res.Writeback = c.dirty[set]&bit != 0
		if res.Writeback {
			c.Stats.Writebacks++
		}
		c.Stats.Evictions++
		res.EvictedAddr = (uint64(old-1)<<c.setShift | uint64(set)) << c.lineShift
	}
	c.tags[base+w] = tag
	c.order[set] = promote(o, p)
	if write {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	return res
}

// Contains reports whether addr is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	return c.find(set*c.ways, tag) >= 0
}

// Invalidate drops addr if resident, reporting whether it was dirty. The
// set's recency order is left alone: an invalid way is refilled before
// any valid one is evicted.
func (c *Cache) Invalidate(addr uint64) (resident, dirty bool) {
	set, tag := c.index(addr)
	w := c.find(set*c.ways, tag)
	if w < 0 {
		return false, false
	}
	c.tags[set*c.ways+w] = 0
	return true, c.dirty[set]>>w&1 != 0
}
