package cache

import "fmt"

// RTMGeometry describes the racetrack organization behind an LLC data
// array, following the paper's default mapping: a 64-byte line occupies one
// bit of each of 512 stripes; each stripe holds DataBits domains split into
// DataBits/SegLen segments; the 64 lines sharing a stripe group are
// distinguished by their domain index, so accessing line L requires the
// group's shared head to sit at in-segment offset L mod SegLen.
type RTMGeometry struct {
	StripesPerGroup int // stripes shifting together (512)
	DataBits        int // domains per stripe (64)
	SegLen          int // domains per access port (8)
	LineBytes       int // cache line size (64)
}

// DefaultRTM returns the paper's configuration.
func DefaultRTM() RTMGeometry {
	return RTMGeometry{StripesPerGroup: 512, DataBits: 64, SegLen: 8, LineBytes: 64}
}

// Validate checks the geometry.
func (g RTMGeometry) Validate() error {
	switch {
	case g.StripesPerGroup <= 0 || g.DataBits <= 0 || g.SegLen <= 0 || g.LineBytes <= 0:
		return fmt.Errorf("cache: non-positive RTM geometry")
	case g.DataBits%g.SegLen != 0:
		return fmt.Errorf("cache: SegLen %d does not divide DataBits %d", g.SegLen, g.DataBits)
	case g.StripesPerGroup*g.LineBytes*8%g.StripesPerGroup != 0:
		return fmt.Errorf("cache: inconsistent line interleave")
	}
	return nil
}

// CheckCapacity reports whether NewRTMArray can build the head state of
// an LLC of capacityB bytes: a valid geometry and a whole number of
// stripe groups.
func (g RTMGeometry) CheckCapacity(capacityB int64) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if gb := g.GroupBytes(); capacityB%gb != 0 {
		return fmt.Errorf("cache: capacity %d not divisible by group bytes %d", capacityB, gb)
	}
	return nil
}

// LinesPerGroup returns how many cache lines one stripe group stores: one
// line per domain index (each stripe contributes LineBytes*8 /
// StripesPerGroup bits per line; with the default 512 stripes and 64-byte
// lines that is exactly one bit per stripe).
func (g RTMGeometry) LinesPerGroup() int { return g.DataBits }

// GroupBytes returns the data capacity of one stripe group.
func (g RTMGeometry) GroupBytes() int64 {
	return int64(g.LinesPerGroup()) * int64(g.LineBytes)
}

// RTMArray tracks the head positions of every stripe group in an LLC data
// array and converts line accesses into shift distances.
type RTMArray struct {
	geom   RTMGeometry
	heads  []int8 // current in-segment offset per group
	groups int

	// ShiftOps and ShiftSteps accumulate issued operations and distance.
	ShiftOps   uint64
	ShiftSteps uint64
	// ZeroShiftAccesses counts accesses that needed no movement.
	ZeroShiftAccesses uint64
	// Distances[d] counts the accesses that shifted d steps (d >= 1).
	Distances []uint64
}

// NewRTMArray sizes the head-position state for an LLC of capacityB bytes.
// It panics unless geom.CheckCapacity accepts the capacity.
func NewRTMArray(geom RTMGeometry, capacityB int64) *RTMArray {
	if err := geom.CheckCapacity(capacityB); err != nil {
		panic(err)
	}
	groups := capacityB / geom.GroupBytes()
	return &RTMArray{
		geom:      geom,
		groups:    int(groups),
		heads:     make([]int8, groups),
		Distances: make([]uint64, geom.SegLen),
	}
}

// Groups returns the number of stripe groups.
func (a *RTMArray) Groups() int { return a.groups }

// Geometry returns the array's geometry.
func (a *RTMArray) Geometry() RTMGeometry { return a.geom }

// lineIndex returns which of the group's lines a (set, way) slot maps to,
// and which group. A group holds LinesPerGroup/ways consecutive sets. The
// domain index within the group is way-major (domain = way*setsPerGroup +
// setWithinGroup), so that lines of the same way in neighbouring sets sit
// at adjacent domains: sequential fills into way 0 then produce short
// neighbour shifts rather than all landing on one offset.
func (a *RTMArray) lineIndex(set, way, ways int) (group, domain int) {
	setsPerGroup := a.geom.LinesPerGroup() / ways
	if setsPerGroup < 1 {
		setsPerGroup = 1
	}
	group = set / setsPerGroup % a.groups
	domain = (way*setsPerGroup + set%setsPerGroup) % a.geom.LinesPerGroup()
	return group, domain
}

// AccessDistance returns the shift distance required to bring the line at
// (set, way) under its group's ports, given the cache's associativity, and
// the direction (+1 toward higher offsets, -1 toward lower). It does not
// move the head; call MoveHead after the shift plan commits.
func (a *RTMArray) AccessDistance(set, way, ways int) (group, dist, dir int) {
	group, domain := a.lineIndex(set, way, ways)
	target := domain % a.geom.SegLen
	cur := int(a.heads[group])
	switch {
	case target == cur:
		return group, 0, +1
	case target > cur:
		return group, target - cur, +1
	default:
		return group, cur - target, -1
	}
}

// MoveHead commits a completed shift of dist steps in direction dir on the
// group and updates statistics. ops is the number of shift operations the
// controller issued to cover the distance (1 unless a safe-distance plan
// split it).
func (a *RTMArray) MoveHead(group, dist, dir, ops int) {
	if dist == 0 {
		a.ZeroShiftAccesses++
		return
	}
	h := int(a.heads[group]) + dir*dist
	if h < 0 || h >= a.geom.SegLen {
		panic(fmt.Sprintf("cache: head of group %d moved to %d (SegLen %d)", group, h, a.geom.SegLen))
	}
	a.heads[group] = int8(h)
	a.ShiftOps += uint64(ops)
	a.ShiftSteps += uint64(dist)
	a.Distances[dist]++
}

// Head returns the current offset of a group (tests).
func (a *RTMArray) Head(group int) int { return int(a.heads[group]) }

// AvgShiftDistance returns mean steps per shifting access.
func (a *RTMArray) AvgShiftDistance() float64 {
	if a.ShiftOps == 0 {
		return 0
	}
	return float64(a.ShiftSteps) / float64(a.ShiftOps)
}
