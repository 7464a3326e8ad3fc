// Package area models racetrack-memory array area at the architecture level
// (paper §4.2.3, Fig. 7, Fig. 13, Table 5), standing in for the circuit
// model of [46] and the NVSim runs the paper used.
//
// The central effect (paper Fig. 7): a racetrack stripe is stacked on top
// of its access transistors. With few ports, stripe area is domain-limited
// (adding a read port costs almost nothing); with many ports it becomes
// transistor-limited and every added port costs full transistor area. Area
// is reported in F^2 per data bit, F being the feature size (45 nm).
package area

import "racetrack/hifi/internal/pecc"

// Model holds the calibrated area constants. All areas are in F^2.
type Model struct {
	// DomainF2 is the stripe area attributable to one domain (track pitch
	// x domain length, divided by stacking efficiency).
	DomainF2 float64
	// ReadPortF2 is the transistor footprint of a read-only port (one
	// access transistor plus its share of wordline pitch).
	ReadPortF2 float64
	// RWPortF2 is the footprint of a read/write port (one more transistor
	// and two reference domains, paper §2.1).
	RWPortF2 float64
	// ShiftPortF2 is the footprint of the two shift-drive transistors at
	// the stripe ends, combined.
	ShiftPortF2 float64
	// PeripheralShare is a fixed per-stripe share of decoders and sense
	// amplifiers.
	PeripheralShare float64
}

// Default returns constants calibrated so a 64-data-domain stripe with 8
// R/W ports lands at the paper's ~8-16 F^2/bit band of Fig. 7 and the cell
// overhead percentages of Table 5.
func Default() Model {
	return Model{
		DomainF2:        6.8,
		ReadPortF2:      35,
		RWPortF2:        70,
		ShiftPortF2:     70,
		PeripheralShare: 0,
	}
}

// StripeF2 returns the area of one stripe with the given number of domains
// (data + overhead + guards + code), read-only ports and read/write ports:
// the maximum of the domain-limited and transistor-limited footprints plus
// the peripheral share.
func (m Model) StripeF2(domains, readPorts, rwPorts int) float64 {
	domainArea := m.DomainF2 * float64(domains)
	transistorArea := m.ReadPortF2*float64(readPorts) +
		m.RWPortF2*float64(rwPorts) + m.ShiftPortF2
	a := domainArea
	if transistorArea > a {
		a = transistorArea
	}
	return a + m.PeripheralShare
}

// PerDataBit returns F^2 per data bit for a stripe with dataBits data
// domains out of domains total.
func (m Model) PerDataBit(dataBits, domains, readPorts, rwPorts int) float64 {
	if dataBits <= 0 {
		panic("area: non-positive data bits")
	}
	return m.StripeF2(domains, readPorts, rwPorts) / float64(dataBits)
}

// Fig7Point reproduces one point of paper Fig. 7: the area per data bit of
// a 64-bit stripe with the paper's overhead region, rwPorts existing
// read/write ports, and extraReads added read-only ports.
func (m Model) Fig7Point(extraReads, rwPorts int) float64 {
	const dataBits = 64
	domains := dataBits + 7 // overhead region for 8-step segments
	return m.PerDataBit(dataBits, domains, extraReads, rwPorts)
}

// StripeConfig describes a protected stripe for overhead accounting.
type StripeConfig struct {
	DataBits    int // data domains
	SegLen      int // Lseg; data R/W ports = DataBits/SegLen
	ExtraDomain int // guards + code domains beyond data+overhead
	ExtraReads  int // added read-only ports (p-ECC windows)
	ExtraWrites int // added write-capable ports (p-ECC-O ends)
}

// Baseline returns the unprotected configuration for the given geometry:
// data plus the Lseg-1 overhead region, no extra ports.
func Baseline(dataBits, segLen int) StripeConfig {
	return StripeConfig{DataBits: dataBits, SegLen: segLen}
}

// PECC returns the configuration of a stripe protected by code, one of
// the paper's original p-ECCs: the code's area length and its guards as
// extra domains, and its window of read ports.
func PECC(dataBits, segLen int, code pecc.Code) StripeConfig {
	return StripeConfig{
		DataBits:    dataBits,
		SegLen:      segLen,
		ExtraDomain: code.AreaLength() + code.GuardDomains(),
		ExtraReads:  code.Window(),
	}
}

// PECCO returns the configuration of a stripe protected by the p-ECC-O
// code o: its code domains at both ends and its guards as extra domains,
// m+1 read ports at each end, and its write ports.
func PECCO(dataBits, segLen int, o pecc.OCode) StripeConfig {
	return StripeConfig{
		DataBits:    dataBits,
		SegLen:      segLen,
		ExtraDomain: o.ExtraDomains(),
		ExtraReads:  2 * (o.M() + 1),
		ExtraWrites: o.WritePorts(),
	}
}

// Domains returns the stripe's total domain count: data + overhead region
// (Lseg-1, present in every configuration) + protection extras.
func (c StripeConfig) Domains() int {
	return c.DataBits + c.SegLen - 1 + c.ExtraDomain
}

// Ports returns the port counts (read-only, read/write) including the data
// ports.
func (c StripeConfig) Ports() (reads, rws int) {
	return c.ExtraReads, c.DataBits/c.SegLen + c.ExtraWrites
}

// PerBit returns the configuration's area per data bit under model m.
func (m Model) PerBit(c StripeConfig) float64 {
	reads, rws := c.Ports()
	return m.PerDataBit(c.DataBits, c.Domains(), reads, rws)
}

// CellOverhead returns the fractional domain-count overhead of a protected
// configuration relative to its data bits — the "Cell %" column of the
// paper's Table 5 (which reports 17.6% for p-ECC and 15.7% for p-ECC-O at
// the default 8x8, 64-bit stripe).
func (c StripeConfig) CellOverhead() float64 {
	return float64(c.ExtraDomain) / float64(c.DataBits)
}

// ControllerArea holds the synthesized controller areas of Table 5, in
// square micrometers at 45 nm.
type ControllerArea struct {
	STS           float64
	PECC          float64
	PECCO         float64
	PECCSWorst    float64
	PECCSAdaptive float64
}

// Table5Controller returns the paper's synthesized controller areas.
func Table5Controller() ControllerArea {
	return ControllerArea{
		STS:           1.94,
		PECC:          54.0,
		PECCO:         54.0,
		PECCSWorst:    54.3,
		PECCSAdaptive: 109.4,
	}
}
