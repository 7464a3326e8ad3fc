package memsim

import (
	"encoding/json"
	"math"
	"strconv"

	"racetrack/hifi/internal/trace"
)

// FingerprintSchema versions the fingerprint layout; bump it whenever
// simulator behaviour changes in a result-affecting way that the config
// fields cannot express, so stale engine-cache entries are invalidated.
const FingerprintSchema = 1

// Fingerprint returns the canonical identity of the resolved
// configuration running workload w — the content-addressed cache-key
// input used by the experiment engine (see docs/engine.md). Defaults
// are filled first, so a zero field and its explicit default value
// fingerprint identically.
//
// The identity is "memsim|" and one compact JSON object holding every
// field that affects a Result and nothing that does not (Metrics,
// Sampler, Events, and the span context are observability-only).
// It is appended field by field in a fixed order, byte for byte what
// encoding/json writes for the same object, so cache keys made by
// earlier, reflective versions stay valid. Adding a field appends it
// here; renaming or reordering one moves every key.
//
// Configs carrying replayed Sources are not fingerprintable: the access
// stream lives outside the config, so the identity would be incomplete
// and the cache would serve wrong results. Callers must not route such
// runs through a cached engine; Fingerprint panics to make the misuse
// loud, as it does for a NaN or infinite float field, which JSON cannot
// express.
func (c Config) Fingerprint(w trace.Workload) string {
	if c.Sources != nil {
		panic("memsim: Fingerprint: configs with replayed Sources have no canonical identity")
	}
	c.fillDefaults()
	var buf [1024]byte
	b := append(buf[:0], `memsim|{"schema":`...)
	b = strconv.AppendInt(b, FingerprintSchema, 10)
	b = appendInt(b, `,"cores":`, int64(c.Cores))
	b = appendFloat(append(b, `,"clock_hz":`...), c.ClockHz)
	b = appendString(append(b, `,"tech":`...), c.Tech.String())
	b = appendString(append(b, `,"scheme":`...), c.Scheme.String())
	b = appendBool(b, `,"ideal":`, c.Ideal)
	b = appendInt(b, `,"geometry":{"stripes_per_group":`, int64(c.Geometry.StripesPerGroup))
	b = appendInt(b, `,"data_bits":`, int64(c.Geometry.DataBits))
	b = appendInt(b, `,"seg_len":`, int64(c.Geometry.SegLen))
	b = appendInt(b, `,"line_bytes":`, int64(c.Geometry.LineBytes))
	b = appendInt(b, `},"accesses_per_core":`, int64(c.AccessesPerCore))
	b = appendInt(b, `,"warmup_accesses_per_core":`, int64(c.WarmupAccessesPerCore))
	b = strconv.AppendUint(append(b, `,"seed":`...), c.Seed, 10)
	b = appendFloat(append(b, `,"target_due":`...), c.TargetDUE)
	b = appendInt(b, `,"l1_capacity":`, c.L1Capacity)
	b = appendInt(b, `,"l2_capacity":`, c.L2Capacity)
	b = appendInt(b, `,"l3_capacity":`, c.L3Capacity)
	b = appendInt(b, `,"l1_ways":`, int64(c.L1Ways))
	b = appendInt(b, `,"l2_ways":`, int64(c.L2Ways))
	b = appendInt(b, `,"l3_ways":`, int64(c.L3Ways))
	b = appendBool(b, `,"eager_head":`, c.EagerHead)
	b = appendInt(b, `,"promo_entries":`, int64(c.PromoEntries))
	b = appendWorkload(append(b, `,"workload":`...), w)
	if len(c.Mix) > 0 {
		b = append(b, `,"mix":[`...)
		for i, m := range c.Mix {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWorkload(b, m)
		}
		b = append(b, ']')
	}
	// The fault plan's canonical JSON, as a string; the nominal device
	// has none and is left out, so plan-free fingerprints are
	// byte-identical to those made before fault injection existed.
	if f := c.FaultPlan.Canonical(); f != "" {
		b = appendString(append(b, `,"faults":`...), f)
	}
	return string(append(b, '}'))
}

// appendWorkload appends w as encoding/json writes the untagged struct:
// every field, under its Go name, in declaration order.
func appendWorkload(b []byte, w trace.Workload) []byte {
	b = appendString(append(b, `{"Name":`...), w.Name)
	b = appendBool(b, `,"CapacitySensitive":`, w.CapacitySensitive)
	b = appendInt(b, `,"WorkingSetB":`, w.WorkingSetB)
	b = appendFloat(append(b, `,"ZipfS":`...), w.ZipfS)
	b = appendFloat(append(b, `,"StreamFrac":`...), w.StreamFrac)
	b = appendFloat(append(b, `,"WriteFrac":`...), w.WriteFrac)
	b = appendFloat(append(b, `,"GapMean":`...), w.GapMean)
	b = appendBool(b, `,"LatencySensitive":`, w.LatencySensitive)
	b = appendInt(b, `,"PhasePeriod":`, int64(w.PhasePeriod))
	b = appendFloat(append(b, `,"PhaseGapMean":`...), w.PhaseGapMean)
	return append(b, '}')
}

func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that parses back to f, in 'f' form unless |f| < 1e-6 or
// |f| >= 1e21, then in 'e' form with a one-digit exponent unpadded
// ("1e-7", not "1e-07"). NaN and ±Inf panic, as json.Marshal fails on
// them.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("memsim: Fingerprint: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as encoding/json writes a string. Printable
// ASCII other than a quote, a backslash and <, > and & is copied as is;
// any other string is rare in a key and goes through json.Marshal, so
// its escapes (\u003c for <, \n, \ufffd for invalid UTF-8) stay
// encoding/json's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
