package memsim

import (
	"strconv"

	"racetrack/hifi/internal/jsonenc"
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
	b = appendFloat(b, `,"clock_hz":`, c.ClockHz)
	b = appendString(b, `,"tech":`, c.Tech.String())
	b = appendString(b, `,"scheme":`, c.Scheme.String())
	b = appendBool(b, `,"ideal":`, c.Ideal)
	b = appendInt(b, `,"geometry":{"stripes_per_group":`, int64(c.Geometry.StripesPerGroup))
	b = appendInt(b, `,"data_bits":`, int64(c.Geometry.DataBits))
	b = appendInt(b, `,"seg_len":`, int64(c.Geometry.SegLen))
	b = appendInt(b, `,"line_bytes":`, int64(c.Geometry.LineBytes))
	b = appendInt(b, `},"accesses_per_core":`, int64(c.AccessesPerCore))
	b = appendInt(b, `,"warmup_accesses_per_core":`, int64(c.WarmupAccessesPerCore))
	b = strconv.AppendUint(append(b, `,"seed":`...), c.Seed, 10)
	b = appendFloat(b, `,"target_due":`, c.TargetDUE)
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
		b = appendString(b, `,"faults":`, f)
	}
	return string(append(b, '}'))
}

// appendWorkload appends w as encoding/json writes the untagged struct:
// every field, under its Go name, in declaration order.
func appendWorkload(b []byte, w trace.Workload) []byte {
	b = appendString(b, `{"Name":`, w.Name)
	b = appendBool(b, `,"CapacitySensitive":`, w.CapacitySensitive)
	b = appendInt(b, `,"WorkingSetB":`, w.WorkingSetB)
	b = appendFloat(b, `,"ZipfS":`, w.ZipfS)
	b = appendFloat(b, `,"StreamFrac":`, w.StreamFrac)
	b = appendFloat(b, `,"WriteFrac":`, w.WriteFrac)
	b = appendFloat(b, `,"GapMean":`, w.GapMean)
	b = appendBool(b, `,"LatencySensitive":`, w.LatencySensitive)
	b = appendInt(b, `,"PhasePeriod":`, int64(w.PhasePeriod))
	b = appendFloat(b, `,"PhaseGapMean":`, w.PhaseGapMean)
	return append(b, '}')
}

func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

func appendString(b []byte, name, v string) []byte {
	return jsonenc.String(append(b, name...), v)
}

// appendFloat panics on NaN and ±Inf with json.Marshal's message, as
// the reflective encoder did.
func appendFloat(b []byte, name string, v float64) []byte {
	b, err := jsonenc.Float(append(b, name...), v)
	if err != nil {
		panic("memsim: Fingerprint: " + err.Error())
	}
	return b
}
