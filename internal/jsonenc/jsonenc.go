// Package jsonenc appends JSON strings and float64s byte for byte as
// encoding/json writes them. Hand-written encoders that must match
// json.Marshal exactly, without its reflection and allocations, build
// on it: memsim's config fingerprint (cache keys made by the
// reflective encoder stay valid) and the event stream's SSE frames and
// NDJSON lines (docs/events.md). It keeps the one copy of
// encoding/json's string escapes and float format in the repository.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// unescaped: printable ASCII and DEL, except ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// String appends s quoted as encoding/json writes a string: ", \ and
// \b, \f, \n, \r, \t as two-byte escapes; other control bytes and <, >
// and & as six-byte \u escapes; each invalid UTF-8 byte as the escape
// of U+FFFD; U+2028 and U+2029 (line and paragraph separators) as their
// escapes; everything else as is.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as encoding/json writes a float64: the shortest
// decimal that parses back to f, in 'f' form unless |f| < 1e-6 or
// |f| >= 1e21, then in 'e' form with its exponent unpadded ("1e-7",
// not "1e-07"). NaN and ±Inf append nothing and return the error
// json.Marshal returns for them.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
