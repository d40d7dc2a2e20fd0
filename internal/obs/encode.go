package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// appendEvent appends the JSON encoding of e to dst. The bytes are the
// ones json.Marshal(e) produces: fields in struct order under the same
// omitempty rules, floats in encoding/json's format and strings
// HTML-escaped. TestJSONLMatchesMarshal and FuzzJSONLMatchesMarshal hold
// the two encoders together, so a field added to Event must be added here.
// A NaN or infinite float yields the *json.UnsupportedValueError
// json.Marshal returns; the returned slice then holds a partial encoding
// past len(dst).
func appendEvent(dst []byte, e Event) ([]byte, error) {
	enc := encoder{b: dst}
	enc.raw(`{"t":`)
	enc.float(e.T)
	enc.raw(`,"type":`)
	enc.str(string(e.Type))
	enc.raw(`,"node":`)
	enc.int(int64(e.Node))
	enc.strField(`,"job":`, e.Job)
	if t := e.Task; t != nil {
		enc.raw(`,"task":{"kind":`)
		enc.str(t.Kind)
		enc.raw(`,"index":`)
		enc.int(int64(t.Index))
		enc.raw(`}`)
	}
	enc.strField(`,"locality":`, e.Locality)
	enc.strField(`,"reason":`, e.Reason)
	enc.floatField(`,"wait":`, e.Wait)
	enc.floatField(`,"dur":`, e.Dur)
	enc.floatField(`,"factor":`, e.Factor)
	if d := e.Decision; d != nil {
		enc.raw(`,"decision":{"c":`)
		enc.float(d.C)
		enc.raw(`,"c_avg":`)
		enc.float(d.CAvg)
		enc.raw(`,"p":`)
		enc.float(d.P)
		enc.raw(`,"p_min":`)
		enc.float(d.PMin)
		enc.strField(`,"draw":`, d.Draw)
		enc.raw(`}`)
	}
	if f := e.Flow; f != nil {
		enc.raw(`,"flow":{"id":`)
		enc.int(f.ID)
		enc.raw(`,"src":`)
		enc.int(int64(f.Src))
		enc.raw(`,"dst":`)
		enc.int(int64(f.Dst))
		enc.raw(`,"bytes":`)
		enc.float(f.Bytes)
		enc.raw(`,"rate":`)
		enc.float(f.Rate)
		if len(f.Links) > 0 {
			enc.raw(`,"links":[`)
			for i, l := range f.Links {
				if i > 0 {
					enc.raw(`,`)
				}
				enc.int(int64(l))
			}
			enc.raw(`]`)
		}
		if f.Persistent {
			enc.raw(`,"persistent":true`)
		}
		enc.raw(`}`)
	}
	enc.raw(`}`)
	return enc.b, enc.err
}

// encoder appends JSON values to b and keeps the first error.
type encoder struct {
	b   []byte
	err error
}

func (enc *encoder) raw(s string) { enc.b = append(enc.b, s...) }

func (enc *encoder) int(i int64) { enc.b = strconv.AppendInt(enc.b, i, 10) }

// strField writes key and s unless s is empty (omitempty).
func (enc *encoder) strField(key, s string) {
	if s != "" {
		enc.raw(key)
		enc.str(s)
	}
}

// floatField writes key and f unless f is zero, -0 included (omitempty).
func (enc *encoder) floatField(key string, f float64) {
	if f != 0 {
		enc.raw(key)
		enc.float(f)
	}
}

// str writes s as a JSON string. Printable ASCII other than the quote,
// the backslash and the HTML-escaped <, > and & is copied as is; any
// other string goes through json.Marshal, which owns the escaping rules
// (HTML, U+2028/U+2029, invalid UTF-8). Event strings are names and
// fixed vocabulary, so the fallback is rare.
func (enc *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			enc.b = append(enc.b, q...)
			return
		}
	}
	enc.b = append(enc.b, '"')
	enc.b = append(enc.b, s...)
	enc.b = append(enc.b, '"')
}

// float writes f the way encoding/json's float64 encoder does: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded.
func (enc *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if enc.err == nil {
			enc.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	enc.b = strconv.AppendFloat(enc.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		n := len(enc.b)
		if n >= 4 && enc.b[n-4] == 'e' && enc.b[n-3] == '-' && enc.b[n-2] == '0' {
			enc.b[n-2] = enc.b[n-1]
			enc.b = enc.b[:n-1]
		}
	}
}
