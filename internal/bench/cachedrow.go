package bench

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/engine"
	"repro/internal/gate"
)

// This file serves result-cache hits as the bytes they were stored as.
// A stored row is outside input — peers fill the tier through
// /v1/cache/fill, which checks only that the value is JSON — so a row
// is replayed verbatim only after canonicalRow has matched it, byte by
// byte, against what encoding/json writes for a successful, unnamed
// JobReport. Anything else takes the decode-and-encode path.

// CachedRow is a result-cache hit kept as its stored bytes: the
// one-line canonical encoding of a successful JobReport with an empty
// name. It is the Value of a result the cache answered.
// AppendReportLine splices the job's name into it; JobReportOf and
// Report decode it.
type CachedRow struct {
	raw []byte
}

// Report decodes the row: the job's report with an empty name (the
// cache stores rows by content, not by name), Worker -1 and no elapsed
// time. Lookup matched the row as canonical first, so the decode cannot
// fail on a row it handed out.
func (c *CachedRow) Report() (JobReport, error) {
	var jr JobReport
	err := json.Unmarshal(c.raw, &jr)
	return jr, err
}

// rowNamePrefix is how every canonical row starts; the empty name's two
// quote bytes follow it.
const rowNamePrefix = `{"name":`

// AppendReportLine appends r's report row, as JobReportOf renders it,
// and a newline to dst: the bytes json.Encoder writes for that row. A
// CachedRow is copied with r.ID spliced in as the name; every other
// result is rendered by JobReportOf and encoded. The error is the
// encoder's, for a row it cannot encode.
func AppendReportLine(dst []byte, r engine.Result, techs []*gate.Technology) ([]byte, error) {
	if row, ok := r.Value.(*CachedRow); ok {
		dst = append(dst, rowNamePrefix...)
		dst = appendJSONString(dst, r.ID)
		dst = append(dst, row.raw[len(rowNamePrefix)+2:]...)
		return append(dst, '\n'), nil
	}
	line, err := json.Marshal(JobReportOf(r, techs))
	if err != nil {
		return dst, err
	}
	dst = append(dst, line...)
	return append(dst, '\n'), nil
}

// appendJSONString appends s as encoding/json writes it, HTML escaping
// included. Names of plain ASCII are copied; anything else is encoded
// by the package itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainByte reports whether encoding/json writes b, inside a string, as
// itself: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plainByte(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// canonicalRow reports whether raw is exactly what cacheRowOf stores:
// json.Marshal of a JobReport with an empty name, OK set, no error
// fields, no elapsed time and Worker -1. It accepts no row that
// json.Unmarshal would refuse or decode to a failure, so a row it
// rejects is left to the decoder to judge.
func canonicalRow(raw []byte) bool {
	s := rowScan{b: raw, ok: true}
	s.lit(rowNamePrefix + `"","ok":true,"elapsed_ms":0,"worker":-1`)
	if s.opt(`,"metrics":{"checksum":`) {
		s.int(false)
		s.lit(`,"rv_insts":`)
		s.int(false)
		s.lit(`,"rv_bits":`)
		s.int(false)
		s.lit(`,"art_insts":`)
		s.int(false)
		s.lit(`,"art_trits":`)
		s.int(false)
		s.lit(`,"art9_cycles":`)
		s.uint()
		s.lit(`,"vex_cycles":`)
		s.uint()
		s.lit(`,"pico_cycles":`)
		s.uint()
		s.lit(`,"redundancy_removed":`)
		s.int(false)
		s.lit(`}`)
	}
	if s.opt(`,"implementations":[`) {
		for {
			s.lit(`{"tech":`)
			s.str()
			for _, k := range [...]string{`,"gates":`, `,"alms":`, `,"registers":`, `,"ram_bits":`} {
				if s.opt(k) {
					s.int(true) // omitempty: present only when non-zero
				}
			}
			s.lit(`,"freq_mhz":`)
			s.float()
			s.lit(`,"power_w":`)
			s.float()
			s.lit(`,"dmips":`)
			s.float()
			s.lit(`,"dmips_per_w":`)
			s.float()
			s.lit(`}`)
			if !s.opt(`,`) {
				break
			}
		}
		s.lit(`]`)
	}
	s.lit(`}`)
	return s.ok && len(s.b) == 0
}

// rowScan walks a row from the front. ok turns false at the first byte
// that departs from the canonical encoding, and every later step is
// then a no-op.
type rowScan struct {
	b  []byte
	ok bool
}

// lit consumes l, which must come next.
func (s *rowScan) lit(l string) {
	if !s.opt(l) {
		s.ok = false
	}
}

// opt consumes l when it comes next, and reports whether it did.
func (s *rowScan) opt(l string) bool {
	if s.ok && len(s.b) >= len(l) && string(s.b[:len(l)]) == l {
		s.b = s.b[len(l):]
		return true
	}
	return false
}

// number consumes the run of bytes a JSON number can hold.
func (s *rowScan) number() []byte {
	n := 0
	for n < len(s.b) {
		c := s.b[n]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		n++
	}
	tok := s.b[:n]
	s.b = s.b[n:]
	return tok
}

// int consumes an int as encoding/json writes one: it must fit an int
// and print back to the same bytes. nonZero also refuses 0, which an
// omitempty field never carries.
func (s *rowScan) int(nonZero bool) {
	if !s.ok {
		return
	}
	tok := s.number()
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	var buf [24]byte
	s.ok = err == nil && !(nonZero && v == 0) && string(strconv.AppendInt(buf[:0], v, 10)) == string(tok)
}

// uint consumes a uint64 as encoding/json writes one.
func (s *rowScan) uint() {
	if !s.ok {
		return
	}
	tok := s.number()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	var buf [24]byte
	s.ok = err == nil && string(strconv.AppendUint(buf[:0], v, 10)) == string(tok)
}

// float consumes a float64 as encoding/json writes one.
func (s *rowScan) float() {
	if !s.ok {
		return
	}
	tok := s.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	s.ok = err == nil && string(appendJSONFloat(buf[:0], v)) == string(tok)
}

// str consumes a string of plain bytes (see plainByte); a string that
// needs any escape is left to the decoder.
func (s *rowScan) str() {
	s.lit(`"`)
	if !s.ok {
		return
	}
	n := 0
	for n < len(s.b) && plainByte(s.b[n]) {
		n++
	}
	s.b = s.b[n:]
	s.lit(`"`)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in exponent form only outside [1e-6, 1e21),
// with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
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
