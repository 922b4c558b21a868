package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxBodyBytes bounds one request body; a dataset bigger than this cannot be
// admitted anyway (MaxPoints), so reading further would only buy memory
// pressure.
const maxBodyBytes = 64 << 20

// bodyChunk bounds what readBody allocates before the bytes to fill it have
// arrived, so a request that only declares a large Content-Length cannot
// reserve the memory.
const bodyChunk = 4 << 20

// decodeRequest reads a POST or PATCH body and decodes it into v, a *Spec or
// *appendRequest whose Points field is points. On failure it writes the
// error response itself (413 past maxBodyBytes, 400 otherwise) and reports
// false.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, v any, points *[][]float64) bool {
	body, err := readBody(w, r)
	if err == nil {
		err = decodeBody(body, v, points)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "decode "+what+": "+err.Error())
	return false
}

// readBody reads the whole body, refusing one longer than maxBodyBytes; a
// declared length over the cap is refused before anything is read. The
// buffer starts at the declared Content-Length plus the byte that observes
// EOF, but at most bodyChunk; past that it doubles as bytes arrive, and its
// last size is the declared one. A body sent without a length starts at
// 512 bytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	want := 512
	if r.ContentLength > 0 {
		want = int(r.ContentLength) + 1
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 0, min(want, bodyChunk))
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		case len(buf) == cap(buf):
			size := 2 * len(buf)
			if want > len(buf) {
				size = min(want, size)
			}
			buf = append(make([]byte, 0, size), buf...)
		}
	}
}

// decodeBody decodes one JSON body into v exactly as a json.Decoder with
// DisallowUnknownFields would, but parses the points straight into one flat
// array instead of through reflection. When the top-level object has one
// member whose key matches "points" the way encoding/json matches field
// names, parsePoints parses its value and the json.Decoder decodes the small
// rest of the body with that value replaced by null, so every other member
// keeps its exact semantics: unknown-field rejection, type errors, case
// folding, last duplicate wins, and bytes after the first value ignored. A
// body with several points members, which encoding/json decodes one after
// another into the same slices, goes to the json.Decoder whole.
func decodeBody(b []byte, v any, points *[][]float64) error {
	m, err := findPoints(b)
	if err != nil {
		return err
	}
	rest := b
	if m.found {
		rest = make([]byte, 0, len(b)-(m.end-m.start)+len("null"))
		rest = append(append(append(rest, b[:m.start]...), "null"...), b[m.end:]...)
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if m.found {
		*points = m.rows
	}
	return nil
}

// pointsMember is the parsed value of the one points member of a body,
// found at body[start:end].
type pointsMember struct {
	rows       [][]float64
	start, end int
	found      bool
}

// findPoints walks the members of the object b holds and parses the value
// of the one whose key is "points" up to case folding and escapes. It
// reports none found when b is not an object or has no such member or more
// than one. The other values are only skipped: on valid JSON the skip is
// exact, and on invalid JSON the first bad byte precedes any points value
// it could misplace, so the json.Decoder still meets it in the rest.
func findPoints(b []byte) (pointsMember, error) {
	var m pointsMember
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return m, nil
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return m, nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return m, syntaxError(b, i)
		}
		keyEnd := skipString(b, i)
		if keyEnd < 0 {
			return m, syntaxError(b, len(b))
		}
		key := b[i:keyEnd]
		if i = skipSpace(b, keyEnd); i >= len(b) || b[i] != ':' {
			return m, syntaxError(b, i)
		}
		start := skipSpace(b, i+1)
		switch {
		case !isPointsKey(key):
			i = skipValue(b, start)
		case m.found:
			return pointsMember{}, nil
		default:
			rows, end, err := parsePoints(b, start)
			if err != nil {
				return m, err
			}
			m = pointsMember{rows: rows, start: start, end: end, found: true}
			i = end
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return m, nil
		}
		return m, syntaxError(b, i)
	}
}

// isPointsKey reports whether the quoted key selects the points field:
// encoding/json decodes the escapes and then matches field names under
// Unicode simple case folding, which is strings.EqualFold.
func isPointsKey(quoted []byte) bool {
	if bytes.IndexByte(quoted, '\\') < 0 {
		return bytes.EqualFold(quoted[1:len(quoted)-1], []byte("points"))
	}
	var key string
	return json.Unmarshal(quoted, &key) == nil && strings.EqualFold(key, "points")
}

// parsePoints parses the points value at b[start], null or an array whose
// rows are null or arrays of JSON numbers and nulls, and returns its rows
// and the index past it. A first pass checks the grammar and counts; the
// second converts every number with parseNumber, bit-identical to the
// strconv.ParseFloat call encoding/json makes, into one backing array
// allocated at the counted size, and cuts the rows from it as
// flat[lo:hi:hi]. So a value that breaks the grammar allocates nothing, and
// a null element is 0, as it is in the fresh slices encoding/json decodes
// into.
func parsePoints(b []byte, start int) ([][]float64, int, error) {
	if isNull(b, start) {
		return nil, start + len("null"), nil
	}
	count := pointsParser{b: b, counting: true}
	end, err := count.array(start)
	if err != nil {
		return nil, 0, err
	}
	p := pointsParser{b: b, flat: make([]float64, 0, count.nvals), rows: make([][]float64, 0, count.nrows)}
	if _, err := p.array(start); err != nil {
		return nil, 0, err
	}
	return p.rows, end, nil
}

// pointsParser is one pass of parsePoints. A counting pass only checks the
// grammar and counts rows and numbers; the other fills flat and rows.
type pointsParser struct {
	b            []byte
	counting     bool
	nrows, nvals int
	flat         []float64
	rows         [][]float64
}

// array parses the array of rows at b[i] and returns the index past it.
func (p *pointsParser) array(i int) (int, error) {
	b := p.b
	if i >= len(b) || b[i] != '[' {
		return 0, pointsError(b, i)
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	for {
		var err error
		if i, err = p.row(i); err != nil {
			return 0, err
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return i + 1, nil
		}
		return 0, pointsError(b, i)
	}
}

// row parses one row at b[i] and returns the index past it.
func (p *pointsParser) row(i int) (int, error) {
	b := p.b
	p.nrows++
	if isNull(b, i) {
		if !p.counting {
			p.rows = append(p.rows, nil)
		}
		return i + len("null"), nil
	}
	if i >= len(b) || b[i] != '[' {
		return 0, pointsError(b, i)
	}
	lo := len(p.flat)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			var err error
			if i, err = p.element(i); err != nil {
				return 0, err
			}
			if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			return 0, pointsError(b, i)
		}
	}
	if !p.counting {
		hi := len(p.flat)
		p.rows = append(p.rows, p.flat[lo:hi:hi])
	}
	return i, nil
}

// maxQuotedNumber bounds how much of a number that does not fit a float64
// its error quotes: the number can be as long as the body.
const maxQuotedNumber = 32

// element parses one number or null of a row. The counting pass checks the
// number's grammar; the fill pass converts it.
func (p *pointsParser) element(i int) (int, error) {
	b := p.b
	p.nvals++
	if isNull(b, i) {
		if !p.counting {
			p.flat = append(p.flat, 0)
		}
		return i + len("null"), nil
	}
	if p.counting {
		end := numberEnd(b, i)
		if end < 0 {
			return 0, pointsError(b, i)
		}
		return end, nil
	}
	f, end, ok := parseNumber(b, i)
	if !ok {
		num := b[i:end]
		if len(num) > maxQuotedNumber {
			return 0, fmt.Errorf("points: %d-byte number %s... at offset %d does not fit a float64", len(num), num[:maxQuotedNumber], i)
		}
		return 0, fmt.Errorf("points: number %s at offset %d does not fit a float64", num, i)
	}
	p.flat = append(p.flat, f)
	return end, nil
}

// numberEnd returns the index just past the JSON number at b[i], or -1 when
// b[i] does not start one. JSON is stricter than strconv: no sign but a
// leading '-', no leading zeros, digits on both sides of '.', no NaN or Inf.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func isNull(b []byte, i int) bool {
	return i+len("null") <= len(b) && string(b[i:i+len("null")]) == "null"
}

// skipString returns the index past the string whose opening quote is at
// b[i], or -1 when it is unterminated.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the index past the JSON value starting at b[i], tracking
// only strings and bracket depth; the json.Decoder validates what it skips.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i = skipString(b, i); i < 0 {
				return len(b)
			}
			if depth == 0 {
				return i
			}
			i--
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}

// syntaxError reports malformed JSON at b[i].
func syntaxError(b []byte, i int) error {
	if i >= len(b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", b[i], i)
}

// pointsError reports a points value that is malformed or not null or an
// array of rows of numbers.
func pointsError(b []byte, i int) error {
	return fmt.Errorf("points: %w (want null or an array of rows of numbers)", syntaxError(b, i))
}
