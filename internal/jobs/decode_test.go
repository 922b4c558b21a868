package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"multiclust/internal/parallel"
)

// oracleDecode is the reflection decoder the job handlers used before
// decodeBody; it stays here as the reference the fuzz targets compare
// against.
func oracleDecode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkDecode decodes body with decodeBody and with the oracle and fails
// unless both accept or both reject, and, when they accept, unless the
// decoded values are deeply equal (nil versus empty slices included) and
// every float is bit-identical. It then parses the body's points member
// again with its rows cut into up to 3 segments of at least one byte, so
// that bodies far below minSegment take the split path too.
func checkDecode[T any](t *testing.T, body []byte, points func(*T) *[][]float64) {
	t.Helper()
	var got, want T
	gotErr := decodeBody(body, &got, points(&got))
	wantErr := oracleDecode(bytes.NewReader(body), &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decodeBody error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr == nil && (!reflect.DeepEqual(got, want) || !sameBits(*points(&got), *points(&want))) {
		t.Fatalf("body %q:\ndecodeBody    %#v\nencoding/json %#v", body, got, want)
	}
	checkSplit(t, body, 3)
}

// cutInto is parsePoints with the rows cut into at most n segments of at
// least one byte.
func cutInto(n int) func([]byte, int) ([][]float64, int, error) {
	return func(b []byte, start int) ([][]float64, int, error) { return parseSegments(b, start, n, 1) }
}

// checkSplit fails unless findPoints with the rows cut into at most n
// segments returns what it returns with parsePoints: the same error text,
// or the same member, its rows deeply equal (nil versus empty included)
// and bit-identical, at the same offsets.
func checkSplit(t *testing.T, body []byte, n int) {
	t.Helper()
	want, wantErr := findPoints(body, parsePoints)
	got, gotErr := findPoints(body, cutInto(n))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) || !sameBits(got.rows, want.rows) {
		t.Fatalf("body %q cut into %d segments:\ngot  %#v, error %v\nwant %#v, error %v", body, n, got, gotErr, want, wantErr)
	}
}

func sameBits(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzSubmitSpec checks the POST body decoder against encoding/json on
// arbitrary bodies; the seed corpus in testdata/fuzz covers key folding,
// duplicate points members, the JSON number grammar, the numbers
// parseNumber hands to strconv, and trailing bytes.
func FuzzSubmitSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, func(s *Spec) *[][]float64 { return &s.Points })
	})
}

// FuzzAppend is FuzzSubmitSpec for the PATCH chunk body.
func FuzzAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, func(r *appendRequest) *[][]float64 { return &r.Points })
	})
}

// TestParseSegmentsMatchesSerial parses points values with their rows cut
// into 1, 2, 3, 4 and 8 segments of at least one byte. Every cut must give
// the serial parse's rows, end offset and error text, and every cut of two
// or more must really split the value's bytes.
func TestParseSegmentsMatchesSerial(t *testing.T) {
	const pre = `{"points":`
	// eight rows of one number each, row j replaced by row
	rows8 := func(j int, row string) string {
		r := []string{"[1]", "[2]", "[3]", "[4]", "[5]", "[6]", "[7]", "[8]"}
		r[j] = row
		return "[" + strings.Join(r, ",") + "]"
	}
	// the errors for the first byte of bad in value, and for its 1e400
	grammar := func(value, bad string) string {
		return fmt.Sprintf("points: invalid character %q at offset %d (want null or an array of rows of numbers)", bad[0], len(pre)+strings.Index(value, bad))
	}
	overflow := func(value string) string {
		return fmt.Sprintf("points: number 1e400 at offset %d does not fit a float64", len(pre)+strings.Index(value, "1e400"))
	}
	type tc struct {
		name, value, rest string
		rows              [][]float64 // when err is empty
		err               string
	}
	cases := []tc{
		{name: "space around cuts", value: "[ [1, 2] ,\n [3,4]\r\n,\t[5,6] , [7 ,8 ]\n]", rest: "}",
			rows: [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}},
		{name: "null and empty rows", value: "[null,[1],[],null,[2,null],[],null]", rest: "}",
			rows: [][]float64{nil, {1}, {}, nil, {2, 0}, {}, nil}},
		{name: "cut in a later member", value: "[[1],[2]]", rest: `,"x":[[3],[4]]}`,
			rows: [][]float64{{1}, {2}}},
		{name: "unterminated", value: "[[1],[2],[3],", err: "points: unexpected end of JSON input (want null or an array of rows of numbers)"},
	}
	for j := 0; j < 8; j++ {
		v := rows8(j, "[-]")
		cases = append(cases, tc{name: fmt.Sprintf("bad number in row %d", j), value: v, rest: "}", err: grammar(v, "-")})
	}
	v := rows8(5, "nul")
	cases = append(cases, tc{name: "bad null row", value: v, rest: "}", err: grammar(v, "nul")})
	v = rows8(3, "[4] [9]")
	cases = append(cases, tc{name: "missing comma", value: v, rest: "}", err: grammar(v, "[9]")})
	v = rows8(7, "[1e400]")
	cases = append(cases, tc{name: "1e400 in the last row", value: v, rest: "}", err: overflow(v)})
	v = strings.Replace(rows8(6, "[1e400]"), "[2]", "[1e400]", 1)
	cases = append(cases, tc{name: "two numbers that do not fit", value: v, rest: "}", err: overflow(v)})
	v = rows8(1, "[1e400]")
	v = strings.Replace(v, "[7]", "[-]", 1)
	cases = append(cases, tc{name: "bad number after one that does not fit", value: v, rest: "}", err: grammar(v, "-")})

	for _, c := range cases {
		body := []byte(pre + c.value + c.rest)
		for _, n := range []int{1, 2, 3, 4, 8} {
			if segs := splitRows(body, skipSpace(body, len(pre)+1), n); n > 1 && len(segs) < 2 {
				t.Fatalf("%s: %d segments asked for, %d cut", c.name, n, len(segs))
			}
			rows, end, err := parseSegments(body, len(pre), n, 1)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("%s, %d segments: error %v, want %s", c.name, n, err, c.err)
				}
				continue
			}
			if err != nil || end != len(pre)+len(c.value) || !reflect.DeepEqual(rows, c.rows) {
				t.Fatalf("%s, %d segments: rows %#v, end %d, error %v; want %#v, end %d", c.name, n, rows, end, err, c.rows, len(pre)+len(c.value))
			}
		}
	}
}

// TestDecodeSplitsLargeBody decodes a spec of over 64 kB, which the default
// worker count on a host with several cores cuts into segments, so that
// the race detector sees both dispatches; the same body with a number that
// does not fit in its last row must fail with the serial error.
func TestDecodeSplitsLargeBody(t *testing.T) {
	body := mustMarshal(t, Spec{Algo: "kmeans", K: 8, Seed: 1, Points: decodeRows(1500, 8)})
	if len(body) < 64<<10 {
		t.Fatalf("body is %d bytes, want at least 64 kB", len(body))
	}
	end := bytes.LastIndex(body, []byte("]]"))
	overflow := append(append(append([]byte{}, body[:end]...), ",1e400"...), body[end:]...)
	for _, b := range [][]byte{body, overflow} {
		checkDecode(t, b, func(s *Spec) *[][]float64 { return &s.Points })
		checkSplit(t, b, 4)
	}
}

// decodeRows is an n×d dataset with values of the digit length json.Marshal
// writes for real measurements.
func decodeRows(n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64((i*131+j*37)%1009)/7.3 - 60
		}
	}
	return rows
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newSpec() (any, *[][]float64) {
	var s Spec
	return &s, &s.Points
}

func newChunk() (any, *[][]float64) {
	var r appendRequest
	return &r, &r.Points
}

// decodeOnce runs body through the handlers' read and decode steps.
func decodeOnce(r *http.Request, body []byte, target func() (any, *[][]float64)) error {
	r.Body = io.NopCloser(bytes.NewReader(body))
	v, points := target()
	rr := httptest.NewRecorder()
	if !decodeRequest(rr, r, "body", v, points) {
		return fmt.Errorf("status %d: %s", rr.Code, rr.Body.Bytes())
	}
	return nil
}

func TestDecodeAllocsBounded(t *testing.T) {
	body := mustMarshal(t, Spec{Algo: "kmeans", K: 8, Seed: 1, Points: decodeRows(8000, 8)})
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	var err error
	allocs := testing.AllocsPerRun(5, func() { err = decodeOnce(r, body, newSpec) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 100 {
		t.Fatalf("decoding an 8000×8 spec allocates %.0f times, want < 100", allocs)
	}
}

// BenchmarkDecodeSpec times reading and decoding a request body: POST specs
// of n rows and a 500-row PATCH chunk, all d = 8. The one-pass variants
// decode with the default worker count set to 1 and to 2, so w1 parses
// every body as one segment; the reflect variant is the oracle, the
// decoder the handlers used before.
func BenchmarkDecodeSpec(b *testing.B) {
	for _, c := range []struct {
		name   string
		body   []byte
		target func() (any, *[][]float64)
	}{
		{"n=300", mustMarshal(b, Spec{Algo: "kmeans", K: 8, Seed: 1, Points: decodeRows(300, 8)}), newSpec},
		{"n=8000", mustMarshal(b, Spec{Algo: "kmeans", K: 8, Seed: 1, Points: decodeRows(8000, 8)}), newSpec},
		{"chunk=500", mustMarshal(b, appendRequest{Points: decodeRows(500, 8)}), newChunk},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(c.body))
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/one-pass/w%d", c.name, w), func(b *testing.B) {
				defer parallel.SetDefault(parallel.Default())
				parallel.SetDefault(w)
				b.ReportAllocs()
				b.SetBytes(int64(len(c.body)))
				for i := 0; i < b.N; i++ {
					if err := decodeOnce(r, c.body, c.target); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(c.name+"/reflect", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				v, _ := c.target()
				body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(c.body)), maxBodyBytes)
				if err := oracleDecode(body, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeDuplicatePointsLinear decodes a body with two points members of
// 10^5 nulls each. Such a body goes to encoding/json whole, which is linear
// in its length; merging the members null by null, position against
// position, would be quadratic (about 5·10^9 steps here).
func TestDecodeDuplicatePointsLinear(t *testing.T) {
	const n = 100_000
	row := "[null" + strings.Repeat(",null", n-1) + "]"
	body := []byte(`{"points":[` + row + `],"POINTS":[` + row + `,[1]]}`)
	var got, want Spec
	start := time.Now()
	err := decodeBody(body, &got, &got.Points)
	took := time.Since(start)
	if err != nil || oracleDecode(bytes.NewReader(body), &want) != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate points members: decodeBody error %v, or a result unlike encoding/json's", err)
	}
	if took > 2*time.Second {
		t.Fatalf("decoding %d bytes with duplicate points members took %v", len(body), took)
	}
}

// TestDecodeInvalidPointsAllocatesLittle decodes 4 MB bodies whose points
// value breaks the grammar a few bytes in, or never ends. Each must be
// rejected without allocating in proportion to its length: the backing
// array is sized only after the whole value has been checked.
func TestDecodeInvalidPointsAllocatesLittle(t *testing.T) {
	const size = 4 << 20
	for _, c := range []struct{ name, prefix, fill string }{
		{"bare-letters", `{"points":[`, "n"},
		{"empty-elements", `{"points":[[`, ","},
		{"unterminated", `{"points":[[0`, ",0"},
		{"unterminated-rows", `{"points":[[0]`, ",[0]"},
	} {
		body := []byte(c.prefix + strings.Repeat(c.fill, (size-len(c.prefix))/len(c.fill)))
		var err error
		alloc := allocBytes(func() {
			var s Spec
			err = decodeBody(body, &s, &s.Points)
		})
		if err == nil {
			t.Fatalf("%s: decodeBody accepted an invalid body", c.name)
		}
		if alloc > size/16 {
			t.Fatalf("%s: rejecting a %d-byte body allocated %d bytes", c.name, len(body), alloc)
		}
	}
}

// TestReadBody reads bodies around the buffer's growth points, with and
// without a declared length and in short reads, and checks a request that
// declares the largest admissible length but sends two bytes reserves at
// most bodyChunk.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 70_000, bodyChunk, bodyChunk + 1} {
		want := bytes.Repeat([]byte("0123456789"), n/10+1)[:n]
		for _, declared := range []bool{true, false} {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", iotest.HalfReader(bytes.NewReader(want)))
			if declared {
				r.ContentLength = int64(n)
			}
			got, err := readBody(httptest.NewRecorder(), r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d bytes, length declared %v: read %d bytes, error %v", n, declared, len(got), err)
			}
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("{}"))
	r.ContentLength = maxBodyBytes
	var err error
	alloc := allocBytes(func() { _, err = readBody(httptest.NewRecorder(), r) })
	if err != nil || alloc > bodyChunk+64<<10 {
		t.Fatalf("declared %d bytes, sent 2: error %v, allocated %d bytes, want at most about %d", maxBodyBytes, err, alloc, bodyChunk)
	}
}
