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
// every float is bit-identical.
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
// of n rows and a 500-row PATCH chunk, all d = 8. The reflect variant is
// the oracle, the decoder the handlers used before.
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
		b.Run(c.name+"/one-pass", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				if err := decodeOnce(r, c.body, c.target); err != nil {
					b.Fatal(err)
				}
			}
		})
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
