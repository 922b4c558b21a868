package jobs

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkNumber converts s, followed by a byte that ends a JSON number, and
// fails unless parseNumber stops where numberEnd does and agrees with
// strconv.ParseFloat: the same bits, or a rejection where strconv errs.
// It returns parseNumber's value and ok.
func checkNumber(t *testing.T, s string) (float64, bool) {
	t.Helper()
	b := []byte(s + ",")
	if numberEnd(b, 0) != len(s) {
		t.Fatalf("%.80q is not one JSON number", s)
	}
	got, end, ok := parseNumber(b, 0)
	want, err := strconv.ParseFloat(s, 64)
	if end != len(s) || ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%.80q: parseNumber = %v (%#x), end %d, ok %v; strconv.ParseFloat = %v (%#x), error %v",
			s, got, math.Float64bits(got), end, ok, want, math.Float64bits(want), err)
	}
	return got, ok
}

// exponentCapQuirk is 10^-15001 × 10^150100 written so that strconv stops
// accumulating the exponent at 15010: it parses to 1e9, in encoding/json
// too.
var exponentCapQuirk = "0." + strings.Repeat("0", 15000) + "1e150100"

// namedNumbers are the inputs Eisel–Lemire hands back to strconv, or that
// sit at a float64 boundary, with the value each must parse to; reject
// marks a number that does not fit a float64.
var namedNumbers = []struct {
	in     string
	want   float64
	reject bool
}{
	{in: "-0", want: math.Copysign(0, -1)},
	{in: "0e99999999999999999999", want: 0},
	{in: "1e99999999999999999999", reject: true},
	{in: "-1e400", reject: true},
	{in: "1.7976931348623157e308", want: math.MaxFloat64},
	{in: "1.7976931348623159e308", reject: true},
	{in: "4.9e-324", want: math.SmallestNonzeroFloat64},
	{in: "2.4703282292062328e-324", want: math.SmallestNonzeroFloat64},
	{in: "2.4703282292062327e-324", want: 0},
	{in: "2.2250738585072011e-308", want: math.Float64frombits(0x000FFFFFFFFFFFFF)},
	{in: "9007199254740993", want: 1 << 53},       // halfway, rounds to even
	{in: "9007199254740995", want: 1<<53 + 4},     // halfway, rounds to even
	{in: "1e23", want: 1e23},                      // inexact in binary, the classic misrounding
	{in: "1180591620717411434496", want: 1 << 70}, // halfway, 22 digits
	{in: "1180591620717411434497", want: 1<<70 + 1<<18},
	{in: "1234567890123456789012345", want: 1234567890123456789012345},
	{in: "0.1234567890123456789012345e-5", want: 0.1234567890123456789012345e-5},
	{in: exponentCapQuirk, want: 1e9},
}

func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, c := range namedNumbers {
		got, ok := checkNumber(t, c.in)
		if ok == c.reject || ok && math.Float64bits(got) != math.Float64bits(c.want) {
			t.Fatalf("%.80q = %v, ok %v; want %v, rejected %v", c.in, got, ok, c.want, c.reject)
		}
	}

	rng := rand.New(rand.NewSource(18))
	// Float64 bit patterns, in the forms strconv and encoding/json write.
	for range 100_000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkNumber(t, strconv.FormatFloat(f, 'g', -1, 64))
		checkNumber(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		if math.Abs(f) < 1e30 {
			checkNumber(t, strconv.FormatFloat(f, 'f', -1, 64))
		}
	}
	// Measurements as json.Marshal writes them.
	for range 50_000 {
		b, err := json.Marshal(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20)))
		if err != nil {
			t.Fatal(err)
		}
		checkNumber(t, string(b))
	}
	// Random digit strings of up to 55 digits, many past the 19 that fold.
	for range 50_000 {
		checkNumber(t, randomNumber(rng))
	}
	// Exact halfway points between neighbouring float64s, and numbers just
	// above and below them that differ only past the 19th digit.
	for range 4_000 {
		f := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(math.Log10(f)) > 30 {
			continue
		}
		mant, exp, _ := strings.Cut(halfwayAbove(f), "e")
		mant = strings.TrimRight(mant, "0") // a binary fraction's last digit is 5
		checkNumber(t, mant+"e"+exp)
		checkNumber(t, mant+"001e"+exp)
		checkNumber(t, mant[:len(mant)-1]+"4999e"+exp)
	}
}

// randomNumber is a JSON number of 1 to 55 random digits, a random point
// and an exponent within ±350.
func randomNumber(rng *rand.Rand) string {
	digits := make([]byte, 1+rng.Intn(55))
	for i := range digits {
		digits[i] = byte('0' + rng.Intn(10))
	}
	dot := rng.Intn(len(digits) + 1)
	intPart := strings.TrimLeft(string(digits[:dot]), "0")
	if intPart == "" {
		intPart = "0"
	}
	var s strings.Builder
	if rng.Intn(2) == 0 {
		s.WriteByte('-')
	}
	s.WriteString(intPart)
	if dot < len(digits) {
		s.WriteString("." + string(digits[dot:]))
	}
	if rng.Intn(4) > 0 {
		s.WriteString("e" + strconv.Itoa(rng.Intn(701)-350))
	}
	return s.String()
}

// halfwayAbove writes the exact decimal midway between f, positive, finite
// and within 10^±30, and the next float64 up, in 'e' form with every digit.
func halfwayAbove(f float64) string {
	next := math.Nextafter(f, math.Inf(1))
	var sum big.Float
	sum.SetPrec(2000).Add(big.NewFloat(f), big.NewFloat(next))
	sum.Quo(&sum, big.NewFloat(2))
	return sum.Text('e', 200)
}

// TestPowersOfTenRows pins rows of the table against strconv's.
func TestPowersOfTenRows(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[c.q-minExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d = {%#x, %#x}, want {%#x, %#x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
}

// FuzzParseNumber checks parseNumber against strconv.ParseFloat on every
// input that is one whole JSON number.
func FuzzParseNumber(f *testing.F) {
	for _, c := range namedNumbers {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if numberEnd([]byte(s), 0) == len(s) {
			checkNumber(t, s)
		}
	})
}
