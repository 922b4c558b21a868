// eiselLemire follows eiselLemire64 in Go's strconv/eisel_lemire.go, which
// carries this notice (the LICENSE file it names is the Go distribution's):
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package jobs

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseNumber converts the JSON number at b[i] and returns it with the index
// past it, which is numberEnd(b, i) whenever that is not -1; ok is false
// when the number does not fit a float64. The result is bit-identical to
// strconv.ParseFloat's, the call encoding/json makes. The digits fold into a
// mantissa and a decimal exponent exactly as in strconv's readFloat: leading
// zeros skipped, digits past the 19th dropped and noted in trunc, exponent
// digits no longer accumulated once the exponent reaches 10,000. So
// eiselLemire receives the arguments strconv would give it, and where it
// cannot decide, the number's bytes go to strconv.ParseFloat.
func parseNumber(b []byte, i int) (f float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10 := 0, 0 // digits in man from the first nonzero one; man×10^exp10
	trunc := false
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || b[i] != '0'
			}
		}
	}
	if i < len(b) && b[i] == '.' {
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				exp10--
				if man != 0 {
					nd++
				}
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		exp10 += sign * e
	}
	f, ok = eiselLemire(man, exp10, neg)
	if ok && trunc {
		// The dropped digits put the number between man and man+1; the
		// result holds only if both ends round to it.
		up, upOK := eiselLemire(man+1, exp10, neg)
		ok = upOK && math.Float64bits(up) == math.Float64bits(f)
	}
	if !ok {
		var err error
		f, err = strconv.ParseFloat(string(b[start:i]), 64)
		ok = err == nil
	}
	return f, i, ok
}

// eiselLemire returns the float64 nearest to man×10^exp10, negated when neg,
// by Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
// arXiv:2101.11408). ok is false when the 128-bit product cannot decide the
// rounding or the result is subnormal, infinite or out of the table's range.
// As in Go's source, the step comments name the sections of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen[exp10-minExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: zero or wrapped below it is subnormal, 0x7FF
	// or above is Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// minExp10 and maxExp10 are the powers of ten powersOfTen holds.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powersOfTen[q-minExp10] is 10^q as {low, high} 64 bits of a 128-bit
// mantissa with its top bit set, rounded down: the table strconv's
// Eisel–Lemire reads, computed here once from math/big.
var powersOfTen = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	var buf [16]byte
	put := func(q int, m *big.Int) {
		m.FillBytes(buf[:])
		t[q-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten, one := big.NewInt(10), big.NewInt(1)
	p, m := big.NewInt(1), new(big.Int) // p = 10^q
	for q := 0; q <= -minExp10; q++ {
		if q <= maxExp10 {
			// The top 128 bits of 10^q.
			if shift := p.BitLen() - 128; shift >= 0 {
				put(q, m.Rsh(p, uint(shift)))
			} else {
				put(q, m.Lsh(p, uint(-shift)))
			}
		}
		if q > 0 {
			// 10^q is not a power of two, so ⌊2^(127+L)/10^q⌋ with
			// L = 10^q's bit length lies in [2^127, 2^128).
			put(-q, m.Quo(m.Lsh(one, uint(127+p.BitLen())), p))
		}
		p.Mul(p, ten)
	}
	return t
}()
