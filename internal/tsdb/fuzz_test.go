package tsdb

import (
	"encoding/binary"
	"math"
	"testing"

	"tmo/internal/metrics"
	"tmo/internal/vclock"
)

// codecSample encodes one fuzz record: a 4-byte timestamp and the 8 bytes of
// a float64's IEEE-754 bits.
func codecSample(t uint32, v float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, t)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// FuzzTSDBCodec appends a decoded sample sequence to one series through
// DB.Append and checks that DB.All returns every timestamp and every value
// bit for bit — NaN payloads, ±Inf, −0 and integers near 2^53 included.
// Timestamps are arbitrary non-negative uint32s, so some go backwards and
// must come back clamped to the previous sample's.
func FuzzTSDBCodec(f *testing.F) {
	seq := func(vs ...float64) []byte {
		var b []byte
		for i, v := range vs {
			b = append(b, codecSample(uint32(i*30), v)...)
		}
		return b
	}
	const big = 1<<53 - 1
	f.Add(seq(0, 1, math.Copysign(0, -1), 2, math.Copysign(0, -1), math.Copysign(0, -1)))
	f.Add(seq(math.NaN(), 3, math.Inf(1), 4, math.Inf(-1), math.Float64frombits(0x7ff8000000000123)))
	f.Add(seq(big, -big, big, 1<<53, -(1 << 53), big-1, 0.5, -big))
	f.Add(append(codecSample(500, 7), append(codecSample(100, 8), codecSample(900, 9)...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in, want []metrics.Point
		for ; len(data) >= 12; data = data[12:] {
			p := metrics.Point{
				T: vclock.Time(binary.LittleEndian.Uint32(data)),
				V: math.Float64frombits(binary.LittleEndian.Uint64(data[4:])),
			}
			in = append(in, p)
			if n := len(want); n > 0 && p.T < want[n-1].T {
				p.T = want[n-1].T
			}
			want = append(want, p)
		}
		got := points(t, in)
		if len(got) != len(want) {
			t.Fatalf("read back %d points, want %d", len(got), len(want))
		}
		for i, p := range want {
			if got[i].T != p.T || math.Float64bits(got[i].V) != math.Float64bits(p.V) {
				t.Fatalf("point %d = (%v, %x), want (%v, %x)",
					i, got[i].T, math.Float64bits(got[i].V), p.T, math.Float64bits(p.V))
			}
		}
	})
}
