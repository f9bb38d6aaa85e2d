package codec

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecode drives arbitrary payload fields — hostile floats, mismatched
// lengths, out-of-range indices — through every registry decode path and
// asserts the wire invariant: any successful decode returns a gradient of
// exactly the declared dimension; everything else errors. (A decode does
// not screen values: a NaN in the payload is a NaN in the gradient, for the
// receiver's screen to refuse.) The same payload decoded into a dirty
// destination — NaN-filled, one value short of, exactly or one past the
// declared dimension — must return the same bits, or fail too.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(0), 4, int64(0), 4, []byte{})
	f.Add(uint8(1), 8, int64(0), 2, []byte{0, 0, 0, 0, 0, 0, 0x24, 0x40})
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(2), 3, int64(math.Float64bits(math.NaN())), 4, nan)
	f.Add(uint8(2), 2, int64(math.Float64bits(1e308)), 1, []byte{127, 1})
	f.Add(uint8(3), 16, int64(0), 0, []byte{0xff, 0x00})
	reg := Builtin()
	names := []string{Identity, TopK, QSGD, SignSGD}
	f.Fuzz(func(t *testing.T, which uint8, dim int, scaleBits int64, levels int, data []byte) {
		if dim < 0 || dim > 1<<12 {
			return
		}
		e := Encoded{Codec: names[int(which)%len(names)], Dim: dim}
		switch e.Codec {
		case Identity:
			e.Dense = bytesToFloats(data)
		case TopK:
			// Interleave: 4 bytes of index, 8 bytes of value per entry.
			for len(data) >= 12 {
				e.Idx = append(e.Idx, int32(binary.LittleEndian.Uint32(data[:4])))
				e.Val = append(e.Val, math.Float64frombits(binary.LittleEndian.Uint64(data[4:12])))
				data = data[12:]
			}
		case QSGD:
			e.Scale = math.Float64frombits(uint64(scaleBits))
			e.Levels = levels
			e.Q = make([]int8, len(data))
			for i, b := range data {
				e.Q[i] = int8(b)
			}
		case SignSGD:
			e.Sign = data
		}
		out, err := reg.Decode(e)
		dst := make([]float64, max(0, dim-1+int(which/4)%3))
		for i := range dst {
			dst[i] = math.NaN()
		}
		dout, derr := reg.Decode(e.WithDst(dst))
		if (err == nil) != (derr == nil) {
			t.Fatalf("%s: decode error %v, into a %d-value destination %v", e.Codec, err, len(dst), derr)
		}
		if err != nil {
			return
		}
		if len(dout) != len(out) {
			t.Fatalf("%s: decoded %d values, into a %d-value destination %d", e.Codec, len(out), len(dst), len(dout))
		}
		for i := range out {
			if math.Float64bits(dout[i]) != math.Float64bits(out[i]) {
				t.Fatalf("%s: value %d decodes to %v, into a %d-value destination %v", e.Codec, i, out[i], len(dst), dout[i])
			}
		}
		if len(out) != e.Dim {
			t.Fatalf("%s: decoded %d values for declared dim %d", e.Codec, len(out), e.Dim)
		}
	})
}

// bytesToFloats reinterprets a fuzz buffer as little-endian float64s.
func bytesToFloats(data []byte) []float64 {
	out := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	return out
}

// floatsToBytes is the inverse of bytesToFloats.
func floatsToBytes(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// FuzzTopKEncodeMatchesReference holds the selection-based encodeTopK to
// the sort-based referenceTopK on arbitrary gradients: a finite input
// must produce the reference payload bit for bit, an input with a NaN or
// ±Inf coordinate anywhere must be refused with an error. coarse reads
// one small signed value per byte — zeros, repeated magnitudes and ±v
// pairs, the inputs that stress the tie rule — instead of one float64 per
// eight bytes. The checked-in corpus (testdata/fuzz) holds the inputs long
// enough to reach every digit of the radix select and the non-finite
// refusals; the seeds below add one exponent shared by every coordinate
// and the ends of the bit range.
func FuzzTopKEncodeMatchesReference(f *testing.F) {
	f.Add([]byte{}, 0, false)
	f.Add([]byte{3, 253, 3, 3, 0, 128, 1, 255, 0, 0, 7, 249}, 2, true)
	oneExp, extremes := make([]float64, 64), make([]float64, 64)
	for i := range oneExp {
		oneExp[i] = 1 + float64(i*37%64)/64
		extremes[i] = bitExtremes(i * 131)
	}
	f.Add(floatsToBytes(oneExp), 7, false)
	f.Add(floatsToBytes(extremes), 9, false)
	f.Fuzz(func(t *testing.T, data []byte, k int, coarse bool) {
		var grad []float64
		if coarse {
			grad = make([]float64, len(data))
			for i, b := range data {
				grad[i] = float64(int8(b)) / 4
			}
		} else {
			grad = bytesToFloats(data)
		}
		if k < 0 || k > len(grad)+1 {
			k = topKKeep(len(grad))
		}
		k = min(max(k, 1), len(grad))
		for _, v := range grad {
			if !finite(v) {
				if _, err := encodeTopK(grad, k); err == nil {
					t.Fatalf("non-finite gradient %v encoded without an error", grad)
				}
				return
			}
		}
		checkMatchesReference(t, grad, k)
	})
}
