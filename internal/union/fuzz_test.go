package union

import (
	"math"
	"testing"

	"dynahist/internal/histogram"
)

// fuzzMembers decodes fuzz input into 1–4 valid member bucket lists.
// The first byte picks the member count and the value scale; every
// bucket then takes three bytes: the gap after its predecessor, its
// width, and its counter. Each member uses 1–3 sub-buckets, the way
// DC (1) and DVO/DADO (2–3) members look. The returned mass is the
// members' total count.
func fuzzMembers(data []byte) ([][]histogram.Bucket, float64) {
	if len(data) == 0 {
		return nil, 0
	}
	nMembers := int(data[0]%4) + 1
	scale := math.Pow(10, float64(data[0]/4%7)) // 1 … 1e6
	data = data[1:]
	members := make([][]histogram.Bucket, nMembers)
	mass := 0.0
	for i := 0; len(data) >= 3; i++ {
		m := i % nMembers
		subs := m%3 + 1
		left := float64(m) * scale / 3
		if bs := members[m]; len(bs) > 0 {
			left = bs[len(bs)-1].Right
		}
		left += float64(data[0]%4) * scale
		right := left + float64(data[1]%16+1)*scale
		b := histogram.Bucket{Left: left, Right: right, Subs: make([]float64, subs)}
		for j := range b.Subs {
			// Quarter counts cover the fractional counters DC
			// repartitioning and §8 superposition produce.
			b.Subs[j] = float64((int(data[2])+j*37)%256) / 4
			mass += b.Subs[j]
		}
		members[m] = append(members[m], b)
		data = data[3:]
	}
	out := members[:0]
	for _, m := range members {
		if len(m) > 0 {
			out = append(out, m)
		}
	}
	return out, mass
}

// checkUnion asserts the §8 invariants on a superposed or reduced
// bucket list: mass conserved to relative 1e-12, borders strictly
// increasing within and across buckets, and every counter finite and
// non-negative.
func checkUnion(t *testing.T, stage string, bs []histogram.Bucket, wantMass float64) {
	t.Helper()
	for i, b := range bs {
		if !(b.Left < b.Right) {
			t.Fatalf("%s: bucket %d has borders [%v, %v)", stage, i, b.Left, b.Right)
		}
		if i > 0 && b.Left < bs[i-1].Right {
			t.Fatalf("%s: bucket %d starts at %v, before its predecessor ends at %v",
				stage, i, b.Left, bs[i-1].Right)
		}
		for j, c := range b.Subs {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("%s: bucket %d counter %d is %v", stage, i, j, c)
			}
		}
	}
	if got := histogram.TotalCount(bs); math.Abs(got-wantMass) > 1e-12*wantMass {
		t.Fatalf("%s: mass %v, members hold %v (relative error %g)",
			stage, got, wantMass, math.Abs(got-wantMass)/wantMass)
	}
}

// FuzzSuperposeReduce superposes fuzzed member lists and reduces the
// union to a fuzzed budget, checking the §8 invariants after each
// step: no mass is lost or invented, the borders stay ordered, and no
// counter goes NaN or negative.
func FuzzSuperposeReduce(f *testing.F) {
	f.Add([]byte{0, 0, 3, 8}, uint8(1))
	f.Add([]byte{3, 1, 4, 200, 0, 2, 17, 2, 15, 0, 0, 0, 255, 3, 1, 9}, uint8(2))
	f.Add([]byte{26, 0, 15, 255, 0, 15, 255, 0, 15, 255, 0, 15, 255}, uint8(3))
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, budget uint8) {
		members, mass := fuzzMembers(data)
		if len(members) == 0 {
			return
		}
		u, err := Superpose(members...)
		if mass == 0 {
			if err == nil {
				t.Fatalf("superposing empty members gave %d buckets", len(u))
			}
			return
		}
		if err != nil {
			t.Fatalf("Superpose of valid members: %v", err)
		}
		checkUnion(t, "superpose", u, mass)

		n := int(budget)%len(u) + 1
		r, err := Reduce(u, n)
		if err != nil {
			t.Fatalf("Reduce to %d: %v", n, err)
		}
		if len(r) > n {
			t.Fatalf("Reduce to %d kept %d buckets", n, len(r))
		}
		checkUnion(t, "reduce", r, mass)
	})
}
