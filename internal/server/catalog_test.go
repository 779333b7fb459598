package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynahist"
	"dynahist/internal/core"
	"dynahist/internal/wire"
)

// newFilledEntry registers one histogram and ingests n integers from
// [0, domain) into it, returning the entry and the largest value
// ingested.
func newFilledEntry(t *testing.T, family string, shards, n, domain int) (*entry, float64) {
	t.Helper()
	reg := NewRegistry()
	name := "exact-" + family
	if _, err := reg.Create(wire.CreateRequest{Name: name, Family: family, MemBytes: 512, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get(name)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]float64, n)
	maxV := 0.0
	for i := range vs {
		vs[i] = float64((i * 7919) % domain)
		maxV = max(maxV, vs[i])
	}
	if err := e.h.InsertBatch(vs); err != nil {
		t.Fatal(err)
	}
	return e, maxV
}

// assertExactCount checks the paper's count invariant on h: the total
// is exactly the number of points ingested, and the CDF reaches
// exactly 1 once every point lies at or below x (a value v occupies
// [v, v+1) under the integer convention, so x is the largest value
// plus one).
func assertExactCount(t *testing.T, label string, h dynahist.Histogram, n int, maxV float64) {
	t.Helper()
	if got := h.Total(); got != float64(n) {
		t.Errorf("%s: Total = %v, want exactly %d", label, got, n)
	}
	if got := h.CDF(maxV + 1); got != 1 {
		t.Errorf("%s: CDF(max) = %v, want exactly 1", label, got)
	}
}

// TestExactCountKindMatrix holds the count invariant through every
// composition this layer performs, for every maintained family at one
// and at four shards: the live engine, a Snapshot → Restore round
// trip, and a catalog EncodeEntry → DecodeEntry round trip.
func TestExactCountKindMatrix(t *testing.T) {
	const n = 5000
	for _, family := range []string{FamilyDADO, FamilyDVO, FamilyDC, FamilyAC} {
		for _, shards := range []int{1, 4} {
			e, maxV := newFilledEntry(t, family, shards, n, 1000)
			label := fmt.Sprintf("%s/%d shards", family, shards)
			assertExactCount(t, label+" live", e.h, n, maxV)

			blob, err := e.h.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := dynahist.Restore(blob)
			if err != nil {
				t.Fatalf("%s: Restore: %v", label, err)
			}
			assertExactCount(t, label+" restored", restored, n, maxV)

			data, err := EncodeEntry(e, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeEntry(data)
			if err != nil {
				t.Fatalf("%s: DecodeEntry: %v", label, err)
			}
			assertExactCount(t, label+" catalog", decoded.h, n, maxV)
		}
	}
}

// TestCatalogGoldenV5 decodes catalog files written by an earlier
// build of EncodeEntry (testdata/catalog_v5: two shards, 1000 points,
// covered LSN 77, site watermark 9001). The v5 layout and the envelope
// inside it are frozen formats: the files must keep decoding, and
// re-encoding the decoded entry must reproduce them byte for byte.
func TestCatalogGoldenV5(t *testing.T) {
	for _, family := range []string{FamilyDADO, FamilyDVO, FamilyDC, FamilyAC} {
		name := "golden-" + family
		data, err := os.ReadFile(filepath.Join("testdata", "catalog_v5", name+CatalogExt))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: DecodeEntry: %v", name, err)
		}
		if e.name != name || e.memBytes != 512 || e.shards != 2 || e.walLSN != 77 || e.siteWM.Load() != 9001 {
			t.Errorf("%s: decoded %q mem %d shards %d lsn %d wm %d",
				name, e.name, e.memBytes, e.shards, e.walLSN, e.siteWM.Load())
		}
		if got := e.kind().String(); got != family {
			t.Errorf("%s: member kind %q, want %q", name, got, family)
		}
		if got := e.h.Total(); got != 1000 {
			t.Errorf("%s: Total = %v, want exactly 1000", name, got)
		}
		again, err := EncodeEntry(e, 77, 9001)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded entry changed the file (%d → %d bytes)",
				name, len(data), len(again))
		}
	}
}

// TestCatalogOldVersionsRejected checks that DecodeEntry reads only
// the current version: files in the layouts of versions 2–4 (and any
// other version stamp) are rejected with ErrCatalog rather than
// decoded. TestDecodeEntryV1 covers the version 1 layout.
func TestCatalogOldVersionsRejected(t *testing.T) {
	e, _ := newFilledEntry(t, FamilyDADO, 1, 10, 10)
	v5, err := EncodeEntry(e, 77, 9001)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(b []byte, version uint16) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint16(out[4:], version)
		return out
	}
	// The v5 blob ends with a zero-length feedback journal; v4 lacked
	// the journal field, v3 also the site watermark, v2 also the
	// covered LSN.
	cut := 4 + 2 + 2 + len(e.name) + 4 + 8
	v4 := stamp(v5[:len(v5)-4], 4)
	v3 := stamp(append(append([]byte(nil), v4[:cut+8]...), v4[cut+16:]...), 3)
	v2 := stamp(append(append([]byte(nil), v4[:cut]...), v4[cut+16:]...), 2)

	cases := map[string][]byte{
		"v2 layout": v2, "v3 layout": v3, "v4 layout": v4,
		"v5 stamped 4": stamp(v5, 4), "v5 stamped 6": stamp(v5, 6), "v5 stamped 0": stamp(v5, 0),
	}
	for label, data := range cases {
		if _, err := DecodeEntry(data); !errors.Is(err, ErrCatalog) {
			t.Errorf("%s: DecodeEntry = %v, want ErrCatalog", label, err)
		}
	}
	if _, err := DecodeEntry(v5); err != nil {
		t.Fatalf("current version: %v", err)
	}
}

// encodeV1 frames per-shard blobs in the version 1 catalog layout: a
// family code after the version, then one raw core blob per shard.
func encodeV1(familyCode byte, name string, memBytes uint32, seed uint64, blobs [][]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, catMagic)
	out = binary.LittleEndian.AppendUint16(out, 1)
	out = append(out, familyCode)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint32(out, memBytes)
	out = binary.LittleEndian.AppendUint64(out, seed)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blobs)))
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// TestDecodeEntryV1 checks that a catalog file in the version 1
// layout — raw "DYNS" shard blobs behind a family code — is rejected
// with ErrCatalog whatever its family code, rather than decoded.
func TestDecodeEntryV1(t *testing.T) {
	blobs := make([][]byte, 2)
	for i := range blobs {
		h, err := core.NewDADOMemory(1024)
		if err != nil {
			t.Fatal(err)
		}
		for v := range 500 {
			if err := h.Insert(float64(v % 90)); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := h.Snapshot() // raw core blob, exactly what v1 files hold
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	for _, code := range []byte{1, 3, 9} {
		if _, err := DecodeEntry(encodeV1(code, "legacy", 1024, 42, blobs)); !errors.Is(err, ErrCatalog) {
			t.Errorf("v1 family code %d: DecodeEntry = %v, want ErrCatalog", code, err)
		}
	}
}
