package flowstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// TestScanRejectsCorruptSealedFrame: a flipped payload byte in a sealed
// segment fails Scan, ScanBatches and a Cursor with an error naming the
// file and the frame's offset, instead of handing out altered records —
// also when the query prunes the corrupt block.
func TestScanRejectsCorruptSealedFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1, BlockRecords: 512, Partition: 7 * 24 * time.Hour, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(genFlows(rand.New(rand.NewSource(5)), testBase, 1, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	path := filepath.Join(dir, "shard-00", segs[0].File)
	blocks, err := InspectSegment(path)
	if err != nil || len(blocks) < 2 {
		t.Fatalf("inspect: %d blocks, %v", len(blocks), err)
	}
	queries := map[string]Query{
		"full":         {},
		"block pruned": {From: blocks[0].MaxStart.Add(time.Second)},
	}

	// scanAll runs the three read paths and returns their errors.
	scanAll := func(q Query) [3]error {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var errs [3]error
		_, errs[0] = st.Scan(q, func(*flow.Record) error { return nil })
		_, errs[1] = st.ScanBatches(q, func(b *pipe.Batch) error { b.Release(); return nil })
		c := st.NewCursor(q)
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		_, errs[2] = c.Close()
		return errs
	}
	paths := [3]string{"Scan", "ScanBatches", "Cursor"}
	for name, q := range queries {
		for i, err := range scanAll(q) {
			if err != nil {
				t.Fatalf("%s %s before corruption: %v", name, paths[i], err)
			}
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[blocks[0].Offset+frameHeadLen+blockIndexLen+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantOff := fmt.Sprintf("offset %d", blocks[0].Offset)
	for name, q := range queries {
		for i, err := range scanAll(q) {
			if err == nil {
				t.Fatalf("%s %s: corrupt sealed frame read without error", name, paths[i])
			}
			if !strings.Contains(err.Error(), segs[0].File) || !strings.Contains(err.Error(), wantOff) {
				t.Fatalf("%s %s: error %q does not name %s and %s", name, paths[i], err, segs[0].File, wantOff)
			}
		}
	}
}

// TestOpenRejectsInvalidManifest: Open refuses a manifest whose
// geometry or segment list the store cannot use, instead of accepting
// it and panicking on the first Append or Scan.
func TestOpenRejectsInvalidManifest(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *manifest)
	}{
		{"shards 0", func(m *manifest) { m.Shards = 0 }},
		{"shards -1", func(m *manifest) { m.Shards = -1 }},
		{"partition_sec 0", func(m *manifest) { m.PartitionSec = 0 }},
		{"block_records 0", func(m *manifest) { m.BlockRecords = 0 }},
		{"segment shard past shards", func(m *manifest) { m.Segments[0].Shard = m.Shards }},
		{"segment shard negative", func(m *manifest) { m.Segments[0].Shard = -1 }},
		{"segment file misnamed", func(m *manifest) { m.Segments[0].File = "seg-0-1.fsg" }},
		{"segment file outside shard", func(m *manifest) { m.Segments[0].File = "../" + m.Segments[0].File }},
		{"version", func(m *manifest) { m.Version = manifestVersion + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Shards: 2, BlockRecords: 64, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(genFlows(rand.New(rand.NewSource(3)), testBase, 1, 300)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := loadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Segments) == 0 {
				t.Fatal("valid manifest lists no segments")
			}
			tc.mutate(m)
			if err := m.save(dir, true); err != nil {
				t.Fatal(err)
			}
			if s2, err := Open(dir, Options{}); err == nil {
				s2.Close()
				t.Fatal("Open accepted the manifest")
			}
		})
	}
}

// FuzzLoadManifest: parsing and validating any manifest bytes never
// panics; an accepted manifest has usable geometry and segment entries,
// and re-marshals and reloads equal.
//
// Run with: go test -fuzz=FuzzLoadManifest ./internal/flowstore/
func FuzzLoadManifest(f *testing.F) {
	valid := manifest{
		Version: manifestVersion, Shards: 2, BlockRecords: 64, PartitionSec: 86400,
		Meta: map[string]string{"vantage": "ixp"},
		Segments: []SegmentEntry{
			{Shard: 1, File: segName(86400, 3), PartitionSec: 86400, Records: 10, Blocks: 1, Bytes: 100, MinStartSec: 86400, MaxStartSec: 86500},
		},
	}
	b, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"version":1,"shards":0,"block_records":64,"partition_sec":86400}`))
	f.Add([]byte(`{"version":1,"shards":-1,"block_records":64,"partition_sec":86400}`))
	f.Add([]byte(`{"version":1,"shards":1,"block_records":0,"partition_sec":86400}`))
	f.Add([]byte(`{"version":1,"shards":1,"block_records":64,"partition_sec":0}`))
	f.Add([]byte(`{"version":1,"shards":1,"block_records":64,"partition_sec":60,"segments":[{"shard":1,"file":"seg-0-0000.fsg"}]}`))
	f.Add([]byte(`{"version":1,"shards":1,"block_records":64,"partition_sec":60,"segments":[{"shard":0,"file":"seg-0-1.fsg"}]}`))
	f.Add([]byte(`{"version":1,"shards":1,"block_records":64,"partition_sec":60,"meta":{}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, manifestName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(dir)
		if err != nil {
			return
		}
		if m.Shards < 1 || m.BlockRecords < 1 || m.PartitionSec < 1 {
			t.Fatalf("accepted unusable geometry: %+v", m)
		}
		for _, e := range m.Segments {
			if e.Shard < 0 || e.Shard >= m.Shards {
				t.Fatalf("accepted segment %q in shard %d of %d", e.File, e.Shard, m.Shards)
			}
			if _, _, err := parseSegName(e.File); err != nil {
				t.Fatalf("accepted segment file %q: %v", e.File, err)
			}
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, re, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := loadManifest(dir)
		if err != nil {
			t.Fatalf("re-marshalled manifest rejected: %v\n%s", err, re)
		}
		// Meta is omitempty: an empty object reloads as an absent one.
		if len(m.Meta) == 0 {
			m.Meta = nil
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("manifest changed across re-marshal:\nfirst  %+v\nreload %+v", m, back)
		}
	})
}
