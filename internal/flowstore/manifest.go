package flowstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"booterscope/internal/durable"
)

// manifestName is the manifest file at the store root.
const manifestName = "MANIFEST.json"

// manifestVersion guards the on-disk format.
const manifestVersion = 1

// SegmentEntry records one sealed segment in the manifest. Segments not
// listed here are unsealed — the shape a crash leaves behind — and are
// re-scanned, truncated, and adopted on the next Open.
type SegmentEntry struct {
	// Shard is the owning shard index.
	Shard int `json:"shard"`
	// File is the segment file name relative to the shard directory.
	File string `json:"file"`
	// PartitionSec is the partition start (unix seconds).
	PartitionSec int64 `json:"partition_sec"`
	// Records and Blocks count the segment's sealed contents.
	Records uint64 `json:"records"`
	Blocks  uint64 `json:"blocks"`
	// Bytes is the file size including magic and framing.
	Bytes uint64 `json:"bytes"`
	// MinStartSec/MaxStartSec bound the segment's record start times
	// (unix seconds, inclusive) for segment-level pruning.
	MinStartSec int64 `json:"min_start_sec"`
	MaxStartSec int64 `json:"max_start_sec"`
	// Recovered marks segments adopted by crash recovery rather than a
	// clean seal.
	Recovered bool `json:"recovered,omitempty"`
}

// manifest is the store's durable catalog.
type manifest struct {
	Version      int               `json:"version"`
	Shards       int               `json:"shards"`
	BlockRecords int               `json:"block_records"`
	PartitionSec int64             `json:"partition_sec"`
	Meta         map[string]string `json:"meta,omitempty"`
	Segments     []SegmentEntry    `json:"segments"`
}

// save publishes the manifest atomically through durable.File: a temp
// file written and fsynced through one descriptor, renamed over the
// manifest, then the directory fsynced so the rename itself survives a
// crash. noSync (Options.NoSync) skips both fsyncs. No failpoint is
// passed, so the store's WriteFault numbering covers block writes
// only. Every step's error is returned.
func (m *manifest) save(dir string, noSync bool) error {
	sort.Slice(m.Segments, func(i, j int) bool {
		a, b := m.Segments[i], m.Segments[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.PartitionSec != b.PartitionSec {
			return a.PartitionSec < b.PartitionSec
		}
		return a.File < b.File
	})
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	f := durable.File{Path: path, Tmp: path + ".tmp", Label: "manifest", NoSync: noSync}
	if err := f.Publish(append(b, '\n')); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	return nil
}

// loadManifest reads the manifest; a missing file returns (nil, nil).
func loadManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("flowstore: corrupt manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("flowstore: invalid manifest: %w", err)
	}
	return &m, nil
}

// validate rejects a manifest whose geometry or segment list the store
// cannot use: the writer divides by Shards and PartitionSec and sizes
// blocks by BlockRecords, and scan and recovery address segment files
// by shard index and name.
func (m *manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("version %d not supported", m.Version)
	}
	if m.Shards < 1 {
		return fmt.Errorf("shards %d, want >= 1", m.Shards)
	}
	if m.BlockRecords < 1 {
		return fmt.Errorf("block_records %d, want >= 1", m.BlockRecords)
	}
	if m.PartitionSec < 1 {
		return fmt.Errorf("partition_sec %d, want >= 1", m.PartitionSec)
	}
	for _, e := range m.Segments {
		if e.Shard < 0 || e.Shard >= m.Shards {
			return fmt.Errorf("segment %q in shard %d, want [0, %d)", e.File, e.Shard, m.Shards)
		}
		if _, _, err := parseSegName(e.File); err != nil {
			return err
		}
	}
	return nil
}
