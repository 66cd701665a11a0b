// Package durable publishes files crash-safely. Publish writes the new
// content to a temp file, fsyncs it, renames it over the target and
// fsyncs the directory, so a crash at any point leaves either the
// previous complete file or the new complete one — never a torn mix.
// The daemon checkpoint, the flight recorder's incident dumps and the
// flow archive's manifest all commit through it.
//
// The checkpoint and dump formats share one CRC framing: a magic
// prefix, then frames of a 4-byte big-endian payload length, a 4-byte
// CRC-32 (IEEE) of the payload, and the payload. AppendFrame builds a
// frame and Frames splits an encoding back into its write units.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"booterscope/internal/chaos"
)

// File is one crash-safe publication target.
type File struct {
	// Path is the published file; Tmp is the temp file written first,
	// in the same directory.
	Path, Tmp string
	// Fault, when non-nil, is checked before every chunk write
	// ("<Label> write"), before the fsync ("<Label> fsync") and before
	// the rename ("<Label> rename") — the crash points a chaos suite
	// kills the writer at.
	Fault *chaos.Failpoint
	Label string
	// NoSync skips both fsyncs (tests and benchmarks that trade
	// durability for speed).
	NoSync bool
}

// Publish replaces f.Path with the concatenation of chunks, writing
// each chunk with its own write call. A failure before the rename
// removes the temp file and leaves the previous file intact. Every
// error is returned, the directory sync's included: after a failed
// directory sync the new file is in place but may not survive a crash.
func (f File) Publish(chunks ...[]byte) error {
	if err := f.writeTemp(chunks); err != nil {
		os.Remove(f.Tmp)
		return err
	}
	if err := f.Fault.Check(f.Label + " rename"); err != nil {
		os.Remove(f.Tmp)
		return err
	}
	if err := os.Rename(f.Tmp, f.Path); err != nil {
		os.Remove(f.Tmp)
		return fmt.Errorf("publishing %s: %w", f.Label, err)
	}
	if f.NoSync {
		return nil
	}
	d, err := os.Open(filepath.Dir(f.Path))
	if err != nil {
		return fmt.Errorf("syncing %s directory: %w", f.Label, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("syncing %s directory: %w", f.Label, err)
	}
	return d.Close()
}

// writeTemp writes and fsyncs the temp file through one write-only
// descriptor.
func (f File) writeTemp(chunks [][]byte) error {
	w, err := os.OpenFile(f.Tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("%s temp file: %w", f.Label, err)
	}
	fail := func(err error) error {
		w.Close()
		return err
	}
	for _, c := range chunks {
		if err := f.Fault.Check(f.Label + " write"); err != nil {
			return fail(err)
		}
		if _, err := w.Write(c); err != nil {
			return fail(fmt.Errorf("writing %s: %w", f.Label, err))
		}
	}
	if err := f.Fault.Check(f.Label + " fsync"); err != nil {
		return fail(err)
	}
	if !f.NoSync {
		if err := w.Sync(); err != nil {
			return fail(fmt.Errorf("syncing %s: %w", f.Label, err))
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", f.Label, err)
	}
	return nil
}

// AppendFrame appends one CRC frame carrying payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Frames splits a framed encoding into its write units: the
// magicLen-byte magic, then one chunk per frame (header and payload).
// Trailing bytes too short for a frame header form a last chunk. Each
// frame is a distinct fault-injection point for Publish — the
// granularity a real crash tears files at.
func Frames(enc []byte, magicLen int) [][]byte {
	out := [][]byte{enc[:magicLen]}
	for off := magicLen; off < len(enc); {
		end := len(enc)
		if off+8 <= len(enc) {
			end = min(off+8+int(binary.BigEndian.Uint32(enc[off:])), len(enc))
		}
		out = append(out, enc[off:end])
		off = end
	}
	return out
}
