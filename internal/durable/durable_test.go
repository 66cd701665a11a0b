package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"booterscope/internal/chaos"
)

// TestPublishFaultPointsInOrder kills the writer at every fault point
// of a three-chunk publication: the points come in the order write,
// write, write, fsync, rename under the file's label, and each crash
// leaves the previous content and no temp file behind.
func TestPublishFaultPointsInOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	old := []byte("previous")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{[]byte("a"), []byte("bc"), []byte("def")}
	want := []string{"snap write", "snap write", "snap write", "snap fsync", "snap rename"}
	for i, op := range want {
		fp := chaos.NewFailpoint(uint64(i))
		f := File{Path: path, Tmp: path + ".tmp", Fault: fp, Label: "snap"}
		err := f.Publish(chunks...)
		if !errors.Is(err, chaos.ErrInjected) || !strings.Contains(err.Error(), op) {
			t.Fatalf("fault at op %d: err %v, want an injected %q fault", i, err, op)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("fault at op %d: file now %q, want the previous content", i, got)
		}
		if _, err := os.Stat(f.Tmp); !os.IsNotExist(err) {
			t.Fatalf("fault at op %d: temp file left behind (%v)", i, err)
		}
	}
	fp := chaos.NewFailpoint()
	f := File{Path: path, Tmp: path + ".tmp", Fault: fp, Label: "snap"}
	if err := f.Publish(chunks...); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "abcdef" {
		t.Fatalf("published %q, want abcdef", got)
	}
	if n := fp.Ops(); n != uint64(len(want)) {
		t.Fatalf("%d fault points checked, want %d", n, len(want))
	}
}

// TestPublishNoSyncAndRenameFailure: NoSync still publishes, and a
// failed rename is reported with the temp file removed.
func TestPublishNoSyncAndRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	f := File{Path: path, Tmp: path + ".tmp", Label: "manifest", NoSync: true}
	if err := f.Publish([]byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{}\n" {
		t.Fatalf("published %q", got)
	}
	// A non-empty directory where the file belongs fails the rename.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	f = File{Path: blocked, Tmp: blocked + ".tmp", Label: "manifest"}
	if err := f.Publish([]byte("x")); err == nil || !strings.Contains(err.Error(), "publishing manifest") {
		t.Fatalf("rename over a directory: err %v", err)
	}
	if _, err := os.Stat(f.Tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after a failed rename (%v)", err)
	}
}

// TestFramesSplitsAppendFrame: Frames recovers the magic and every
// AppendFrame frame as separate chunks, plus a short tail as its own.
func TestFramesSplitsAppendFrame(t *testing.T) {
	magic := []byte("MAGIC123")
	payloads := [][]byte{{1}, {}, bytes.Repeat([]byte{7}, 300)}
	enc := append([]byte(nil), magic...)
	for _, p := range payloads {
		enc = AppendFrame(enc, p)
	}
	enc = append(enc, 0xff, 0xfe)
	got := Frames(enc, len(magic))
	if len(got) != 2+len(payloads) {
		t.Fatalf("%d chunks, want %d", len(got), 2+len(payloads))
	}
	if !bytes.Equal(got[0], magic) || !bytes.Equal(got[len(got)-1], []byte{0xff, 0xfe}) {
		t.Fatalf("magic %q / tail %x chunks wrong", got[0], got[len(got)-1])
	}
	for i, p := range payloads {
		if c := got[1+i]; len(c) != 8+len(p) || !bytes.Equal(c[8:], p) {
			t.Fatalf("frame %d: chunk of %d bytes, want %d", i, len(c), 8+len(p))
		}
	}
	if !bytes.Equal(bytes.Join(got, nil), enc) {
		t.Fatal("chunks do not concatenate back to the encoding")
	}
}
