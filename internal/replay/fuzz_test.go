package replay

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// FuzzRecording feeds arbitrary bytes to the .lrec reader: parse the
// header, walk every record and decode every checkpoint. The reader must
// return an error or a result, never panic, hang or allocate beyond what
// the input and its embedded model describe.
func FuzzRecording(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.lrec")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed recordings: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Parse(data)
		if err != nil {
			return
		}
		c := rec.Cursor()
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
		for _, ck := range rec.Checkpoints {
			_, _ = rec.DecodeCheckpoint(ck)
		}
	})
}

// TestCorruptCheckpointCounts rewrites one count of hazard16.lrec's first
// checkpoint and re-frames the record: an element count far beyond the
// record's bytes, and a memory longer than the embedded model's, must
// come back as errors. The first once panicked in makeslice.
func TestCorruptCheckpointCounts(t *testing.T) {
	data, err := os.ReadFile("testdata/hazard16.lrec")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint record: kind, body length, then the body: step, hash,
	// snapshot step, scalar count and scalars, array count, then each
	// array's size.
	off := rec.CheckpointOffset(0)
	d := &dec{b: data, off: off + 1}
	n := d.u()
	start := d.off
	body := &dec{b: data[start : start+int(n)]}
	body.u()
	body.fixed64()
	body.u()
	scalarsAt := body.off
	for i, ns := uint64(0), body.u(); i < ns; i++ {
		body.u()
	}
	body.u()
	arraySizeAt := body.off
	if body.err != nil {
		t.Fatal(body.err)
	}
	memSize := body.u()

	for _, tc := range []struct {
		name  string
		at    int
		value uint64
		want  string
	}{
		{"scalar count", scalarsAt, 1 << 62, "exceeds"},
		{"memory size", arraySizeAt, memSize + 1, "exceeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := body.b
			old := &dec{b: b, off: tc.at}
			old.u()
			nb := append(binary.AppendUvarint(append([]byte(nil), b[:tc.at]...), tc.value), b[old.off:]...)
			out := append([]byte(nil), data[:off+1]...)
			out = binary.AppendUvarint(out, uint64(len(nb)))
			out = append(append(out, nb...), data[start+int(n):]...)
			bad, err := Parse(out)
			if err != nil {
				t.Fatal(err)
			}
			_, err = bad.DecodeCheckpoint(bad.Checkpoints[0])
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeCheckpoint = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeCheckpointConcurrent decodes one recording's checkpoints from
// several goroutines at once: the embedded model's memory sizes, loaded
// on first use, are loaded once.
func TestDecodeCheckpointConcurrent(t *testing.T) {
	data, err := os.ReadFile("testdata/hazard16.lrec")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ck := range rec.Checkpoints {
				if _, err := rec.DecodeCheckpoint(ck); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
