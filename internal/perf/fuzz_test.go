package perf

import (
	"bytes"
	"testing"
)

// FuzzLedger feeds arbitrary bytes to the .lperf reader. Read gives a
// ledger or an error, never a panic, and a ledger that reads, written
// back with Ledger.Write, reads again with the same record IDs in the
// same order.
func FuzzLedger(f *testing.F) {
	r := New(Env{Model: "simple16", Program: "dot64", Engine: "compiled",
		ModelHash: "mh", ProgramHash: "ph", Time: "2026-08-08T00:00:00Z"})
	r.SetCounters(586, true, nil)
	r.Counters.Penalty = map[string]uint64{"data": 3, "other": 1}
	r.SetWall([]float64{30, 10, 20})
	var seed bytes.Buffer
	if err := writeLine(&seed, r.Seal()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(append(bytes.Repeat(seed.Bytes(), 2), '\n'))
	f.Add([]byte("{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := l.Write(&out); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("a ledger that read does not read back: %v\n%s", err, out.Bytes())
		}
		if len(back.Records) != len(l.Records) {
			t.Fatalf("%d records read back, %d written", len(back.Records), len(l.Records))
		}
		for i, rec := range back.Records {
			if rec.ID != l.Records[i].ID {
				t.Fatalf("record %d reads back as %s, was written as %s", i, rec.ID, l.Records[i].ID)
			}
		}
	})
}
