package fleet

import (
	"encoding/json"
	"io"
)

// StreamRecord is one NDJSON line of a streamed batch: a "job" record
// per finished job, in completion order, then exactly one "summary"
// record. Job is the manifest index for "job" records and -1 on the
// summary; the summary's Results are elided (each was already streamed).
type StreamRecord struct {
	Type    string   `json:"type"` // "job" | "summary"
	Job     int      `json:"job"`
	Result  *Result  `json:"result,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// Streamer delivers batch results incrementally: wired as
// Options.OnResult (WriteJob), it writes each job's result as one NDJSON
// line the moment a worker finishes it (and flushes, when the writer
// supports it), so a client watching a long batch sees every result as
// it lands instead of one summary at the end; WriteSummary closes the
// stream once Run returns. This is the transport behind the debug
// server's /batch/stream endpoint and lisa-sim's -batch-progress flag.
//
// Write errors are latched: the first failure (say, the HTTP client
// hanging up) silences all further output, the batch runs to completion,
// and Err reports what happened.
type Streamer struct {
	w   io.Writer
	err error
}

// NewStreamer creates a streamer writing NDJSON records to w. If w
// implements Flush() (http.ResponseWriter) or Flush() error
// (bufio.Writer), each record is flushed as it is written.
func NewStreamer(w io.Writer) *Streamer { return &Streamer{w: w} }

// Err returns the first write error, or nil.
func (s *Streamer) Err() error { return s.err }

func (s *Streamer) emit(rec StreamRecord) {
	if s.err != nil {
		return
	}
	// json.Encoder terminates each record with a newline — exactly the
	// NDJSON framing.
	if err := json.NewEncoder(s.w).Encode(rec); err != nil {
		s.err = err
		return
	}
	switch f := s.w.(type) {
	case interface{ Flush() }:
		f.Flush()
	case interface{ Flush() error }:
		if err := f.Flush(); err != nil {
			s.err = err
		}
	}
}

// WriteJob writes one "job" record; its signature is Options.OnResult's.
func (s *Streamer) WriteJob(job int, r *Result) {
	s.emit(StreamRecord{Type: "job", Job: job, Result: r})
}

// WriteSummary writes the final "summary" record, with the per-job
// results elided.
func (s *Streamer) WriteSummary(sum *Summary) {
	compact := *sum
	compact.Results = nil
	s.emit(StreamRecord{Type: "summary", Job: -1, Summary: &compact})
}
