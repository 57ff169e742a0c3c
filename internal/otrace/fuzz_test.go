package otrace

import "testing"

// FuzzTraceparent feeds arbitrary header values to Parse, which reads
// them off HTTP requests and the environment. A value Parse accepts
// renders (Traceparent) to one that parses back to the same context.
func FuzzTraceparent(f *testing.F) {
	for _, tp := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"42-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(tp)
	}
	f.Fuzz(func(t *testing.T, tp string) {
		c, err := Parse(tp)
		if err != nil {
			return
		}
		back, err := Parse(c.Traceparent())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not parse: %v", tp, c.Traceparent(), err)
		}
		if back != c {
			t.Fatalf("Parse(%q) = %+v, but its rendering parses to %+v", tp, c, back)
		}
	})
}
