package sched

import (
	"strings"
	"testing"
)

// TestParseHostileTokens: replay tokens cross a trust boundary (the
// parcoachd HTTP API hands client bytes straight to Parse), so hostile
// shapes must come back as errors — bounded ones — never panics,
// unbounded allocation, or silently-wrong schedulers.
func TestParseHostileTokens(t *testing.T) {
	huge := "trace:" + strings.Repeat("0.", MaxTokenLen)
	cases := []struct {
		name    string
		token   string
		ok      bool
		errWant string // substring of the error when !ok
	}{
		{"empty token", "", false, "unknown schedule token"},
		{"empty trace", "trace:", true, ""}, // replays the default schedule
		{"single id", "trace:0", true, ""},
		{"negative id", "trace:-1", false, "out of range"},
		{"negative id deep", "trace:0.1.-3", false, "out of range"},
		{"id over cap", "trace:2097152", false, "out of range"},
		{"id at cap", "trace:1048576", true, ""},
		{"overflowing id", "trace:99999999999999999999999999", false, "bad trace token"},
		{"empty part", "trace:1..2", false, "bad trace token"},
		{"trailing dot", "trace:1.2.", false, "bad trace token"},
		{"non-numeric", "trace:1.x.2", false, "bad trace token"},
		{"multi-MB token", huge, false, "token too long"},
		{"rand ok", "rand:42", true, ""},
		{"rand negative seed", "rand:-7", true, ""}, // seeds may be negative
		{"rand garbage", "rand:0x10", false, "bad random token"},
		{"rand overflow", "rand:92233720368547758080", false, "bad random token"},
		{"pct ok", "pct:1:3", true, ""},
		{"pct missing depth", "pct:1", false, "bad pct token"},
		{"pct extra field", "pct:1:2:3", false, "bad pct token"},
		{"pct zero depth", "pct:1:0", false, "out of range"},
		{"pct negative depth", "pct:1:-4", false, "out of range"},
		{"pct huge depth", "pct:1:1000000", false, "out of range"},
		{"rr", "rr", true, ""},
		{"rr with suffix", "rrx", false, "unknown schedule token"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(tc.token)
			if tc.ok {
				if err != nil {
					t.Fatalf("Parse(%.40q) = %v, want ok", tc.token, err)
				}
				if s == nil {
					t.Fatalf("Parse(%.40q) returned nil scheduler without error", tc.token)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse(%.40q) accepted hostile token", tc.token)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("Parse(%.40q) error %q, want substring %q", tc.token, err, tc.errWant)
			}
			if len(err.Error()) > 256 {
				t.Fatalf("error message echoes hostile token: %d bytes", len(err.Error()))
			}
		})
	}
}

// FuzzSchedParse: Parse must never panic, must bound its error text even
// for multi-MB inputs, and accepted trace tokens must round-trip through
// FormatTrace.
func FuzzSchedParse(f *testing.F) {
	for _, seed := range []string{
		"rr", "rand:42", "pct:1:3", "trace:", "trace:0.2.1",
		"trace:-1", "trace:1..2", "pct:1:0", "rand:0x10",
		"trace:99999999999999999999999999", "trace:" + strings.Repeat("7.", 64),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, token string) {
		s, err := Parse(token)
		if err != nil {
			if len(err.Error()) > 512 {
				t.Fatalf("unbounded error text: %d bytes", len(err.Error()))
			}
			return
		}
		if s == nil {
			t.Fatalf("Parse(%.60q): nil scheduler without error", token)
		}
		if r, ok := s.(*Recorder); ok {
			re, err := Parse(FormatTrace(r.Prefix))
			if err != nil {
				t.Fatalf("accepted trace failed to round-trip: %v", err)
			}
			r2 := re.(*Recorder)
			if len(r2.Prefix) != len(r.Prefix) {
				t.Fatalf("round-trip length %d != %d", len(r2.Prefix), len(r.Prefix))
			}
			for i := range r.Prefix {
				if r.Prefix[i] != r2.Prefix[i] {
					t.Fatalf("round-trip mismatch at %d", i)
				}
			}
		}
	})
}
