package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"parcoach/internal/explore"
)

var update = flag.Bool("update", false, "rewrite the pinned answers under testdata")

// TestExploreAnswerPinned pins the /explore wire format byte for byte:
// the racer's plain DFS answer, and its streamed random answer at one
// worker (with more, the stream's order varies). Regenerate the files
// under testdata with -update.
func TestExploreAnswerPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  map[string]any
	}{
		{"explore-dfs", map[string]any{
			"name": "racer.mh", "source": explore.BenchRacerSrc,
			"strategy": "dfs", "schedules": 256,
		}},
		{"explore-random-stream", map[string]any{
			"name": "racer.mh", "source": explore.BenchRacerSrc,
			"strategy": "random", "schedules": 16, "seed": 1, "workers": 1,
			"stream": true, "progressEvery": 4,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			code, got := postJSON(t, ts.URL+"/explore", tc.req)
			if code != http.StatusOK {
				t.Fatalf("explore: %d %s", code, got)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing pinned answer (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("answer differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
