package explore

import (
	"reflect"
	"testing"

	"parcoach/internal/interp"
	"parcoach/internal/parser"
)

// TestProgressEvents: the per-run progress hook must see every run
// exactly once, in strictly increasing Done order, with NewVerdict
// marking precisely the first appearance of each outcome class — the
// contract the daemon's NDJSON streaming is built on. A DFS streams in
// merge order, so its event sequence is the same at any worker count.
func TestProgressEvents(t *testing.T) {
	prog := parser.MustParse("racer.mh", BenchRacerSrc)
	dfsEvents := func(workers int) ([]ProgressEvent, *Report) {
		var events []ProgressEvent
		rep := Explore(prog, Options{
			Strategy:  StrategyDFS,
			Schedules: 256,
			Workers:   workers,
			Progress:  func(ev ProgressEvent) { events = append(events, ev) },
		})
		return events, rep
	}
	t.Run("dpor", func(t *testing.T) {
		events, rep := dfsEvents(4)
		if w1, _ := dfsEvents(1); !reflect.DeepEqual(events, w1) {
			t.Fatalf("DFS progress differs across worker counts:\n workers=1: %+v\n workers=4: %+v", w1, events)
		}
		if len(events) != rep.Schedules {
			t.Fatalf("%d progress events for %d schedules", len(events), rep.Schedules)
		}
		firsts := map[interp.Outcome]bool{}
		for i, ev := range events {
			if ev.Done != i+1 {
				t.Fatalf("event %d has Done=%d, want %d", i, ev.Done, i+1)
			}
			if ev.NewVerdict != !firsts[ev.Outcome] {
				t.Fatalf("event %d: NewVerdict=%t but seen=%t", i, ev.NewVerdict, firsts[ev.Outcome])
			}
			firsts[ev.Outcome] = true
		}
		if len(firsts) != len(rep.Verdicts) {
			t.Fatalf("stream saw %d verdict classes, report has %d", len(firsts), len(rep.Verdicts))
		}
		for _, v := range rep.Verdicts {
			if !firsts[v.Outcome] {
				t.Fatalf("report verdict %s never streamed", v.Outcome)
			}
		}
		// The racer deadlocks on some schedule: a streamed failure
		// event must carry a non-empty replay token.
		var failed *ProgressEvent
		for i := range events {
			if events[i].Outcome != interp.OutcomeClean {
				failed = &events[i]
				break
			}
		}
		if failed == nil {
			t.Fatal("no failing run streamed for the racer")
		}
		if failed.Schedule == "" || failed.Err == "" {
			t.Fatalf("failure event missing token or error: %+v", failed)
		}
	})
}

// TestProgressSampled: the sampling path streams too.
func TestProgressSampled(t *testing.T) {
	prog := parser.MustParse("racer.mh", BenchRacerSrc)
	var n int
	rep := Explore(prog, Options{
		Strategy:  StrategyRandom,
		Schedules: 8,
		Workers:   2,
		Progress:  func(ev ProgressEvent) { n++ },
	})
	if n != rep.Schedules {
		t.Fatalf("%d events for %d schedules", n, rep.Schedules)
	}
}
