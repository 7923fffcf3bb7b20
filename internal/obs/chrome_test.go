package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// ValidateChromeTrace checks that data is a parseable Chrome trace-event
// JSON array whose complete ("X") spans are well-nested per track: on
// any one (pid, tid) track, two spans either do not overlap or one
// contains the other. It returns the number of spans checked.
func ValidateChromeTrace(data []byte) (int, error) {
	var evs []chromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	type span struct{ start, end float64 }
	tracks := map[[2]int][]span{}
	spans := 0
	for i, ev := range evs {
		switch ev.Ph {
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				return spans, fmt.Errorf("obs: event %d has negative ts/dur", i)
			}
			key := [2]int{ev.Pid, ev.Tid}
			tracks[key] = append(tracks[key], span{ev.Ts, ev.Ts + ev.Dur})
			spans++
		case "i", "M", "I":
			// Instants and metadata need no nesting check.
		case "":
			return spans, fmt.Errorf("obs: event %d has no phase", i)
		}
	}
	const eps = 1e-9
	for key, ss := range tracks {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end // enclosing span first
		})
		var stack []span
		for _, s := range ss {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				return spans, fmt.Errorf(
					"obs: track pid=%d tid=%d: span [%g,%g] partially overlaps [%g,%g]",
					key[0], key[1], s.start, s.end,
					stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
	return spans, nil
}
