package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one record of the Chrome trace-event JSON format
// (loadable in Perfetto / chrome://tracing). Timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func us(d int64) float64 { return float64(d) / 1e3 } // ns → µs

// WriteChrome converts an event stream (in arrival order) to Chrome
// trace-event JSON and writes it to w as one array: one process per
// node, one track (thread) per worker, one complete span per PUNCH
// invocation, and instant events for the rest of the query lifecycle
// (SUMDB traffic, EvSumRead and EvSumAdd, is left out). Metadata comes first, then everything by timestamp. The document
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing. It
// returns the number of PUNCH spans written; a punch-end whose start is
// missing becomes a zero-length span.
func WriteChrome(w io.Writer, evs []Event) (int, error) {
	meta, out := []chromeEvent{}, []chromeEvent(nil)
	open := map[[2]int]Event{} // pending punch-start per (node, worker) track
	named := map[[2]int]bool{}
	procs := map[int]bool{}
	spans := 0
	for _, ev := range evs {
		if ev.Type == EvSumRead || ev.Type == EvSumAdd {
			continue
		}
		key := [2]int{ev.Node, ev.Worker}
		if !procs[ev.Node] {
			procs[ev.Node] = true
			meta = append(meta, chromeEvent{
				Name: "process_name", Ph: "M", Pid: ev.Node,
				Args: map[string]any{"name": fmt.Sprintf("node %d", ev.Node)},
			})
		}
		if !named[key] {
			named[key] = true
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: ev.Node, Tid: ev.Worker,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", ev.Worker)},
			})
		}
		switch ev.Type {
		case EvPunchStart:
			open[key] = ev
			continue
		case EvPunchEnd:
			start, ok := open[key]
			if !ok {
				start = ev
			}
			delete(open, key)
			spans++
			out = append(out, chromeEvent{
				Name: ev.Proc, Cat: "punch", Ph: "X",
				Ts:  us(int64(start.Wall)),
				Dur: us(int64(ev.Wall - start.Wall)),
				Pid: ev.Node, Tid: ev.Worker,
				Args: map[string]any{
					"query":       int64(ev.Query),
					"cost":        ev.Cost,
					"vtime_start": start.VTime,
					"vtime_end":   ev.VTime,
				},
			})
			continue
		}
		args := map[string]any{"query": int64(ev.Query), "vtime": ev.VTime}
		if ev.Proc != "" {
			args["proc"] = ev.Proc
		}
		if ev.N != 0 {
			args["n"] = ev.N
		}
		out = append(out, chromeEvent{
			Name: ev.Type.String(), Cat: "lifecycle", Ph: "i", S: "t",
			Ts: us(int64(ev.Wall)), Pid: ev.Node, Tid: ev.Worker, Args: args,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	data, err := json.Marshal(append(meta, out...))
	if err != nil {
		return spans, err
	}
	_, err = w.Write(append(data, '\n'))
	return spans, err
}
