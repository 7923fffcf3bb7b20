package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): every registry counter as
// bolt_<name>_total, the per-worker ledger as labeled gauges, and the
// punch-cost/punch-wall histograms with cumulative le buckets. A nil
// snapshot renders nothing — an empty exposition is valid.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "bolt_" + sanitizeMetricName(k) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE bolt_makespan_ticks gauge\nbolt_makespan_ticks %d\n", s.MakespanTicks); err != nil {
		return err
	}
	for _, ws := range s.Workers {
		if _, err := fmt.Fprintf(w,
			"bolt_worker_punches{worker=\"%d\"} %d\nbolt_worker_busy_ticks{worker=\"%d\"} %d\nbolt_worker_busy_wall_ns{worker=\"%d\"} %d\nbolt_worker_steals{worker=\"%d\"} %d\n",
			ws.Worker, ws.Punches, ws.Worker, ws.BusyTicks, ws.Worker, ws.BusyWallNs, ws.Worker, ws.Steals); err != nil {
			return err
		}
	}
	if err := writePromHist(w, "bolt_punch_cost_ticks", s.PunchCost); err != nil {
		return err
	}
	if err := writePromHist(w, "bolt_punch_wall_ns", s.PunchWallNs); err != nil {
		return err
	}
	if s.ProvConeSize.Count > 0 {
		return writePromHist(w, "bolt_prov_cone_size", s.ProvConeSize)
	}
	return nil
}

// writePromHist renders one histogram with Prometheus' cumulative
// bucket convention (each le bucket counts all observations <= le,
// ending in the mandatory +Inf bucket).
func writePromHist(w io.Writer, name string, h HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, h.Count, name, h.Sum, name, h.Count)
	return err
}

// sanitizeMetricName maps a registry key to a valid Prometheus metric
// name component.
func sanitizeMetricName(k string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, k)
}
