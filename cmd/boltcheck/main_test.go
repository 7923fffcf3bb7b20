package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

type exitCall struct{ code int }

// captureExit reroutes osExit into a panic the test can recover, so the
// funnel's "never returns" behavior is testable in-process.
func captureExit(t *testing.T) {
	t.Helper()
	old := osExit
	osExit = func(code int) { panic(exitCall{code}) }
	t.Cleanup(func() { osExit = old })
}

// expectExit runs f, which must leave through osExit, and returns the
// exit code it carried.
func expectExit(t *testing.T, f func()) int {
	t.Helper()
	code := -1
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected an exit, got a normal return")
			}
			ec, ok := r.(exitCall)
			if !ok {
				panic(r)
			}
			code = ec.code
		}()
		f()
	}()
	return code
}

// TestStoreErrorExitRunsFinish locks the satellite contract for the
// store-error exit path: reportStore surfaces the failure as an error,
// and the bundle's fatalf funnel writes the final flight dump (i.e.
// runs finish) before exiting 3 — os.Exit skips deferred functions, so
// an exit path that bypasses the funnel silently loses the dump.
func TestStoreErrorExitRunsFinish(t *testing.T) {
	captureExit(t)
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	ob := &obsBundle{dump: dump, flight: obs.NewFlightRecorder(0)}

	err := reportStore(t.TempDir(), 0, 0, errors.New("segment checksum mismatch"))
	if err == nil {
		t.Fatal("reportStore must return the store failure")
	}
	if !strings.Contains(err.Error(), "summary store") {
		t.Fatalf("store error lacks context: %v", err)
	}

	code := expectExit(t, func() { ob.fatalf("%v", err) })
	if code != 3 {
		t.Fatalf("store error must exit 3, got %d", code)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Fatalf("flight dump was not written before the error exit: %v", err)
	}
}

// TestVerdictExitRunsFinish: the success path also funnels through
// finish, and a deliverable dump keeps the verdict's exit code.
func TestVerdictExitRunsFinish(t *testing.T) {
	captureExit(t)
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	ob := &obsBundle{dump: dump, flight: obs.NewFlightRecorder(0)}

	if code := expectExit(t, func() { ob.exit(0) }); code != 0 {
		t.Fatalf("safe verdict must keep exit 0, got %d", code)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Fatalf("flight dump missing after verdict exit: %v", err)
	}
}

// TestFailedDumpTurnsSuccessIntoError: a dump the flags asked for but
// the bundle could not deliver must not exit 0.
func TestFailedDumpTurnsSuccessIntoError(t *testing.T) {
	captureExit(t)
	ob := &obsBundle{
		dump:   filepath.Join(t.TempDir(), "no-such-dir", "flight.jsonl"),
		flight: obs.NewFlightRecorder(0),
	}
	if code := expectExit(t, func() { ob.exit(0) }); code != 3 {
		t.Fatalf("undeliverable flight dump must exit 3, got %d", code)
	}
	// A real verdict is never masked by the dump failure.
	ob2 := &obsBundle{
		dump:   filepath.Join(t.TempDir(), "no-such-dir", "flight.jsonl"),
		flight: obs.NewFlightRecorder(0),
	}
	if code := expectExit(t, func() { ob2.exit(1) }); code != 1 {
		t.Fatalf("error-reachable exit must stay 1, got %d", code)
	}
}

// TestRejectWithDist: every flag the cluster engine has no counterpart
// for is refused next to -dist (exit 3, the message names it) instead of
// being dropped, and the flags runDistributed does take pass.
func TestRejectWithDist(t *testing.T) {
	captureExit(t)
	for _, tc := range []struct {
		given []string
		named string // the flag the refusal names; "" = accepted
	}{
		{[]string{"dist", "proc", "post"}, "-proc"},
		{[]string{"dist", "pre"}, "-pre"},
		{[]string{"dist", "post"}, "-post"},
		{[]string{"dist", "ticks"}, "-ticks"},
		{[]string{"dist", "async"}, "-async"},
		{[]string{"dist", "witness"}, "-witness"},
		{[]string{"dist", "faults", "threads", "witness"}, "-witness"},
		{[]string{"dist"}, ""},
		{[]string{"dist", "faults", "analysis", "threads", "timeout", "stats", "trace", "trace-jsonl", "metrics",
			"coalesce", "entailcache", "store", "store-reset", "incr", "explain", "prov-out",
			"pprof", "watchdog", "watchdog-stall", "flight-dump"}, ""},
	} {
		given := map[string]bool{}
		for _, name := range tc.given {
			given[name] = true
		}
		if tc.named == "" {
			rejectWithDist(given) // an exit here panics through captureExit
			continue
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		code := expectExit(t, func() { rejectWithDist(given) })
		os.Stderr = stderr
		w.Close()
		msg, _ := io.ReadAll(r)
		if code != 3 || !strings.Contains(string(msg), tc.named+" is not supported with -dist") {
			t.Errorf("%v: exit %d with %q, want 3 naming %s", tc.given, code, msg, tc.named)
		}
	}
}
