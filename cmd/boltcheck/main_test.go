package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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

// TestRejectWithDist: every flag combination boltcheck cannot honour is
// refused (exit 3, the message names both flags) instead of a flag being
// dropped: flags the cluster engine has no counterpart for next to -dist,
// and flags that only mean something beside another one. Every
// combination that asks for something consistent passes, and a flag set
// to its zero value asks for nothing.
func TestRejectWithDist(t *testing.T) {
	captureExit(t)
	for _, tc := range []struct {
		args []string
		msg  string // the refusal; "" = accepted
	}{
		{[]string{"-dist", "3", "-proc", "p", "-post", "g > 5"}, "-proc is not supported with -dist"},
		{[]string{"-dist", "3", "-pre", "true"}, "-pre is not supported with -dist"},
		{[]string{"-dist", "3", "-post", "g > 5"}, "-post is not supported with -dist"},
		{[]string{"-dist", "3", "-ticks", "100"}, "-ticks is not supported with -dist"},
		{[]string{"-dist", "3", "-async"}, "-async is not supported with -dist"},
		{[]string{"-dist", "3", "-witness"}, "-witness is not supported with -dist"},
		{[]string{"-dist", "3", "-faults", "kill=1@3", "-threads", "2", "-witness"}, "-witness is not supported with -dist"},
		{[]string{"-post", "g > 5"}, "-post requires -proc"},
		{[]string{"-pre", "g == 0"}, "-pre requires -proc"},
		{[]string{"-faults", "kill=1@3"}, "-faults requires -dist"},
		{[]string{"-dist", "0", "-faults", "kill=1@3"}, "-faults requires -dist"},
		{[]string{"-incr"}, "-incr requires -store"},
		{[]string{"-store-reset"}, "-store-reset requires -store"},
		{[]string{"-watchdog-stall", "5s"}, "-watchdog-stall requires -watchdog"},
		{[]string{"-watchdog", "0s", "-watchdog-stall", "5s"}, "-watchdog-stall requires -watchdog"},
		{nil, ""},
		{[]string{"-dist", "3"}, ""},
		{[]string{"-dist", "3", "-faults", "kill=1@3,drop=0.2", "-analysis", "may", "-threads", "2", "-timeout", "5s",
			"-stats", "-trace", "t.json", "-trace-jsonl", "t.jsonl", "-metrics", "-store", "d", "-store-reset", "-incr",
			"-explain", "-prov-out", "p.json", "-pprof", "localhost:0", "-watchdog", "1s", "-watchdog-stall", "5s",
			"-flight-dump", "f.jsonl"}, ""},
		{[]string{"-proc", "p", "-pre", "g == 0", "-post", "g > 5", "-ticks", "100", "-async", "-witness",
			"-store", "d", "-store-reset", "-incr", "-watchdog", "1s", "-watchdog-stall", "5s"}, ""},
		{[]string{"-dist", "0", "-proc", "p", "-post", "g > 5", "-async"}, ""},
		{[]string{"-dist", "3", "-ticks", "0", "-async=false", "-witness=false"}, ""},
		{[]string{"-faults", "", "-incr=false", "-store-reset=false", "-watchdog-stall", "0s"}, ""},
	} {
		fs := flag.NewFlagSet("boltcheck", flag.ContinueOnError)
		fs.Int("dist", 0, "")
		fs.Int("threads", 8, "")
		fs.Int64("ticks", 0, "")
		for _, name := range []string{"timeout", "watchdog", "watchdog-stall"} {
			fs.Duration(name, 0, "")
		}
		for _, name := range []string{"faults", "analysis", "proc", "pre", "post", "trace", "trace-jsonl", "store",
			"prov-out", "pprof", "flight-dump"} {
			fs.String(name, "", "")
		}
		for _, name := range []string{"async", "witness", "stats", "metrics", "store-reset", "incr", "explain"} {
			fs.Bool(name, false, "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		given := givenFlags(fs)
		if tc.msg == "" {
			checkFlags(given) // an exit here panics through captureExit
			continue
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		code := expectExit(t, func() { checkFlags(given) })
		os.Stderr = stderr
		w.Close()
		msg, _ := io.ReadAll(r)
		if code != 3 || !strings.Contains(string(msg), tc.msg) {
			t.Errorf("%v: exit %d with %q, want 3 with %q", tc.args, code, msg, tc.msg)
		}
	}
}

// TestProgramWithoutAssertExitsSafe runs boltcheck in a child process on
// programs with no assert: they have no error state, so each engine
// prints the Safe verdict and exits 0. The child is this test binary
// with BOLTCHECK_ARGS set, which runs main on those arguments.
func TestProgramWithoutAssertExitsSafe(t *testing.T) {
	if args := os.Getenv("BOLTCHECK_ARGS"); args != "" {
		os.Args = append([]string{"boltcheck"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	for i, src := range []string{`proc main { }`, `globals g; proc main { g = 0; }`} {
		path := filepath.Join(dir, fmt.Sprintf("p%d.bolt", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"-threads 1", "-threads 2 -async", "-dist 2 -threads 2"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestProgramWithoutAssertExitsSafe$")
			cmd.Env = append(os.Environ(), "BOLTCHECK_ARGS="+engine+" "+path)
			out, err := cmd.Output()
			if err != nil || !strings.HasPrefix(string(out), "Program is Safe") {
				t.Errorf("%q %s: %v, output %q", src, engine, err, out)
			}
		}
	}
}
