package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vani/internal/trace"
)

// TestMain lets the test binary stand in for the vani command: with
// VANI_MAIN=1 it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VANI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutOfRangeFileExits: a v2.2 trace whose events name a file id past
// the header's file table makes vani exit 1 with a bad-format message,
// not an index-out-of-range panic.
func TestOutOfRangeFileExits(t *testing.T) {
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "bad", Nodes: 1, Ranks: 4})
	app, file := tr.AppID("a"), tr.FileID("/p/f")
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Microsecond
		e := trace.Event{Level: trace.LevelPosix, Op: trace.OpWrite, App: app, File: file,
			Rank: int32(i % 4), Size: 4096, Start: at, End: at + time.Microsecond}
		if i == 37 {
			e.File = 1 + 5 // len(Files) + 5
		}
		tr.Record(e)
	}
	path := filepath.Join(t.TempDir(), "bad.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteV2(f, tr.Finish()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-t", path, "-tables=false")
	cmd.Env = append(os.Environ(), "VANI_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("vani = %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "bad format") || !strings.Contains(string(out), "file 6") {
		t.Errorf("vani output lacks the bad-format message:\n%s", out)
	}
	if strings.Contains(string(out), "panic") || strings.Contains(string(out), "goroutine") {
		t.Errorf("vani panicked:\n%s", out)
	}
}
