package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the wrun command: with
// WRUN_MAIN=1 it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("WRUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSpecRunErrorExits: a spec that parses but fails while running makes
// wrun exit non-zero with the failure's message, not a goroutine panic.
func TestSpecRunErrorExits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.yaml")
	doc := "version: 1\nname: bad\napp: bad\nrun:\n  - close: {}\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-spec", path, "-nodes", "2", "-scale", "0.01",
		"-o", filepath.Join(dir, "bad.trc"))
	cmd.Env = append(os.Environ(), "WRUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("wrun = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "spec bad: rank 0: close without an open file") {
		t.Errorf("wrun output lacks the spec error:\n%s", out)
	}
	if strings.Contains(string(out), "panic") || strings.Contains(string(out), "goroutine") {
		t.Errorf("wrun panicked:\n%s", out)
	}
}
