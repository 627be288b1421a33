package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rotaryclk/internal/obs"
)

// TestRunWritesMetrics drives the command end to end on a small circuit:
// it exits 0, prints the CPU split read from the span tree, and -metrics
// writes a JSON snapshot whose span tree has core.Run -> stage1.place.
func TestRunWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = []string{"rotaryflow", "-circuit", "s9234", "-scale", "0.1", "-metrics", path}
	flag.CommandLine = flag.NewFlagSet("rotaryflow", flag.ContinueOnError)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run()
	w.Close()
	stdout := <-out
	os.Stdout = oldStdout

	if code != 0 {
		t.Fatalf("run() = %d, want 0; stdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "CPU: placement ") {
		t.Errorf("stdout has no CPU line:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v", err)
	}
	for _, root := range snap.Spans {
		if root.Name != "core.Run" {
			continue
		}
		for _, c := range root.Children {
			if c.Name == "stage1.place" {
				return
			}
		}
	}
	t.Errorf("metrics span tree has no core.Run -> stage1.place: %s", data)
}
