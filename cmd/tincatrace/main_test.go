package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRun replays a small synthesized trace with -trace-out and checks the
// Chrome trace it writes holds span events.
func TestRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"tincatrace", "-synth", "2000", "-trace-out", out}
	main()

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace holds no events")
	}
}
