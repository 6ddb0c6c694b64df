package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunShortSimulation(t *testing.T) {
	args := []string{"-strategy", "rh", "-target", "16", "-epochs", "2", "-seed", "3", "-per-epoch"}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllMechanisms(t *testing.T) {
	for _, s := range []string{"at", "opt", "rh", "adaptive"} {
		if err := run([]string{"-strategy", s, "-epochs", "1"}, io.Discard); err != nil {
			t.Errorf("strategy %s: %v", s, err)
		}
	}
}

// TestRunMatchesGolden pins snipsim's printed output byte for byte in
// each of its three modes. The goldens in testdata/ were captured from
// the binary that still had a -mechanism flag (-mechanism rh and
// -mechanism adaptive); the -strategy aliases must print the same.
func TestRunMatchesGolden(t *testing.T) {
	modes := []struct {
		suffix string
		args   []string
	}{
		{"", nil},
		{"-replications", []string{"-replications", "3"}},
		{"-fleet", []string{"-fleet", "-fleet-nodes", "8"}},
	}
	for _, strat := range []string{"rh", "adaptive"} {
		for _, m := range modes {
			name := strat + m.suffix
			t.Run(name, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				args := append([]string{"-strategy", strat, "-epochs", "2"}, m.args...)
				if err := run(args, &out); err != nil {
					t.Fatalf("run %v: %v", args, err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("run %v output differs from %s.golden:\ngot:\n%s\nwant:\n%s", args, name, out.Bytes(), want)
				}
			})
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown strategy", args: []string{"-strategy", "nope"}},
		{name: "bad flag", args: []string{"-bogus"}},
		{name: "bad epochs", args: []string{"-strategy", "rh", "-epochs", "0"}},
		{name: "bad loss", args: []string{"-strategy", "rh", "-loss", "1.5"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, io.Discard); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}
