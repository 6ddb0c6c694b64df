package main

import (
	"strings"
	"testing"
)

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -list = %d, stderr %q", code, errOut.String())
	}
	for _, name := range []string{"detclock", "floatexact", "durability", "locksafe", "hotpath", "deadpkg"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-checks", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run -checks nosuch = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errOut.String())
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run with bad flag = %d, want 2", code)
	}
}
