package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRemovedBenchFlagsRejected: the six per-PR benchmark flags are gone
// (host-time measurement is `go run ./bench`), so each is an unknown flag:
// usage on stderr, exit status 2, nothing run.
func TestRemovedBenchFlagsRejected(t *testing.T) {
	for _, name := range []string{"searchbench", "collbench", "tracebench", "overlapbench", "hierbench", "servicebench"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-" + name, "x.json"}, &stdout, &stderr); code != 2 {
			t.Errorf("-%s: exit status %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: stderr does not name the flag:\n%s", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-%s: printed to stdout:\n%s", name, stdout.String())
		}
	}
}

// TestListAndUsage: -list prints the registry including the overlap
// figure, and the usage text offers no -*bench flag.
func TestListAndUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit status %d:\n%s", code, stderr.String())
	}
	ids := strings.Fields(stdout.String())
	if len(ids) != 18 || !strings.Contains(stdout.String(), "overlap\n") {
		t.Errorf("-list = %v, want the 18 figure ids including overlap", ids)
	}
	stderr.Reset()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit status %d", code)
	}
	if regexp.MustCompile(`(?m)^\s+-\w*bench\b`).MatchString(stderr.String()) {
		t.Errorf("usage still offers a bench flag:\n%s", stderr.String())
	}
}
