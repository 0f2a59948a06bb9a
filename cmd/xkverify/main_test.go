package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadTrials: a trial count below 1 would check nothing, so it
// is a usage error (status 2) naming the flag, not a success.
func TestRunRejectsBadTrials(t *testing.T) {
	for _, trials := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-trials", trials}, &stdout, &stderr); code != 2 {
			t.Errorf("-trials %s: exit status %d, want 2", trials, code)
		}
		if !strings.Contains(stderr.String(), "-trials must be >= 1") {
			t.Errorf("-trials %s: stderr %q does not name the flag", trials, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-trials %s: printed %q, want nothing on stdout", trials, stdout.String())
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit status %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-trials") {
		t.Fatalf("-h: usage %q does not list -trials", stderr.String())
	}
}

func TestRunOneTrialVerifies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trials", "1", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "all routines verified: 1 trials x 3 configs") {
		t.Fatalf("stdout %q", stdout.String())
	}
}
