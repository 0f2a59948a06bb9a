package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunSmallReplay: a small replay prints its report on stdout, nothing
// on stderr, and exits 0.
func TestRunSmallReplay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-requests", "40", "-parallel", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() == 0 || stderr.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q: want a report and no diagnostics", stdout.String(), stderr.String())
	}
}

// TestRunRejectsBadFlags: a negative timeout and an unknown fleet platform
// are usage errors (status 2) that name the problem on stderr and replay
// nothing.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-fleet", "bogus"}, "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("run(%q) stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed a report:\n%s", tc.args, stdout.String())
		}
	}
}

// TestRunCheckSummaryOnStderr: -check writes the audit summary on stderr,
// so the report on stdout is the unaudited one.
func TestRunCheckSummaryOnStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-requests", "40", "-parallel", "1", "-check"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "coherence audit: ") || !strings.HasSuffix(stderr.String(), " 0 violations\n") {
		t.Fatalf("stderr %q is not the audit summary", stderr.String())
	}
	if strings.Contains(stdout.String(), "coherence audit") {
		t.Fatalf("audit summary on stdout:\n%s", stdout.String())
	}
}

// TestRunJSONQuiet: -json - -quiet writes the metrics snapshot, and only
// it, on stdout.
func TestRunJSONQuiet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-requests", "40", "-parallel", "1", "-json", "-", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	var snap map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	if len(snap) == 0 {
		t.Fatal("empty metrics snapshot")
	}
}
