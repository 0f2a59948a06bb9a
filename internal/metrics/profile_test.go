package metrics

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfilesWritesFiles: both profile files exist and are non-empty
// once stop returns.
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestStartProfilesBadPath: an uncreatable CPU profile path fails up
// front, and an uncreatable memory profile path fails at stop.
func TestStartProfilesBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := StartProfiles(bad, ""); err == nil {
		t.Fatal("StartProfiles accepted an uncreatable CPU profile path")
	}
	stop, err := StartProfiles("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop accepted an uncreatable memory profile path")
	}
}
