package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runAsMainEnv makes the test binary behave as the toposhot command, so a
// test can run the real CLI end to end in a child process.
const runAsMainEnv = "TOPOSHOT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runToposhot runs the command with args in a child process, failing the
// test on a non-zero exit.
func runToposhot(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("toposhot %v: %v\n%s", args, err, stderr.Bytes())
	}
}

// TestCheckpointFilesDeterministic pins that two same-seed runs write
// byte-identical checkpoint files, for a census campaign and for a -track
// run. The NodeID→vertex pairs come from a map, so they must be written in
// a fixed order.
func TestCheckpointFilesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small campaigns")
	}
	cases := []struct {
		name string
		args []string
	}{
		{"census", []string{"-n", "40", "-k", "8", "-seed", "7", "-checkpoint-every", "1"}},
		{"track", []string{"-track", "-n", "40", "-k", "8", "-seed", "7", "-track-ticks", "3"}},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var files [2][]byte
			for i := range files {
				path := filepath.Join(dir, c.name+string(rune('a'+i))+".ckpt")
				args := append([]string{"-checkpoint", path, "-log-level", "off", "-out", os.DevNull}, c.args...)
				runToposhot(t, args...)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				files[i] = data
			}
			if !bytes.Equal(files[0], files[1]) {
				t.Fatalf("same-seed checkpoint files differ (%d vs %d bytes)", len(files[0]), len(files[1]))
			}
		})
	}
}
