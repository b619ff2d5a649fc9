package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs tracegen's main, not the tests, when TRACEGEN_ARGS
// holds its command line, so a test can check its output and exit
// status in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TRACEGEN_ARGS"); ok {
		os.Args = append([]string{"tracegen"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMeanUtilizationNaN: a NaN mean utilization exits 1 with an error
// naming the field and writes no trace. It used to pass validation and
// panic sizing the task slice.
func TestMeanUtilizationNaN(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TRACEGEN_ARGS=-mean-utilization NaN")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "MeanUtilization") || strings.Contains(stderr.String(), "panic") {
		t.Errorf("stderr %q, want an error naming MeanUtilization", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote %d bytes of trace", stdout.Len())
	}
}
