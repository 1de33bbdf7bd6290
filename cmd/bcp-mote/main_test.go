package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bulktx"
	"bulktx/internal/cli"
)

// TestConfigValidate checks that the command line's unusable prototype
// values fail before any run, as usage errors (exit status 2).
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		field string // the FieldError's field, when Validate finds it
	}{
		{"threshold below message", []string{"-threshold", "16"}, ""},
		{"zero messages", []string{"-messages", "0"}, ""},
		{"zero interval", []string{"-interval", "0"}, "Rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			var u *cli.UsageError
			if !errors.As(err, &u) {
				t.Fatalf("run(%v) = %v, want a usage error", tc.args, err)
			}
			var fe *bulktx.ConfigFieldError
			if tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field) {
				t.Errorf("run(%v) = %v, want a %s FieldError", tc.args, err, tc.field)
			}
		})
	}
}

// A single run writes the dual run's trace as non-empty JSON lines.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mote.jsonl")
	if err := run([]string{"-threshold", "2000", "-messages", "100", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d is not JSON: %s", lines+1, sc.Bytes())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("empty trace")
	}
}
