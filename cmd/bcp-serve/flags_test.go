package main

import (
	"errors"
	"testing"
	"time"

	"bulktx/internal/cli"
)

// goodFlags is a valid baseline each case mutates.
func goodFlags() flagValues {
	return flagValues{
		workers: 0, queue: 16, jobWorkers: 1,
		maxCells: 100, maxJobs: 64,
		drain: 30 * time.Second, readHdrTO: 10 * time.Second,
		readTO: 30 * time.Second, writeTO: 0, idleTO: 2 * time.Minute,
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(goodFlags()); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
	// -job-workers 0 is the default: one job executor per -workers slot.
	t.Run("zero job workers", func(t *testing.T) {
		v := goodFlags()
		v.jobWorkers = 0
		if err := validateFlags(v); err != nil {
			t.Fatalf("-job-workers 0 rejected: %v", err)
		}
	})

	cases := []struct {
		name   string
		mutate func(*flagValues)
	}{
		{"negative workers", func(v *flagValues) { v.workers = -1 }},
		{"zero queue", func(v *flagValues) { v.queue = 0 }},
		{"negative job workers", func(v *flagValues) { v.jobWorkers = -1 }},
		{"zero max cells", func(v *flagValues) { v.maxCells = 0 }},
		{"zero max jobs", func(v *flagValues) { v.maxJobs = 0 }},
		{"zero drain timeout", func(v *flagValues) { v.drain = 0 }},
		{"negative read header timeout", func(v *flagValues) { v.readHdrTO = -time.Second }},
		{"negative read timeout", func(v *flagValues) { v.readTO = -time.Second }},
		{"negative write timeout", func(v *flagValues) { v.writeTO = -time.Second }},
		{"negative idle timeout", func(v *flagValues) { v.idleTO = -time.Second }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := goodFlags()
			c.mutate(&v)
			err := validateFlags(v)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			// Every rejection must be a usage error so main exits 2 with
			// the usage hint, per internal/cli conventions.
			var ue *cli.UsageError
			if !errors.As(err, &ue) {
				t.Errorf("error is %T, want *cli.UsageError: %v", err, err)
			}
		})
	}
}
