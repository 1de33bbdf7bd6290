package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// fuzzMaxCells bounds the grids FuzzRunRequest lets through to
// compilation, keeping each iteration cheap.
const fuzzMaxCells = 64

// FuzzRunRequest posts arbitrary bodies to POST /v1/runs on a service
// that is already closed, so every body that passes validation reaches
// adopt and is answered 503 without simulating anything. The handler
// must answer 400, 413 or 503 with a decodable apiError, and every
// body it let through must carry a deadline that fits a non-negative
// time.Duration and a grid within MaxCells.
func FuzzRunRequest(f *testing.F) {
	svc, err := New(Options{MaxCells: fuzzMaxCells})
	if err != nil {
		f.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		svc.handleSubmitRun(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var apiErr apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
			t.Fatalf("status %d body %q is not an apiError (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusServiceUnavailable {
			return
		}
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("503 for an undecodable body %q: %v", body, err)
		}
		if d := time.Duration(req.DeadlineS * float64(time.Second)); d < 0 {
			t.Fatalf("accepted deadline_s %g converts to %v", req.DeadlineS, d)
		}
		spec, err := req.specDoc().Spec()
		if err != nil {
			t.Fatalf("503 for an invalid spec %q: %v", body, err)
		}
		if n := spec.Size(); n > fuzzMaxCells {
			t.Fatalf("503 for a %d-cell grid (limit %d): %q", n, fuzzMaxCells, body)
		}
	})
}

// referenceReplay is the journal replay contract, written line by line
// independently of replayJournal: a job is pending when its last
// complete record is "submitted"; pending jobs come back in the order
// of their first submission, each carrying its latest submitted
// record. Torn or corrupt lines (and a CR before the newline) are
// skipped.
func referenceReplay(data []byte) []journalRecord {
	first := make(map[string]int)
	live := make(map[string]journalRecord)
	for i, line := range bytes.Split(data, []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(bytes.TrimSuffix(line, []byte("\r")), &rec) != nil {
			continue
		}
		if rec.Op != opSubmitted {
			delete(live, rec.ID)
			continue
		}
		if _, seen := first[rec.ID]; !seen {
			first[rec.ID] = i
		}
		live[rec.ID] = rec
	}
	pending := make([]journalRecord, 0, len(live))
	for _, rec := range live {
		pending = append(pending, rec)
	}
	sort.Slice(pending, func(a, b int) bool { return first[pending[a].ID] < first[pending[b].ID] })
	return pending
}

// recordsJSON renders records for comparison: compaction re-encodes
// documents, so raw bytes are compared in their compacted form.
func recordsJSON(t *testing.T, recs []journalRecord) string {
	t.Helper()
	if len(recs) == 0 {
		return "[]"
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatalf("encoding records: %v", err)
	}
	return string(data)
}

// FuzzJournalReplay writes arbitrary bytes as the journal and opens it:
// openJournal must not fail or panic, must return exactly the
// reference replay's pending list — submitted records only, unique
// ids, first-submission order — and reopening the compacted file must
// yield the same list.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, pending, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("openJournal(%q): %v", data, err)
		}
		jl.close()
		ids := make(map[string]bool, len(pending))
		for _, rec := range pending {
			if rec.Op != opSubmitted {
				t.Fatalf("pending holds a %q record for %q", rec.Op, rec.ID)
			}
			if ids[rec.ID] {
				t.Fatalf("pending holds %q twice for %q", rec.ID, data)
			}
			ids[rec.ID] = true
		}
		got, want := recordsJSON(t, pending), recordsJSON(t, referenceReplay(data))
		if got != want {
			t.Fatalf("replay of %q:\n got %s\nwant %s", data, got, want)
		}
		jl, again, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		jl.close()
		if reopened := recordsJSON(t, again); reopened != got {
			t.Fatalf("compaction changed the pending list:\n before %s\n after  %s", got, reopened)
		}
	})
}
