package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bulktx/internal/faultinject"
)

// Journal operations. A job's journal lifecycle is one "submitted"
// record followed by exactly one terminal record; a "submitted" with
// no terminal is an unfinished job that recovery resubmits.
const (
	// opSubmitted records an accepted job: its content-keyed id, kind,
	// spec document and deadline — everything needed to resubmit it.
	opSubmitted = "submitted"
	// opDone, opFailed and opCanceled are the terminal operations.
	opDone     = "done"
	opFailed   = "failed"
	opCanceled = "canceled"
	// opDropped retires a submitted record without execution — written
	// when a journaled spec no longer compiles (or re-keys) after a
	// schema change, so it cannot replay forever.
	opDropped = "dropped"
)

// journalFile is the journal's name under the state directory.
const journalFile = "journal.jsonl"

// journalRecord is one line of the append-only job journal.
type journalRecord struct {
	// Op is the operation: submitted, done, failed, canceled, dropped.
	Op string `json:"op"`
	// ID is the job's content-keyed identifier.
	ID string `json:"id"`
	// Kind is "run" or "sweep" (submitted records only).
	Kind string `json:"kind,omitempty"`
	// Doc is the submitted spec document (the lowered sweep.SpecDoc
	// JSON), sufficient to recompile the job after a restart.
	Doc json.RawMessage `json:"doc,omitempty"`
	// DeadlineS is the job's execution deadline in seconds (0 = none).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Error carries the failure of a failed terminal record.
	Error string `json:"error,omitempty"`
	// At stamps when the record was written.
	At time.Time `json:"at"`
}

// journal is the append-only, fsynced job journal under a state
// directory. Appends never fail the calling job: write errors go to
// onError (the service logs and counts them) and the service keeps
// running — availability over durability, the tradeoff documented in
// docs/OPERATIONS.md.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	onError func(error)
}

// openJournal opens (creating if absent) the journal under dir,
// replays it, compacts it down to the unfinished submissions, and
// returns those submissions in original order — the jobs a restarted
// service must resubmit. A truncated final line (torn write at crash)
// is tolerated and discarded.
func openJournal(dir string, onError func(error)) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating state dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	pending, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}

	// Compact: rewrite the journal to hold only the unfinished
	// submissions, atomically, so the file stays proportional to the
	// live job backlog instead of the service's whole history.
	tmp, err := os.CreateTemp(dir, journalFile+".tmp-*")
	if err != nil {
		return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
	}
	for _, rec := range pending {
		line, err := json.Marshal(rec)
		if err == nil {
			_, err = fmt.Fprintf(tmp, "%s\n", line)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	if onError == nil {
		onError = func(error) {}
	}
	return &journal{f: f, path: path, onError: onError}, pending, nil
}

// replayJournal reads the journal and returns the unfinished
// submissions in first-submission order. Records are processed in file
// order, so a resubmission after a terminal record re-adds the job.
func replayJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}
	defer f.Close()

	open := make(map[string]journalRecord)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// A torn or corrupt line — most likely the crash the journal
			// exists to survive hit mid-append. Skip it; every complete
			// record still counts.
			continue
		}
		if rec.Op == opSubmitted {
			if _, dup := open[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			open[rec.ID] = rec
			continue
		}
		delete(open, rec.ID)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}
	// A job resubmitted after its terminal record appears in order
	// twice; emit it once, at its first submission, so recovery never
	// adopts it twice (the second adoption would dedupe and journal a
	// drop for the live job).
	var pending []journalRecord
	for _, id := range order {
		if rec, ok := open[id]; ok {
			pending = append(pending, rec)
			delete(open, id)
		}
	}
	return pending, nil
}

// append writes one record followed by an fsync, so an acknowledged
// submission survives an immediate power cut. Errors are reported to
// onError, never to the caller: losing durability must not fail jobs.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	rec.At = time.Now().UTC()
	line, err := json.Marshal(rec)
	if err == nil {
		err = faultinject.Error(faultinject.JournalAppend, rec.ID)
	}
	if err == nil {
		jl.mu.Lock()
		_, err = fmt.Fprintf(jl.f, "%s\n", line)
		if err == nil {
			err = jl.f.Sync()
		}
		jl.mu.Unlock()
	}
	if err != nil {
		jl.onError(fmt.Errorf("service: journal append (%s %s): %w", rec.Op, rec.ID, err))
	}
}

// close releases the journal file.
func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Close() //nolint:errcheck // append already fsyncs; nothing left to flush
}
