package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrClosed is returned by every write to a store after Close: a run that
// outlives shutdown loses its checkpoint, not the process.
var ErrClosed = errors.New("store: closed")

// DefaultMaxTerminalJobs is the default of Options.MaxTerminalJobs.
const DefaultMaxTerminalJobs = 1024

// Options tunes a Store.
type Options struct {
	// Sync / Interval select the WAL fsync policy (default SyncAlways).
	Sync     SyncPolicy
	Interval time.Duration
	// CompactAt triggers snapshot+compaction once the WAL exceeds this
	// many bytes (default 8 MB; checkpoints dominate WAL volume).
	CompactAt int64
	// MaxTerminalJobs bounds how many finished job records the store
	// retains (default DefaultMaxTerminalJobs). Pending jobs are never
	// dropped.
	MaxTerminalJobs int
	// MaxResults bounds the persistent result cache (default 1024).
	MaxResults int
}

func (o Options) withDefaults() Options {
	if o.CompactAt <= 0 {
		o.CompactAt = 8 << 20
	}
	if o.MaxTerminalJobs <= 0 {
		o.MaxTerminalJobs = DefaultMaxTerminalJobs
	}
	if o.MaxResults <= 0 {
		o.MaxResults = 1024
	}
	return o
}

// JobRecord is the durable view of one job: the accepted spec plus, once
// the job ends, its terminal state. A record with State == "" is pending —
// accepted but not finished — and is re-enqueued on recovery.
type JobRecord struct {
	ID        string          `json:"id"`
	Hash      string          `json:"hash"`
	Spec      json.RawMessage `json:"spec"`
	Submitted time.Time       `json:"submitted"`
	State     string          `json:"state,omitempty"`
	Error     string          `json:"error,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Finished  time.Time       `json:"finished,omitempty"`
}

// Pending reports whether the job was accepted but never reached a
// terminal state (the daemon died first).
func (r *JobRecord) Pending() bool { return r.State == "" }

// ResultEntry is one persistent result-cache entry: the content hash of a
// normalized spec and the serialized front it deterministically produces.
type ResultEntry struct {
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
}

// record is the WAL envelope. One record type per mutation keeps replay a
// pure fold over the log.
type record struct {
	Type    string          `json:"t"` // accept | finish | ckpt | ckpt-clear
	ID      string          `json:"id,omitempty"`
	Hash    string          `json:"h,omitempty"`
	State   string          `json:"s,omitempty"`
	Error   string          `json:"e,omitempty"`
	Cached  bool            `json:"c,omitempty"`
	Time    time.Time       `json:"ts,omitempty"`
	Payload json.RawMessage `json:"p,omitempty"`
}

// snapshotState is the compaction snapshot: the whole store state in one
// JSON document, written atomically (tmp + rename) before the WAL resets.
type snapshotState struct {
	NextSeq     int64         `json:"next_seq"`
	Jobs        []*JobRecord  `json:"jobs"`
	Results     []ResultEntry `json:"results"`
	Checkpoints []ResultEntry `json:"checkpoints"` // same shape: hash → payload
}

// Stats are the store gauges surfaced in /metrics.
type Stats struct {
	WALBytes    int64 `json:"wal_bytes"`
	Appends     int64 `json:"appends"`
	Syncs       int64 `json:"syncs"`
	Compactions int64 `json:"compactions"`
	TornBytes   int64 `json:"torn_bytes_truncated"`
	PendingJobs int   `json:"pending_jobs"`
	Jobs        int   `json:"jobs"`
	Results     int   `json:"results"`
	Checkpoints int   `json:"checkpoints"`
}

// Store is the durable run store of clrearlyd: a job log (accepted specs
// and terminal results), a content-addressed persistent result cache, and
// GA run checkpoints — all journaled through one WAL with periodic
// snapshot+compaction. Safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	dir string
	opt Options
	wal *WAL

	jobs        map[string]*JobRecord
	order       []string // acceptance order
	results     map[string]json.RawMessage
	resultOrder []string // insertion order, oldest first
	checkpoints map[string]json.RawMessage

	compactions int64
}

// Open loads (creating if needed) the store under dir: the snapshot is
// read first, the WAL replayed over it, and the torn tail truncated.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:         dir,
		opt:         opt,
		jobs:        make(map[string]*JobRecord),
		results:     make(map[string]json.RawMessage),
		checkpoints: make(map[string]json.RawMessage),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal"), func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A CRC-valid but undecodable record means a writer bug, not
			// media corruption; fail loudly rather than silently dropping
			// acknowledged state.
			return fmt.Errorf("store: decoding wal record: %w", err)
		}
		s.apply(&rec)
		return nil
	}, WALOptions{Sync: opt.Sync, Interval: opt.Interval})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot") }

func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(s.snapshotPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshotState
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: decoding snapshot: %w", err)
	}
	for _, j := range snap.Jobs {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	for _, r := range snap.Results {
		s.results[r.Hash] = r.Payload
		s.resultOrder = append(s.resultOrder, r.Hash)
	}
	for _, c := range snap.Checkpoints {
		s.checkpoints[c.Hash] = c.Payload
	}
	return nil
}

// apply folds one record into the in-memory state. Replay and live appends
// share it, so recovery is replay-by-construction.
func (s *Store) apply(rec *record) {
	switch rec.Type {
	case "accept":
		if _, ok := s.jobs[rec.ID]; ok {
			return // duplicate replay; keep first
		}
		s.jobs[rec.ID] = &JobRecord{
			ID:        rec.ID,
			Hash:      rec.Hash,
			Spec:      append(json.RawMessage(nil), rec.Payload...),
			Submitted: rec.Time,
		}
		s.order = append(s.order, rec.ID)
	case "finish":
		j, ok := s.jobs[rec.ID]
		if !ok {
			return // job record already trimmed
		}
		j.State = rec.State
		j.Error = rec.Error
		j.Cached = rec.Cached
		j.Finished = rec.Time
		if rec.State == "done" && len(rec.Payload) > 0 {
			s.addResult(j.Hash, append(json.RawMessage(nil), rec.Payload...))
		}
		s.trimTerminal()
	case "ckpt":
		s.checkpoints[rec.Hash] = append(json.RawMessage(nil), rec.Payload...)
	case "ckpt-clear":
		delete(s.checkpoints, rec.Hash)
	}
}

func (s *Store) addResult(hash string, payload json.RawMessage) {
	if _, ok := s.results[hash]; !ok {
		s.resultOrder = append(s.resultOrder, hash)
	}
	s.results[hash] = payload
	for len(s.resultOrder) > s.opt.MaxResults {
		delete(s.results, s.resultOrder[0])
		s.resultOrder = s.resultOrder[1:]
	}
}

// trimTerminal drops the oldest terminal job records beyond the cap;
// pending jobs always survive.
func (s *Store) trimTerminal() {
	terminal := 0
	for _, id := range s.order {
		if !s.jobs[id].Pending() {
			terminal++
		}
	}
	if terminal <= s.opt.MaxTerminalJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if terminal > s.opt.MaxTerminalJobs && !s.jobs[id].Pending() {
			delete(s.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// appendLocked journals a record and compacts if the WAL has outgrown the
// threshold. Callers hold s.mu.
func (s *Store) appendLocked(rec *record) error {
	if s.wal == nil {
		return ErrClosed
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	if err := s.wal.Append(payload); err != nil {
		return err
	}
	s.apply(rec)
	if s.wal.Size() > s.opt.CompactAt {
		return s.compactLocked()
	}
	return nil
}

// AcceptJob journals an accepted job spec. Once it returns under the
// SyncAlways policy, the job survives any crash and will be re-enqueued on
// recovery.
func (s *Store) AcceptJob(id, hash string, spec json.RawMessage, submitted time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&record{Type: "accept", ID: id, Hash: hash, Payload: spec, Time: submitted})
}

// FinishJob journals a job's terminal state. For state "done", result (the
// serialized front) becomes the hash's persistent result-cache entry; pass
// nil when the result is already stored (a cache-hit job).
func (s *Store) FinishJob(id, state, hash, errMsg string, cached bool, result json.RawMessage, finished time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&record{
		Type: "finish", ID: id, Hash: hash, State: state, Error: errMsg,
		Cached: cached, Payload: result, Time: finished,
	})
}

// SaveCheckpoint journals a GA run checkpoint for the spec hash,
// superseding any previous one.
func (s *Store) SaveCheckpoint(hash string, state json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(&record{Type: "ckpt", Hash: hash, Payload: state})
}

// ClearCheckpoint drops the hash's checkpoint (the run finished or was
// cancelled for good).
func (s *Store) ClearCheckpoint(hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.checkpoints[hash]; !ok {
		return nil
	}
	return s.appendLocked(&record{Type: "ckpt-clear", Hash: hash})
}

// Checkpoint returns the saved checkpoint for a spec hash.
func (s *Store) Checkpoint(hash string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.checkpoints[hash]
	return p, ok
}

// Result returns the persistent result-cache entry for a spec hash.
func (s *Store) Result(hash string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.results[hash]
	return p, ok
}

// Results lists the persistent result cache oldest-first, so replaying it
// into an LRU leaves the newest entries most recently used.
func (s *Store) Results() []ResultEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResultEntry, 0, len(s.resultOrder))
	for _, hash := range s.resultOrder {
		out = append(out, ResultEntry{Hash: hash, Payload: s.results[hash]})
	}
	return out
}

// Jobs lists every retained job record in acceptance order.
func (s *Store) Jobs() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Compact snapshots the state and resets the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	snap := snapshotState{}
	for _, id := range s.order {
		snap.Jobs = append(snap.Jobs, s.jobs[id])
	}
	for _, hash := range s.resultOrder {
		snap.Results = append(snap.Results, ResultEntry{Hash: hash, Payload: s.results[hash]})
	}
	for hash, p := range s.checkpoints {
		snap.Checkpoints = append(snap.Checkpoints, ResultEntry{Hash: hash, Payload: p})
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		// Persist the rename itself; best-effort on filesystems that
		// reject directory fsync.
		d.Sync()
		d.Close()
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.compactions++
	return nil
}

// Stats reports the store gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Compactions: s.compactions,
		Jobs:        len(s.jobs),
		Results:     len(s.results),
		Checkpoints: len(s.checkpoints),
	}
	for _, j := range s.jobs {
		if j.Pending() {
			st.PendingJobs++
		}
	}
	if s.wal != nil {
		s.wal.mu.Lock()
		st.WALBytes = s.wal.size
		st.Appends = s.wal.appends
		st.Syncs = s.wal.syncs
		st.TornBytes = s.wal.truncated
		s.wal.mu.Unlock()
	}
	return st
}

// Close syncs and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
