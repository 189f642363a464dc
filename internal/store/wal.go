// Package store is the stdlib-only durability subsystem of the clrearlyd
// job service: an append-only CRC32C-framed write-ahead log with a
// configurable fsync policy and torn-tail recovery, plus a typed job/
// result/checkpoint store with snapshot+compaction built on top of it.
// The store knows nothing about the service's wire types — payloads are
// opaque JSON, so the dependency points service → store, never back.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval batches fsyncs on a background timer (SyncInterval
	// option, default 100ms): bounded data loss, much higher throughput.
	SyncInterval
	// SyncNever leaves flushing to the OS: records survive process
	// crashes (the kernel holds the pages) but not power loss.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval", "batch":
		return SyncInterval, nil
	case "never", "off":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Frame layout: every record is [length uint32 LE][crc32c uint32 LE][payload].
// CRC32C (Castagnoli) covers the payload only; the length field is sanity-
// bounded by maxRecordLen, so a corrupt length cannot force a huge read.
const (
	frameHeaderLen = 8
	// maxRecordLen bounds one record (checkpoint payloads of big runs are
	// a few MB; 64 MB leaves ample headroom while keeping corrupt lengths
	// from looking plausible).
	maxRecordLen = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// replayFrames scans data for valid records, calling fn for each, and
// returns the length of the valid prefix. Scanning stops at the first
// torn or corrupt frame — everything after it is unreachable (frames are
// not self-synchronizing), so recovery truncates there. fn's payload is a
// sub-slice of data; callers must copy if they retain it.
func replayFrames(data []byte, fn func(payload []byte) error) (int64, error) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return int64(off), nil // torn or absent header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordLen {
			return int64(off), nil // implausible length: corrupt frame
		}
		if len(rest) < frameHeaderLen+int(n) {
			return int64(off), nil // torn payload
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return int64(off), nil // corrupt payload
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), err
			}
		}
		off += frameHeaderLen + int(n)
	}
}

// WAL is an append-only, CRC32C-framed, length-prefixed log. Opening
// replays the valid record prefix and truncates any torn or corrupt tail
// (the result of a crash mid-append), so an append either becomes a whole
// record or never happened. Safe for concurrent use.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	policy SyncPolicy
	dirty  bool // unsynced appends outstanding (SyncInterval)

	stopSync chan struct{} // closes the background sync loop
	syncDone chan struct{}

	appends   int64
	syncs     int64
	truncated int64 // bytes dropped from the tail at open
}

// WALOptions tunes OpenWAL.
type WALOptions struct {
	Sync SyncPolicy
	// Interval is the background fsync period for SyncInterval (default
	// 100ms).
	Interval time.Duration
}

// OpenWAL opens (creating if needed) the log at path, replays every valid
// record into fn, truncates the torn tail, and returns the WAL positioned
// for appends.
func OpenWAL(path string, fn func(payload []byte) error, opt WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading wal: %w", err)
	}
	valid, err := replayFrames(data, fn)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: replaying wal: %w", err)
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing truncated wal: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking wal end: %w", err)
	}
	w := &WAL{
		f:         f,
		path:      path,
		size:      valid,
		policy:    opt.Sync,
		truncated: int64(len(data)) - valid,
	}
	if opt.Sync == SyncInterval {
		ivl := opt.Interval
		if ivl <= 0 {
			ivl = 100 * time.Millisecond
		}
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop(ivl)
	}
	return w, nil
}

func (w *WAL) syncLoop(every time.Duration) {
	defer close(w.syncDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && w.f != nil {
				w.f.Sync()
				w.syncs++
				w.dirty = false
			}
			w.mu.Unlock()
		}
	}
}

// Append writes one framed record. Under SyncAlways it returns after the
// record is fsynced; other policies return once the write is buffered.
func (w *WAL) Append(payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordLen)
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: wal is closed")
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	w.size += int64(len(frame))
	w.appends++
	switch w.policy {
	case SyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing wal: %w", err)
		}
		w.syncs++
	case SyncInterval:
		w.dirty = true
	}
	return nil
}

// Reset truncates the log to empty — the compaction step after the state
// it describes has been captured in a snapshot.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: wal is closed")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewinding wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing reset wal: %w", err)
	}
	w.size = 0
	w.dirty = false
	w.syncs++
	return nil
}

// Size is the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close syncs outstanding appends and releases the file.
func (w *WAL) Close() error {
	if w.stopSync != nil {
		close(w.stopSync)
		<-w.syncDone
		w.stopSync = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
