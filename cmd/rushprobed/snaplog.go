package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rushprobe"
	"rushprobe/internal/wire"
)

// snaplogCompactRatio triggers compaction once the delta tail outgrows
// the base snapshot: past 1x, replaying the log costs more than a full
// rewrite would.
const snaplogCompactRatio = 1.0

// snaplogStore manages the daemon's incremental binary snapshot log:
// restore at startup (torn tails recovered loudly, corruption fatal),
// periodic dirty-node delta appends with fsync, and compaction — a
// full fsync-before-rename rewrite — when the delta tail outgrows the
// base, on POST /v1/snapshot, and at shutdown.
type snaplogStore struct {
	path   string
	fleet  *rushprobe.Fleet
	logger *slog.Logger

	mu          sync.Mutex
	file        *os.File // O_APPEND handle between compactions
	base        int64    // bytes of the last full snapshot
	appended    int64    // delta bytes since the last compaction
	deltas      int64
	deltaNodes  int64
	compactions int64
	// lastRestore and lastSave split the startup restore and the most
	// recent compaction into phases for /v1/healthz (nil until each
	// has happened once).
	lastRestore *wire.RestorePhases
	lastSave    *wire.SavePhases
}

func newSnaplogStore(f *rushprobe.Fleet, path string, logger *slog.Logger) *snaplogStore {
	return &snaplogStore{path: path, fleet: f, logger: logger}
}

// restore loads the log into the fleet. A missing file is a fresh
// start; a torn tail (crash mid-append) is dropped and logged loudly;
// anything else — corruption, config mismatch, an empty file — is a
// hard error naming the path, never a silent fresh start.
func (st *snaplogStore) restore() (bool, error) {
	file, err := os.Open(st.path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer file.Close()
	t0 := time.Now()
	info, err := st.fleet.RestoreBinary(file)
	if err != nil {
		return false, fmt.Errorf("snapshot log %s is not restorable (remove or replace it to start fresh): %w", st.path, err)
	}
	if info.Truncated {
		st.logger.Warn("snapshot log has a torn tail — dropped it, recovered the valid prefix",
			"path", st.path, "tornOffset", info.TornOffset,
			"frames", info.Frames, "nodes", info.Nodes)
	}
	total := time.Since(t0)
	st.mu.Lock()
	st.lastRestore = &wire.RestorePhases{
		ReadDecodeSeconds: info.Decode.Seconds(),
		AdmitSeconds:      info.Admit.Seconds(),
		TotalSeconds:      total.Seconds(),
	}
	st.mu.Unlock()
	st.logger.Info("snapshot log restored",
		"path", st.path, "nodes", info.Nodes, "frames", info.Frames,
		"generations", info.Generations, "duration", total,
		"decode", info.Decode, "admit", info.Admit)
	return true, nil
}

// open (re)opens the append handle and records the current size as the
// base. Called after restore/compact with the lock already held or
// before any concurrency exists.
func (st *snaplogStore) open() error {
	file, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return err
	}
	st.file = file
	st.base = fi.Size()
	st.appended = 0
	return nil
}

// countingWriter tracks delta bytes so the compaction trigger can
// compare tail size against the base snapshot.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// appendDelta appends the dirty nodes to the log and fsyncs. When the
// accumulated delta tail outgrows the base snapshot it compacts
// instead. Idle intervals (no dirty nodes) cost one counter scan and
// no I/O.
func (st *snaplogStore) appendDelta() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.file == nil {
		return fmt.Errorf("snapshot log %s is not open", st.path)
	}
	if st.fleet.DirtyNodes() == 0 {
		return nil
	}
	cw := &countingWriter{w: st.file}
	nodes, err := st.fleet.SnapshotBinaryDelta(cw)
	st.appended += cw.n
	if err != nil {
		// The tail may now hold a torn frame. Leave it: restore drops
		// torn tails, and the next compaction rewrites the whole log.
		return fmt.Errorf("snapshot log %s: delta append: %w", st.path, err)
	}
	if err := st.file.Sync(); err != nil {
		return fmt.Errorf("snapshot log %s: sync: %w", st.path, err)
	}
	st.deltas++
	st.deltaNodes += int64(nodes)
	if float64(st.appended) > snaplogCompactRatio*float64(st.base) {
		return st.compactLocked()
	}
	return nil
}

// compact rewrites the log as one full snapshot, atomically and
// durably (temp + fsync + rename), and reopens the append handle.
func (st *snaplogStore) compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compactLocked()
}

func (st *snaplogStore) compactLocked() error {
	t0 := time.Now()
	dir := filepath.Dir(st.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(st.path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var phases wire.SavePhases
	t := time.Now()
	if err := st.fleet.SnapshotBinary(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot log %s: compact: %w", st.path, err)
	}
	phases.EncodeWriteSeconds = time.Since(t).Seconds()
	t = time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	phases.FsyncSeconds = time.Since(t).Seconds()
	size, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	t = time.Now()
	if err := os.Rename(tmp.Name(), st.path); err != nil {
		return err
	}
	phases.RenameSeconds = time.Since(t).Seconds()
	if st.file != nil {
		//rushlint:allow durability — closing the pre-compaction inode: the rename already published the new log, so this close failing loses nothing
		st.file.Close() // old inode, fully superseded by the rename
		st.file = nil
	}
	if err := st.open(); err != nil {
		return err
	}
	st.base = size
	st.compactions++
	phases.TotalSeconds = time.Since(t0).Seconds()
	st.lastSave = &phases
	return nil
}

// phases returns the last restore's and compaction's phase splits.
func (st *snaplogStore) phases() (*wire.RestorePhases, *wire.SavePhases) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastRestore, st.lastSave
}

// stats snapshots the store's counters for /metrics.
func (st *snaplogStore) stats() (base, appended, deltas, deltaNodes, compactions int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.base, st.appended, st.deltas, st.deltaNodes, st.compactions
}

// close compacts one last time (shutdown persistence) and releases the
// append handle.
func (st *snaplogStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.compactLocked(); err != nil {
		return err
	}
	if st.file == nil {
		return nil
	}
	err := st.file.Close()
	st.file = nil
	return err
}
