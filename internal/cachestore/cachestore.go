// Package cachestore persists the sweep engine's canonical-key cache
// as an append-only on-disk log, so cyclic-state simulations outlive
// the process that ran them. A Store is both ends of the engine's
// persistence seam (internal/sweep/persist.go): it implements
// sweep.CacheSink, appending one frame per newly simulated canonical
// orbit, and it replays its log through Engine.SeedCache on the next
// start — which is how ivmserved warm-loads a prior sweep's results
// (ivmsweep -cache-export / ivmserved -cache-dir; see
// docs/SERVING.md for the ops runbook).
//
// On-disk format (cache.log inside the store directory): an 8-byte
// magic "IVMCSTR1", then zero or more frames. Each frame is
//
//	uvarint payload length | 4-byte little-endian CRC32 (IEEE) of the
//	payload | payload
//
// and each payload is the varint encoding of one sweep.CacheRecord:
// family length + family bytes, then m, s, n_c, the CPU layout
// (count + values) and the canonical vector (count + values) as
// signed varints, then the bandwidth numerator and denominator.
// Records are content-addressed by the (family, m, s, n_c, CPUs,
// Vec) tuple — the same coordinates as the engine's in-RAM cache key.
// Put appends whatever the engine sends and keeps nothing per record,
// so the log may repeat an orbit (a shard drop or two workers missing
// one orbit at once re-simulate it; a repeated ivmsweep -cache-export
// into one directory repeats a whole run). Open drops the repeats and
// counts them, and once they pass 1/compactShare of the log's frames
// it rewrites the log without them, so no duplicate survives a reopen
// past that share.
//
// Recovery: a crash can leave a partial frame (or a torn write the
// CRC catches) at the tail. Open stops at the first bad frame,
// counts what it dropped, truncates the file back to the last good
// frame so future appends stay readable, and keeps every record
// before it — corruption costs a re-simulation, never an error from
// a healthy prefix.
package cachestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ivm/internal/rat"
	"ivm/internal/sweep"
)

// logMagic is the log file's format header; bump the trailing digit on
// incompatible layout changes.
const logMagic = "IVMCSTR1"

// LogName is the log's file name inside the store directory.
const LogName = "cache.log"

// compactShare sets when Open rewrites the log: once the frames that
// repeat an earlier frame's content address are more than
// 1/compactShare of all the frames it read. Below that share the
// repeats stay on disk, dropped at every Open but not worth a rewrite.
const compactShare = 4

// Store is a persistent set of cache records backed by one append-only
// log. While it serves it holds no per-record state: Put only appends,
// and the records Open loaded are dropped by ReleaseRecords once they
// have seeded an engine. All methods are safe for concurrent use; Put
// in particular is called from every engine worker goroutine.
type Store struct {
	path string

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	loaded  []sweep.CacheRecord
	frames  int
	dirty   bool
	lastErr error
	closed  bool
	stop    chan struct{}

	skipped    int
	truncated  int64
	duplicates int
	compacted  bool
}

// Health is the store's integrity summary for /healthz: the frame
// count, what the last Open dropped from a corrupt tail or as
// duplicates, and the most recent append/sync error (empty when
// healthy).
type Health struct {
	// Records counts frames, not distinct records: the frames in the
	// log when the last Open finished (duplicates included unless it
	// compacted them away) plus those appended since. An appended frame
	// may repeat an orbit already on disk; the next Open drops it.
	Records int `json:"records"`
	// SkippedRecords and TruncatedBytes describe the corrupt tail the
	// last Open dropped: the number of unreadable frames (at most the
	// one that framing was lost in) and the bytes truncated away.
	SkippedRecords int   `json:"skipped_records,omitempty"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// DuplicateRecords counts the frames the last Open read that repeat
	// an earlier frame's content address and left out of Records;
	// Compacted reports that it also rewrote the log without them.
	DuplicateRecords int  `json:"duplicate_records,omitempty"`
	Compacted        bool `json:"compacted,omitempty"`
	// Err is the most recent append or sync failure, "" when healthy.
	Err string `json:"err,omitempty"`
}

// Open opens (creating as needed) the store rooted at dir, loading and
// verifying every record in its log. A corrupt or truncated tail is
// dropped and counted (see Skipped), never an error; a log whose
// header is not a cache log is. Frames repeating an earlier frame's
// content address are dropped and counted too, and past
// 1/compactShare of the frames the log is rewritten without them.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %v", err)
	}
	s := &Store{
		path: filepath.Join(dir, LogName),
		stop: make(chan struct{}),
	}
	data, err := os.ReadFile(s.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("cachestore: %v", err)
	}
	good := 0
	if len(data) > 0 {
		if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
			return nil, fmt.Errorf("cachestore: %s: not a cache log (bad magic)", s.path)
		}
		seen := make(map[string]struct{})
		off := len(logMagic)
		for off < len(data) {
			rec, next, ok := parseFrame(data, off)
			if !ok || rec.Validate() != nil {
				s.skipped++
				s.truncated = int64(len(data) - off)
				break
			}
			key := contentKey(rec)
			if _, dup := seen[key]; dup {
				s.duplicates++
			} else {
				seen[key] = struct{}{}
				s.loaded = append(s.loaded, rec)
			}
			off = next
		}
		good = off
	}
	s.frames = len(s.loaded) + s.duplicates
	if s.duplicates*compactShare > s.frames {
		if err := s.compact(dir); err != nil {
			return nil, fmt.Errorf("cachestore: compacting %s: %v", s.path, err)
		}
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %v", err)
	}
	if len(data) == 0 {
		if _, err := f.WriteString(logMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("cachestore: %v", err)
		}
	} else if s.truncated > 0 && !s.compacted {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("cachestore: truncating corrupt tail: %v", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("cachestore: %v", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// compact replaces the log with one holding only the loaded records,
// in log order: written to a temporary file, fsynced, renamed over the
// log, and made durable by an fsync of dir, so a crash leaves either
// the old log or the new one.
func (s *Store) compact(dir string) error {
	b := []byte(logMagic)
	for _, rec := range s.loaded {
		b = appendFrame(b, rec)
	}
	tmp := s.path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		if _, err = f.Write(b); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // already failing
		return err
	}
	s.frames, s.compacted = len(s.loaded), true
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Path returns the log file's path.
func (s *Store) Path() string { return s.path }

// Records returns the distinct records loaded from disk at Open, in
// the order of their first frames — the warm-start set to feed
// Engine.SeedCache — until ReleaseRecords drops them. Records appended
// later are not included (their simulations are already in the engine
// that produced them). The slice is shared; do not mutate.
func (s *Store) Records() []sweep.CacheRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// ReleaseRecords drops the records Open loaded, once they have seeded
// an engine, so the store retains nothing per record while it serves;
// Records returns nil afterwards.
func (s *Store) ReleaseRecords() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loaded = nil
}

// Skipped reports the corrupt tail the last Open dropped: unreadable
// frames and bytes truncated away (both zero for a clean log).
func (s *Store) Skipped() (records int, bytes int64) {
	return s.skipped, s.truncated
}

// Health snapshots the store's integrity summary.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Records:          s.frames,
		SkippedRecords:   s.skipped,
		TruncatedBytes:   s.truncated,
		DuplicateRecords: s.duplicates,
		Compacted:        s.compacted,
	}
	if s.lastErr != nil {
		h.Err = s.lastErr.Error()
	}
	return h
}

// Put appends one record to the log. It implements sweep.CacheSink,
// so it must not fail the engine's hot path: append errors are
// remembered and surfaced through Health (and by Sync/Close), not
// returned. It does not look for the record on disk: a repeat costs
// one frame, which the next Open drops.
func (s *Store) Put(rec sweep.CacheRecord) {
	if err := rec.Validate(); err != nil {
		s.mu.Lock()
		s.lastErr = err
		s.mu.Unlock()
		return
	}
	frame := appendFrame(nil, rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, err := s.w.Write(frame); err != nil {
		s.lastErr = err
		return
	}
	s.frames++
	s.dirty = true
}

// Sync flushes buffered appends and fsyncs the log. It returns the
// first error since the last successful Sync, including append errors
// Put swallowed.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.closed {
		return s.lastErr
	}
	if err := s.w.Flush(); err != nil && s.lastErr == nil {
		s.lastErr = err
	}
	if s.dirty {
		if err := s.f.Sync(); err != nil && s.lastErr == nil {
			s.lastErr = err
		}
		s.dirty = false
	}
	err := s.lastErr
	s.lastErr = nil
	return err
}

// AutoSync starts a background goroutine that Syncs every interval
// until Close. It bounds the window a crash can lose to roughly one
// interval of appends.
func (s *Store) AutoSync(interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sync() //nolint:errcheck // remembered in Health
			case <-s.stop:
				return
			}
		}
	}()
}

// Close syncs and closes the log. The store rejects appends after
// Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	close(s.stop)
	err := s.syncLocked()
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// --- Encoding -----------------------------------------------------------

// contentKey derives a record's content address: the same coordinates
// as the engine's cache key, packed into one string. Open keys its
// duplicate check on it.
func contentKey(rec sweep.CacheRecord) string {
	b := make([]byte, 0, 16+len(rec.Family)+2*(len(rec.CPUs)+len(rec.Vec)))
	b = append(b, rec.Family...)
	b = append(b, 0)
	b = binary.AppendVarint(b, int64(rec.M))
	b = binary.AppendVarint(b, int64(rec.S))
	b = binary.AppendVarint(b, int64(rec.NC))
	b = appendInts(b, rec.CPUs)
	b = appendInts(b, rec.Vec)
	return string(b)
}

// appendInts encodes a counted int vector as varints.
func appendInts(b []byte, v []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// appendFrame encodes one record as a length-prefixed, checksummed
// log frame.
func appendFrame(b []byte, rec sweep.CacheRecord) []byte {
	payload := make([]byte, 0, 32+len(rec.Family)+2*(len(rec.CPUs)+len(rec.Vec)))
	payload = binary.AppendUvarint(payload, uint64(len(rec.Family)))
	payload = append(payload, rec.Family...)
	payload = binary.AppendVarint(payload, int64(rec.M))
	payload = binary.AppendVarint(payload, int64(rec.S))
	payload = binary.AppendVarint(payload, int64(rec.NC))
	payload = appendInts(payload, rec.CPUs)
	payload = appendInts(payload, rec.Vec)
	payload = binary.AppendVarint(payload, rec.BW.Num)
	payload = binary.AppendVarint(payload, rec.BW.Den)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// maxVectorLen bounds the counted vectors a frame may carry — far
// above any real stream count, low enough that a corrupt length can
// not provoke a huge allocation.
const maxVectorLen = 1 << 16

// parseFrame decodes the frame at data[off:], returning the record
// and the offset past the frame, or ok=false on a short, torn or
// malformed frame (the caller treats everything from off on as the
// corrupt tail).
func parseFrame(data []byte, off int) (rec sweep.CacheRecord, next int, ok bool) {
	n, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return rec, 0, false
	}
	off += w
	if n > uint64(len(data)) || off+4+int(n) > len(data) {
		return rec, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[off:])
	payload := data[off+4 : off+4+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, false
	}
	d := decoder{b: payload}
	famLen := d.uvarint()
	if famLen > uint64(len(payload)) || d.err {
		return rec, 0, false
	}
	rec.Family = d.str(int(famLen))
	rec.M = int(d.varint())
	rec.S = int(d.varint())
	rec.NC = int(d.varint())
	rec.CPUs = d.ints()
	rec.Vec = d.ints()
	rec.BW = rat.Rational{Num: d.varint(), Den: d.varint()}
	if d.err || len(d.b) != 0 {
		return rec, 0, false
	}
	return rec, off + 4 + int(n), true
}

// decoder is a cursor over one frame payload; any under- or over-run
// sets err and poisons further reads.
type decoder struct {
	b   []byte
	err bool
}

func (d *decoder) uvarint() uint64 {
	v, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.err = true
		return 0
	}
	d.b = d.b[w:]
	return v
}

func (d *decoder) varint() int64 {
	v, w := binary.Varint(d.b)
	if w <= 0 {
		d.err = true
		return 0
	}
	d.b = d.b[w:]
	return v
}

func (d *decoder) str(n int) string {
	if n < 0 || n > len(d.b) {
		d.err = true
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) ints() []int {
	n := d.uvarint()
	if d.err || n > maxVectorLen {
		d.err = true
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.varint())
	}
	if d.err {
		return nil
	}
	return out
}
