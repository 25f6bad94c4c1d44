package shim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bf4/internal/dataplane"
)

// Persistence: the shim's shadow tables, runtime defaults and
// applied-request-ID window are serialized to a snapshot file plus a
// small append-only journal, so a restarted shim (`bf4-shim -state-dir`)
// recovers its exact state without any controller replay. Layout:
//
//	<dir>/snapshot.bin  — full state as of journal sequence seq
//	<dir>/journal.bin   — one record per applied mutation since seq
//
// Both are in the encoding of codec.go and start with an eight-byte
// magic, whose last byte is the format version, and the program's name.
// The snapshot goes on with seq, the state (writeState), the dedup
// window's applied keys oldest first, and the CRC-32 of all of it; the
// journal with records — seq, idempotency key, ops — each behind a frame
// header of three little-endian uint32: payload length, payload CRC-32,
// CRC-32 of those eight bytes.
//
// Mutations are journaled before they are acknowledged (and rolled back
// in memory if the append fails); recovery
// loads the snapshot and replays the journal (already-validated updates
// are applied directly). When the journal exceeds CompactEvery records
// it is folded into a fresh snapshot written atomically (a temporary file
// of its own, then rename) and truncated. What is loaded is held to the
// boundary check of schema.go, entry by entry and update by update: state
// the shim would not have admitted is refused, not repaired.

const (
	snapshotName = "snapshot.bin"
	// tmpPattern names a checkpoint's temporary file (os.CreateTemp). Each
	// checkpoint has its own: a fenced incarnation still mid-checkpoint
	// and its successor share the directory, and neither may truncate or
	// remove what the other is writing.
	tmpPattern    = snapshotName + ".*.tmp"
	journalName   = "journal.bin"
	snapshotMagic = "bf4snap\x01"
	journalMagic  = "bf4jrnl\x01"
	frameHeader   = 12
)

// legacyNames are the state files of the JSON persistence this format
// replaced. No decoder for them remains, so a directory holding one is
// refused: starting empty beside it would drop acknowledged state.
var legacyNames = []string{"snapshot.json", "journal.jsonl"}

// fsync is (*os.File).Sync; a test replaces it to record what is made
// durable in which order.
var fsync = (*os.File).Sync

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// fileHeader returns the bytes a state file of program starts with.
func fileHeader(magic, program string) []byte {
	e := Encoder{Buf: []byte(magic)}
	e.Str(program)
	return e.Buf
}

// openHeader checks that data starts with the header this shim writes
// and returns a decoder over what follows it.
func (s *Shim) openHeader(path, magic string, data []byte) (*Decoder, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("shim: %s is not a %s file of format %d", path, magic[:7], magic[7])
	}
	d := &Decoder{Buf: data[len(magic):]}
	if prog := d.Str(); d.Err != nil {
		return nil, fmt.Errorf("shim: %s: corrupt header: %v", path, d.Err)
	} else if prog != s.cp.file.Program {
		return nil, fmt.Errorf("shim: %s holds the state of program %q, not of %q", path, prog, s.cp.file.Program)
	}
	return d, nil
}

// sealFrame fills in the header in front of the payload buf[frameHeader:].
func sealFrame(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(buf)-frameHeader))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHeader:]))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[:8]))
}

// splitFrame checks the frame at the front of b. size is the frame's
// whole length whenever its header is intact, also beside an error about
// the payload, and 0 otherwise.
func splitFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeader || crc32.ChecksumIEEE(b[:8]) != binary.LittleEndian.Uint32(b[8:]) {
		return nil, 0, errors.New("frame header short or failing its checksum")
	}
	size = frameHeader + int(binary.LittleEndian.Uint32(b))
	if size > len(b) || crc32.ChecksumIEEE(b[frameHeader:size]) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, size, errors.New("payload short or failing its checksum")
	}
	return b[frameHeader:size], size, nil
}

// frameFollows reports whether a whole valid frame starts anywhere in b.
func frameFollows(b []byte) bool {
	for ; len(b) >= frameHeader; b = b[1:] {
		if _, _, err := splitFrame(b); err == nil {
			return true
		}
	}
	return false
}

// Store journals shim mutations under a state directory.
type Store struct {
	dir string

	// mu guards swaps of the journal handle; fenced flips once and stays
	// set. Both exist for the fleet's failover fencing: a superseded shim
	// incarnation may still be mid-operation when its shard restores, and
	// it must not be able to append to — or compact away — the journal
	// the new incarnation now owns.
	mu      sync.Mutex
	journal *os.File
	fenced  atomic.Bool

	recs int

	// header is what the journal file starts with; enc is the buffer every
	// record and snapshot is encoded in. Both are the attached shim's,
	// used under its lock.
	header []byte
	enc    Encoder

	// CompactEvery folds the journal into a fresh snapshot once it
	// reaches this many records (default 4096).
	CompactEvery int
	// NoSync skips the per-record fsync (faster, loses the last records
	// on power failure; process crashes are still covered by the OS).
	NoSync bool
}

// OpenStore creates (or reuses) a state directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shim: state dir: %w", err)
	}
	return &Store{dir: dir, CompactEvery: 4096}, nil
}

// JournalPath returns the journal file path (for diagnostics upload).
func (st *Store) JournalPath() string { return filepath.Join(st.dir, journalName) }

// SnapshotPath returns the snapshot file path.
func (st *Store) SnapshotPath() string { return filepath.Join(st.dir, snapshotName) }

// Close closes the journal file.
func (st *Store) Close() error {
	st.mu.Lock()
	j := st.journal
	st.journal = nil
	st.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// Fence permanently disables the store: the journal handle is closed so
// in-flight appends fail, and subsequent appends or checkpoints are
// refused. Because a mutation is journaled before it commits to memory,
// a fenced (zombie) shim incarnation can never apply or acknowledge
// anything the restored incarnation does not also recover from disk.
func (st *Store) Fence() {
	st.fenced.Store(true)
	st.Close()
}

// journalHandle returns the live journal handle (nil once fenced or
// closed).
func (st *Store) journalHandle() *os.File {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.journal
}

// AttachStore loads any persisted state from st into the shim — snapshot
// first, then journal replay — and journals every subsequent mutation.
// Call once, before serving traffic; a shim it fails on holds a partial
// state and is to be discarded.
func (s *Shim) AttachStore(st *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return fmt.Errorf("shim: store already attached")
	}
	for _, name := range legacyNames {
		if _, err := os.Lstat(filepath.Join(st.dir, name)); err == nil {
			return fmt.Errorf("shim: state directory holds %s, written in the JSON format this build no longer reads (and does not migrate); move the directory aside to start empty, or run the build that wrote it",
				filepath.Join(st.dir, name))
		}
	}

	// Temporary files a crashed or fenced incarnation left behind hold
	// nothing a recovery reads.
	stale, _ := filepath.Glob(filepath.Join(st.dir, tmpPattern))
	for _, tmp := range stale {
		os.Remove(tmp)
	}

	// 1. Snapshot.
	if data, err := os.ReadFile(st.SnapshotPath()); err == nil {
		if err := s.loadSnapshot(st.SnapshotPath(), data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("shim: read snapshot: %w", err)
	}

	// 2. Journal replay: records hold already-validated updates, applied
	// directly (this is exactly what makes controller replay unnecessary).
	st.header = fileHeader(journalMagic, s.cp.file.Program)
	data, err := os.ReadFile(st.JournalPath())
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shim: read journal: %w", err)
	}
	created := err != nil
	good := 0 // just past the last whole, valid record
	// A file that stops inside the header was torn at its creation, before
	// any record could be acknowledged, and is started over like an absent
	// one.
	if len(data) >= len(st.header) || !bytes.HasPrefix(st.header, data) {
		if _, err := s.openHeader(st.JournalPath(), journalMagic, data); err != nil {
			return err
		}
		if good, err = s.replayJournal(st, data, len(st.header)); err != nil {
			return err
		}
	}
	if good < len(data) {
		// The truncation matters because the journal is reopened O_APPEND:
		// appending after a torn record would put the next one behind
		// garbage, losing an *acknowledged* record at the following recovery.
		if err := os.Truncate(st.JournalPath(), int64(good)); err != nil {
			return fmt.Errorf("shim: truncate torn journal tail: %w", err)
		}
		s.obs.journalTornTails.Inc()
	}

	// 3. Reopen the journal for appending, started over with its header if
	// it holds nothing. Records are fsynced into the file; the directory
	// entry of a new one must outlive a power loss too.
	flag := os.O_WRONLY | os.O_APPEND
	if good == 0 {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	jf, err := os.OpenFile(st.JournalPath(), flag, 0o644)
	if err == nil && good == 0 {
		_, err = jf.Write(st.header)
	}
	if err == nil && created && !st.NoSync {
		err = syncDir(st.dir)
	}
	if err != nil {
		if jf != nil {
			jf.Close()
		}
		return fmt.Errorf("shim: open journal: %w", err)
	}
	st.mu.Lock()
	st.journal = jf
	st.mu.Unlock()
	s.store = st
	return nil
}

// loadSnapshot installs the state a snapshot file holds.
func (s *Shim) loadSnapshot(path string, data []byte) error {
	d, err := s.openHeader(path, snapshotMagic, data)
	if err != nil {
		return err
	}
	if len(d.Buf) < 4 || crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("shim: corrupt snapshot %s: checksum mismatch", path)
	}
	d.Buf = d.Buf[:len(d.Buf)-4]
	s.seq = int64(d.Uvarint())
	s.readState(d)
	for n := d.Count(); n > 0; n-- {
		s.recordOutcome(d.Str(), nil)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("shim: corrupt snapshot %s: %v", path, err)
	}
	return nil
}

// replayJournal applies the records of data from offset off on and
// returns the offset just past the last whole, valid one.
//
// A crash during append can leave a torn tail: a final record missing
// bytes, or holding bytes that were never written (a checksum mismatch).
// A torn tail was never acknowledged, so it is left for the caller to
// truncate and count (bf4_shim_journal_torn_tails_total). Damage that
// valid records follow is not a crash artifact and is refused outright:
// a record whose intact header places its end before the file's, and a
// header failing its own checksum with a whole valid frame anywhere
// behind it — so a flipped bit in a length field cannot pose as a short
// final record and have acknowledged records truncated.
func (s *Shim) replayJournal(st *Store, data []byte, off int) (int, error) {
	for off < len(data) {
		payload, size, err := splitFrame(data[off:])
		var seq int64
		var key string
		var ops []*Update
		if err == nil {
			d := Decoder{Buf: payload}
			seq, key = int64(d.Uvarint()), d.Str()
			ops = make([]*Update, d.Count())
			for i := range ops {
				ops[i] = d.Update()
			}
			err = d.Finish()
		}
		for i := 0; err == nil && i < len(ops); i++ {
			// Intact bytes the shim never wrote: not a torn tail.
			if _, _, reason := s.cp.check(ops[i]); reason != "" {
				return 0, fmt.Errorf("shim: %s: record at offset %d holds a malformed update (%d, to table %s): %s", st.JournalPath(), off, i, ops[i].Table, reason)
			}
		}
		if err != nil {
			if size > 0 && off+size < len(data) || size == 0 && frameFollows(data[off+1:]) {
				return 0, fmt.Errorf("shim: corrupt journal record at offset %d: %v", off, err)
			}
			break // torn tail
		}
		off += size
		st.recs++
		if seq <= s.seq {
			// Already folded into the snapshot (possible when a crash
			// lands between snapshot rename and journal truncation).
			continue
		}
		s.seq = seq
		if prev, seen := s.applied[key]; key != "" && seen && prev == nil {
			// Duplicate idempotency key: the mutation was already
			// applied (snapshot window or an earlier record).
			continue
		}
		for _, u := range ops {
			s.commitLocked(s.cp.tables[u.Table], u)
		}
		s.recordOutcome(key, nil)
	}
	return off, nil
}

// JournalLag returns the number of journal records appended since the
// last checkpoint — how much replay the next recovery (or failover)
// would have to do. Zero without an attached store.
func (s *Shim) JournalLag() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return 0
	}
	return s.store.recs
}

// journalLocked appends one record covering updates. A nil store is a
// no-op. Called with s.mu held, before the updates are committed.
func (s *Shim) journalLocked(key string, updates []*Update) error {
	st := s.store
	if st == nil {
		return nil
	}
	enc := &st.enc
	*enc = Encoder{Buf: append(enc.Buf[:0], make([]byte, frameHeader)...)}
	enc.Uvarint(uint64(s.seq + 1))
	enc.Str(key)
	enc.Uvarint(uint64(len(updates)))
	for _, u := range updates {
		enc.Update(u)
	}
	if enc.Err != nil {
		return fmt.Errorf("shim: journal encode: %w", enc.Err)
	}
	sealFrame(enc.Buf)
	j := st.journalHandle()
	if j == nil {
		return fmt.Errorf("shim: journal append: store fenced")
	}
	if _, err := j.Write(enc.Buf); err != nil {
		return fmt.Errorf("shim: journal append: %w", err)
	}
	if !st.NoSync {
		if err := fsync(j); err != nil {
			return fmt.Errorf("shim: journal sync: %w", err)
		}
	}
	if st.fenced.Load() {
		// Fenced between append and now: the record is durable (the next
		// incarnation replays it) but THIS incarnation must not commit or
		// acknowledge — its shard has moved on. The caller's retry
		// resolves through the idempotency window.
		return fmt.Errorf("shim: journal append: store fenced mid-append")
	}
	s.seq++
	st.recs++
	s.obs.journalAppends.Inc()
	s.obs.journalBytes.Add(int64(len(enc.Buf)))
	return nil
}

// maybeCheckpointLocked compacts once the journal is due. Must run after
// the journaled updates are committed, so the snapshot includes them.
func (s *Shim) maybeCheckpointLocked() error {
	st := s.store
	if st == nil || st.CompactEvery <= 0 || st.recs < st.CompactEvery {
		return nil
	}
	return s.checkpointLocked()
}

// Checkpoint folds the journal into a freshly written snapshot.
func (s *Shim) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return fmt.Errorf("shim: no store attached")
	}
	return s.checkpointLocked()
}

// spillAt is how much of a snapshot is encoded before it goes to the file.
const spillAt = 64 << 10

// writeState appends the shadow state (tables + runtime defaults) to enc
// deterministically: tables sorted by name, empty ones left out, entries
// in insertion order. After each entry it offers spill what enc holds, so
// that a checkpoint never holds the whole state.
func (s *Shim) writeState(enc *Encoder, spill func(atLeast int)) {
	n := 0
	for _, tb := range s.cp.byName {
		if len(s.shadow[tb.idx]) > 0 {
			n++
		}
	}
	enc.Uvarint(uint64(n))
	for _, tb := range s.cp.byName {
		es := s.shadow[tb.idx]
		if len(es) == 0 {
			continue
		}
		enc.Str(tb.ts.Name)
		enc.Uvarint(uint64(len(es)))
		for _, e := range es {
			enc.Entry(e)
			spill(spillAt)
		}
	}
	names := make([]string, 0, len(s.defaults))
	for table := range s.defaults {
		names = append(names, table)
	}
	sort.Strings(names)
	enc.Uvarint(uint64(len(names)))
	for _, table := range names {
		enc.Str(table)
		enc.Default(s.defaults[table])
	}
}

// readState is writeState's inverse, into an empty shim.
func (s *Shim) readState(d *Decoder) {
	listed := map[string]bool{}
	for n := d.Count(); n > 0; n-- {
		u := Update{Table: d.Str()}
		es := make([]*dataplane.Entry, d.Count())
		for i := range es {
			es[i] = d.Entry()
			u.Entry = es[i]
			if _, _, reason := s.cp.check(&u); d.Err == nil && reason != "" {
				d.fail("table %s entry %d: %s", u.Table, i, reason)
			}
		}
		if listed[u.Table] {
			d.fail("table %s listed twice", u.Table)
		}
		listed[u.Table] = true
		// Entries reach the state only when every one passed the check,
		// which refuses any of a table the program does not have.
		if tb := s.cp.tables[u.Table]; tb != nil && d.Err == nil {
			s.shadow[tb.idx] = es
			s.keepRows(tb, 0)
		}
	}
	for n := d.Count(); n > 0; n-- {
		u := Update{Table: d.Str(), SetDefault: d.Default()}
		if _, _, reason := s.cp.check(&u); d.Err == nil && reason != "" {
			d.fail("table %s default: %s", u.Table, reason)
		}
		s.defaults[u.Table] = u.SetDefault
	}
}

func (s *Shim) checkpointLocked() error {
	st := s.store
	if st.fenced.Load() {
		return fmt.Errorf("shim: checkpoint: store fenced")
	}
	start := time.Now()
	f, err := os.CreateTemp(st.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("shim: snapshot write: %w", err)
	}
	tmp := f.Name()
	published := false
	defer func() {
		if !published {
			f.Close()
			os.Remove(tmp)
		}
	}()
	enc := &st.enc
	*enc = Encoder{Buf: append(enc.Buf[:0], fileHeader(snapshotMagic, s.cp.file.Program)...)}
	var crc uint32
	size := 4 // the checksum
	spill := func(atLeast int) {
		if len(enc.Buf) >= atLeast {
			crc = crc32.Update(crc, crc32.IEEETable, enc.Buf)
			size += len(enc.Buf)
			if err == nil {
				_, err = f.Write(enc.Buf)
			}
			enc.Buf = enc.Buf[:0]
		}
	}
	enc.Uvarint(uint64(s.seq))
	s.writeState(enc, spill)
	// Dedup window, oldest first (ring order), applied keys only.
	var applied []string
	for i := range s.appliedOrder {
		key := s.appliedOrder[(s.appliedHead+i)%len(s.appliedOrder)]
		if outcome, ok := s.applied[key]; ok && outcome == nil {
			applied = append(applied, key)
		}
	}
	enc.Uvarint(uint64(len(applied)))
	for _, key := range applied {
		enc.Str(key)
		spill(spillAt)
	}
	spill(0)
	if err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(enc.Buf, crc))
	}
	if err == nil && enc.Err != nil {
		err = fmt.Errorf("encode: %w", enc.Err)
	}
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would outlive the rename
	}
	if err != nil {
		return fmt.Errorf("shim: snapshot write: %w", err)
	}
	if err := fsync(f); err != nil {
		return fmt.Errorf("shim: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shim: snapshot close: %w", err)
	}
	// Publish the snapshot and truncate the journal under the store
	// lock, re-checking the fence — a zombie incarnation must never
	// replace the snapshot of, or truncate the journal of, a restored
	// incarnation that now owns this directory.
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fenced.Load() {
		return fmt.Errorf("shim: checkpoint: store fenced")
	}
	if err := os.Rename(tmp, st.SnapshotPath()); err != nil {
		return fmt.Errorf("shim: snapshot rename: %w", err)
	}
	published = true
	if !st.NoSync {
		// The rename must be durable before the truncation can be: a power
		// loss that kept only the latter would recover the previous
		// snapshot beside an empty journal.
		if err := syncDir(st.dir); err != nil {
			return fmt.Errorf("shim: state dir sync: %w", err)
		}
	}
	if st.journal == nil {
		return fmt.Errorf("shim: journal truncate: store closed")
	}
	// The handle appends (O_APPEND), so the next record lands behind the
	// header wherever the file offset was.
	if err := st.journal.Truncate(int64(len(st.header))); err != nil {
		return fmt.Errorf("shim: journal truncate: %w", err)
	}
	st.recs = 0
	s.obs.checkpoints.Inc()
	s.obs.snapshotBytes.Set(int64(size))
	s.obs.checkpointNs.Observe(time.Since(start).Nanoseconds())
	return nil
}

// MarshalSnapshot serializes the shadow state (tables + runtime
// defaults) as writeState orders it. Two shims holding the same logical
// state produce byte-identical output — the equality the chaos tests
// assert.
func (s *Shim) MarshalSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var enc Encoder
	s.writeState(&enc, func(int) {})
	return enc.Buf, enc.Err
}
