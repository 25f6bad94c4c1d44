package shim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
)

func testFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f := NewFleet(cfg)
	t.Cleanup(func() { f.Close() })
	return f
}

func TestAnnotationCacheVerifyOnce(t *testing.T) {
	reg := obs.NewRegistry()
	f := testFleet(t, FleetConfig{Obs: reg})
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := f.AddShard(fmt.Sprintf("sw%d", i), tinySpec()); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.CounterValue("bf4_fleet_annotation_compiles_total"); got != 1 {
		t.Fatalf("%d switches compiled the program %d times, want exactly 1", n, got)
	}
	if got := reg.CounterValue("bf4_fleet_annotation_cache_hits_total"); got != n-1 {
		t.Fatalf("cache hits = %d, want %d", got, n-1)
	}
	// All shards share one Compiled and one fingerprint.
	fp := f.Shard("sw0").fp
	for i := 1; i < n; i++ {
		sd := f.Shard(fmt.Sprintf("sw%d", i))
		if sd.fp != fp {
			t.Fatalf("shard %d fingerprint %s != %s", i, sd.fp, fp)
		}
		if sd.cp != f.Shard("sw0").cp {
			t.Fatalf("shard %d does not share the compiled annotation set", i)
		}
	}
	// Shards validate independently: a rejection on one leaves others
	// untouched.
	if err := f.Shard("sw0").ApplyWithKey("", insertT(0, "act")); err == nil {
		t.Fatal("forbidden update accepted")
	}
	if err := f.Shard("sw1").ApplyWithKey("", insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if shadowSize(f.Shard("sw1").Snapshot(), "t") != 1 || shadowSize(f.Shard("sw2").Snapshot(), "t") != 0 {
		t.Fatal("shard shadow state not isolated")
	}
}

func TestFleetKillRestorePreservesAckedUpdates(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	f := testFleet(t, FleetConfig{StateRoot: dir, Obs: reg, NoSync: true, CompactEvery: 7})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Ack 20 updates, crashing (and restoring) the shard every few ops.
	acked := map[string]bool{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("c:%d", i)
		if i%5 == 4 {
			sd.Kill()
			if err := f.RestoreNow("sw0"); err != nil {
				t.Fatal(err)
			}
		}
		if err := sd.ApplyWithKey(key, insertT(int64(i+1), "NoAction")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		acked[key] = true
	}
	sd.Kill()
	if err := f.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	if got := shadowSize(sd.Snapshot(), "t"); got != len(acked) {
		t.Fatalf("after restores: %d entries, want %d acked", got, len(acked))
	}
	// Retries of every acked key are absorbed by the restored dedup
	// window — nothing double-applies across incarnations.
	for key := range acked {
		if err := sd.ApplyWithKey(key, insertT(99, "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	if got := shadowSize(sd.Snapshot(), "t"); got != len(acked) {
		t.Fatalf("retries double-applied: %d entries, want %d", got, len(acked))
	}
	if got := reg.CounterValue("bf4_shim_dedup_hits_total"); got != int64(len(acked)) {
		t.Fatalf("dedup hits = %d, want one per retried key (%d)", got, len(acked))
	}
	if got := reg.CounterValue("bf4_shim_journal_appends_total"); got != int64(len(acked)) {
		t.Fatalf("journal appends = %d, want one per acked update (%d)", got, len(acked))
	}
	// Byte-identical to an oracle that saw the same acked sequence with
	// no faults.
	oracle := tinyShim(t)
	for i := 0; i < 20; i++ {
		if err := oracle.Apply(insertT(int64(i+1), "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sd.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored state differs from oracle:\n%s\nvs\n%s", got, want)
	}
	if r := reg.CounterValue(obs.LabeledName("bf4_fleet_shard_restores_total", "shard", "sw0")); r < 4 {
		t.Fatalf("per-shard restore counter = %d, want >= 4", r)
	}
}

func TestFleetKillUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	f := testFleet(t, FleetConfig{StateRoot: dir, NoSync: true, OpWait: 2 * time.Second})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 40
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d:%d", w, i)
				u := insertT(int64(w*perWorker+i+1), "NoAction")
				// Retry until a definitive outcome, like a real
				// controller: ShardDownError (and fencing artifacts) are
				// retryable with the same idempotency key.
				for {
					err := sd.ApplyWithKey(key, u)
					if err == nil {
						mu.Lock()
						acked[key] = true
						mu.Unlock()
						break
					}
					var sde *ShardDownError
					if !errors.As(err, &sde) {
						// Fencing artifact (journal closed mid-op):
						// ambiguous, retry resolves through dedup.
						time.Sleep(time.Millisecond)
						continue
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	// Crash the shard repeatedly while the workers hammer it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 6; k++ {
			time.Sleep(5 * time.Millisecond)
			sd.Kill()
			time.Sleep(2 * time.Millisecond)
			_ = sd.restore(false)
		}
	}()
	wg.Wait()
	<-done
	if sd.State() != ShardHealthy {
		if err := f.RestoreNow("sw0"); err != nil {
			t.Fatal(err)
		}
	}
	if len(acked) != workers*perWorker {
		t.Fatalf("acked %d of %d", len(acked), workers*perWorker)
	}
	// One final crash+restore: recovery must reconstruct every acked
	// update from disk alone.
	sd.Kill()
	if err := f.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	if got := shadowSize(sd.Snapshot(), "t"); got != workers*perWorker {
		t.Fatalf("after final restore: %d entries, want %d (acked-update loss or double-apply)",
			got, workers*perWorker)
	}
}

func TestFleetWedgeDetectionFailsOver(t *testing.T) {
	f := testFleet(t, FleetConfig{
		StateRoot:      t.TempDir(),
		NoSync:         true,
		HealthDeadline: 20 * time.Millisecond,
	})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.ApplyWithKey("", insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	// Wedge the shard: steal its semaphore and backdate the op start, as
	// if an operation had been stuck holding it for an hour.
	sd.mu.Lock()
	sem, gen := sd.sem, sd.gen
	sd.mu.Unlock()
	sem <- struct{}{}
	sd.opStart.Store(time.Now().Add(-time.Hour).UnixNano())

	f.superviseOnce()

	if sd.State() != ShardHealthy {
		t.Fatalf("shard not healthy after wedge failover: %s", sd.State())
	}
	if sd.fencedSince(gen) == false {
		t.Fatal("wedge failover did not fence the old incarnation")
	}
	// The fresh incarnation serves immediately and kept the acked state.
	if err := sd.ApplyWithKey("", insertT(2, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if got := shadowSize(sd.Snapshot(), "t"); got != 2 {
		t.Fatalf("shadow size %d after failover, want 2", got)
	}
}

func TestFleetDegradedModes(t *testing.T) {
	t.Run("reject", func(t *testing.T) {
		reg := obs.NewRegistry()
		f := testFleet(t, FleetConfig{StateRoot: t.TempDir(), NoSync: true, Obs: reg})
		sd, err := f.AddShard("sw0", tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		sd.Kill()
		err = sd.ApplyWithKey("", insertT(1, "NoAction"))
		var sde *ShardDownError
		if !errors.As(err, &sde) {
			t.Fatalf("write to down shard: %v, want ShardDownError", err)
		}
		if got := reg.CounterValue(obs.LabeledName("bf4_fleet_shard_degraded_rejections_total", "shard", "sw0")); got != 1 {
			t.Fatalf("degraded rejection counter = %d, want 1", got)
		}
	})
}

// TestAddShardRefusesTopLevelState: a state root holding a single-switch
// shim's state files at its top level is refused by name, before the
// shard's directory is created beside them.
func TestAddShardRefusesTopLevelState(t *testing.T) {
	for _, name := range []string{"snapshot.bin", "journal.bin", "snapshot.json", "journal.jsonl"} {
		root := t.TempDir()
		path := filepath.Join(root, name)
		if err := os.WriteFile(path, []byte("acknowledged"), 0o644); err != nil {
			t.Fatal(err)
		}
		f := testFleet(t, FleetConfig{StateRoot: root, NoSync: true})
		_, err := f.AddShard("sw0", tinySpec())
		if err == nil || !strings.HasPrefix(err.Error(), "shim: ") || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), filepath.Join(root, "sw0")) {
			t.Errorf("%s: AddShard = %v, want a refusal naming %s and %s", name, err, path, filepath.Join(root, "sw0"))
		}
		if _, err := os.Stat(filepath.Join(root, "sw0")); !os.IsNotExist(err) {
			t.Errorf("%s: the refused shard's directory was created (%v)", name, err)
		}
		if f.Shard("sw0") != nil {
			t.Errorf("%s: the refused shard was registered", name)
		}
	}
}

func TestFleetSupervisorRestoresKilledShard(t *testing.T) {
	f := testFleet(t, FleetConfig{
		StateRoot:      t.TempDir(),
		NoSync:         true,
		HealthInterval: 5 * time.Millisecond,
	})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.ApplyWithKey("", insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	f.StartSupervisor()
	sd.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for sd.State() != ShardHealthy {
		if time.Now().After(deadline) {
			t.Fatal("supervisor did not restore the killed shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := shadowSize(sd.Snapshot(), "t"); got != 1 {
		t.Fatalf("restored shadow size %d, want 1", got)
	}
}

func TestFleetPrometheusExposesPerShardMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := testFleet(t, FleetConfig{StateRoot: t.TempDir(), NoSync: true, Obs: reg})
	for _, id := range []string{"sw0", "sw1"} {
		if _, err := f.AddShard(id, tinySpec()); err != nil {
			t.Fatal(err)
		}
	}
	sd := f.Shard("sw0")
	if err := sd.ApplyWithKey("", insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	sd.Kill()
	if err := sd.ApplyWithKey("", insertT(2, "NoAction")); err == nil {
		t.Fatal("write to down shard accepted")
	}
	if err := f.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	if err := sd.ApplyWithKey("", insertT(2, "NoAction")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`bf4_fleet_shard_restores_total{shard="sw0"} 1`,
		`bf4_fleet_shard_degraded_rejections_total{shard="sw0"} 1`,
		`bf4_fleet_shard_journal_lag{shard="sw0"}`,
		"bf4_fleet_annotation_compiles_total 1",
		"# TYPE bf4_fleet_shard_restores_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE line per labeled family, not one per series.
	if got := strings.Count(out, "# TYPE bf4_fleet_shard_restores_total counter"); got != 1 {
		t.Fatalf("family TYPE line appears %d times", got)
	}
}

// threeRecordJournal returns a journal of three single-insert records
// over tinySpec, and the offsets its records start and end at.
func threeRecordJournal(t *testing.T) (journal []byte, bounds [4]int) {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sh := tinyShim(t)
	st.NoSync = true
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sh.ApplyWithKey(fmt.Sprintf("k:%d", i), insertT(int64(i+1), "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if journal, err = os.ReadFile(st.JournalPath()); err != nil {
		t.Fatal(err)
	}
	bounds[0] = len(st.header)
	for i := 0; i < 3; i++ {
		_, size, err := splitFrame(journal[bounds[i]:])
		if err != nil {
			t.Fatalf("record %d of the reference journal: %v", i, err)
		}
		bounds[i+1] = bounds[i] + size
	}
	if bounds[3] != len(journal) {
		t.Fatalf("reference journal: %d bytes after its three records", len(journal)-bounds[3])
	}
	return journal, bounds
}

// recoverJournal attaches a fresh tinyShim to a directory holding contents
// as its journal.
func recoverJournal(t *testing.T, contents []byte) (*Shim, *Store, *obs.Registry, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), contents, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.NoSync = true
	sh := tinyShim(t)
	sh.SetObs(reg)
	t.Cleanup(func() { st.Close() })
	return sh, st, reg, sh.AttachStore(st)
}

// TestTornJournalTailByteByByte corrupts or truncates the final journal
// record at every byte position, frame header included, and asserts
// recovery always lands on exactly the acked prefix: the torn record
// dropped, the file truncated to the last whole record, and subsequent
// appends clean.
func TestTornJournalTailByteByByte(t *testing.T) {
	journal, bounds := threeRecordJournal(t)
	last := bounds[2]

	recover := func(t *testing.T, contents []byte) (*Shim, *obs.Registry) {
		t.Helper()
		sh2, st2, reg, err := recoverJournal(t, contents)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		// Whatever was torn, appending must still work and survive the
		// next recovery (the file was truncated to a record boundary).
		if err := sh2.ApplyWithKey("post", insertT(77, "NoAction")); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		after, err := os.ReadFile(st2.JournalPath())
		if err != nil {
			t.Fatal(err)
		}
		sh3, _, _, err := recoverJournal(t, after)
		if err != nil || sh3.ShadowSize("t") != sh2.ShadowSize("t") {
			t.Fatalf("second recovery: error %v, %d entries, want %d", err, sh3.ShadowSize("t"), sh2.ShadowSize("t"))
		}
		return sh2, reg
	}

	// Truncations: every strict prefix of the final record.
	for cut := last; cut < len(journal); cut++ {
		sh2, reg := recover(t, journal[:cut])
		if got := sh2.ShadowSize("t"); got != 3 {
			t.Fatalf("cut=%d: %d entries, want 3 (two whole + post append)", cut-last, got)
		}
		want := int64(1)
		if cut == last {
			want = 0 // clean boundary: nothing torn
		}
		if got := reg.CounterValue("bf4_shim_journal_torn_tails_total"); got != want {
			t.Fatalf("cut=%d: torn-tail counter = %d, want %d", cut-last, got, want)
		}
	}

	// Corruptions: flip each byte of the final record.
	for i := last; i < len(journal); i++ {
		contents := append([]byte{}, journal...)
		contents[i] ^= 0xFF
		sh2, reg := recover(t, contents)
		if got := sh2.ShadowSize("t"); got != 3 {
			t.Fatalf("flip=%d: %d entries, want 3 (two whole + post append)", i-last, got)
		}
		if got := reg.CounterValue("bf4_shim_journal_torn_tails_total"); got != 1 {
			t.Fatalf("flip=%d: torn-tail counter = %d, want 1", i-last, got)
		}
	}

	// The file's own header torn at its creation: nothing was acknowledged,
	// the journal starts over.
	for cut := 0; cut < bounds[0]; cut++ {
		if sh2, _ := recover(t, journal[:cut]); sh2.ShadowSize("t") != 1 {
			t.Fatalf("header cut=%d: %d entries, want 1 (the post append)", cut, sh2.ShadowSize("t"))
		}
	}
}

// TestJournalMidFileCorruptionRefused flips every byte of a record that an
// acknowledged record follows — length, both checksums, payload — and of
// the file header. None of it may pass for a torn tail: recovery refuses.
func TestJournalMidFileCorruptionRefused(t *testing.T) {
	journal, bounds := threeRecordJournal(t)
	for i := 0; i < bounds[2]; i++ {
		contents := append([]byte{}, journal...)
		contents[i] ^= 0xFF
		_, st2, _, err := recoverJournal(t, contents)
		if err == nil {
			t.Fatalf("flip=%d: mid-file corruption silently accepted", i)
		}
		if i >= bounds[0] && !strings.Contains(err.Error(), "corrupt journal record") {
			t.Fatalf("flip=%d: unexpected error: %v", i, err)
		}
		if after, _ := os.ReadFile(st2.JournalPath()); !bytes.Equal(after, contents) {
			t.Fatalf("flip=%d: a refused journal was modified", i)
		}
	}
}

// TestHostileLengthsRefused: counts and lengths inside a correctly
// checksummed record or snapshot that the bytes behind them cannot back
// are refused before anything is allocated for them.
func TestHostileLengthsRefused(t *testing.T) {
	journal, bounds := threeRecordJournal(t)
	huge := binary.AppendUvarint(nil, 1<<40)
	seal := func(payload []byte) []byte {
		frame := append(make([]byte, frameHeader), payload...)
		sealFrame(frame)
		return frame
	}
	hostile := map[string][]byte{
		"op count":   append([]byte{1, 0}, huge...),
		"key length": append([]byte{1}, huge...),
		"key count":  append([]byte{1, 0, 1, 1, 't', opEntry}, huge...),
		"integer":    append([]byte{1, 0, 1, 1, 't', opEntry, 1, 0}, huge...),
	}
	for name, payload := range hostile {
		contents := append(append(append([]byte{}, journal[:bounds[1]]...), seal(payload)...), journal[bounds[1]:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := recoverJournal(t, contents)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "corrupt journal record") {
			t.Errorf("%s: hostile record not refused: %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: recovery allocated %d bytes over a %d-byte journal", name, grew, len(contents))
		}
	}

	sh := tinyShim(t)
	body := append(fileHeader(snapshotMagic, "tiny"), 1) // seq
	body = append(body, huge...)                         // table count
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if err := sh.loadSnapshot("snapshot", body); err == nil || !strings.Contains(err.Error(), "corrupt snapshot") {
		t.Errorf("hostile table count not refused: %v", err)
	}
}

func TestShardJournalLag(t *testing.T) {
	f := testFleet(t, FleetConfig{StateRoot: t.TempDir(), NoSync: true, CompactEvery: 100})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sd.ApplyWithKey("", insertT(int64(i+1), "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	if got := sd.JournalLag(); got != 5 {
		t.Fatalf("journal lag %d, want 5", got)
	}
	sh := sd.currentShim()
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := sd.JournalLag(); got != 0 {
		t.Fatalf("journal lag after checkpoint %d, want 0", got)
	}
}

// shadowSize is the number of entries snap holds for table; a down shard's
// nil snapshot holds none.
func shadowSize(snap *dataplane.Snapshot, table string) int {
	if snap == nil {
		return 0
	}
	return len(snap.Entries[table])
}
