package shim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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
	fp := f.Shard("sw0").Fingerprint()
	for i := 1; i < n; i++ {
		sd := f.Shard(fmt.Sprintf("sw%d", i))
		if sd.Fingerprint() != fp {
			t.Fatalf("shard %d fingerprint %s != %s", i, sd.Fingerprint(), fp)
		}
		if sd.cp != f.Shard("sw0").cp {
			t.Fatalf("shard %d does not share the compiled annotation set", i)
		}
	}
	// Shards validate independently: a rejection on one leaves others
	// untouched.
	if err := f.Shard("sw0").Apply(insertT(0, "act")); err == nil {
		t.Fatal("forbidden update accepted")
	}
	if err := f.Shard("sw1").Apply(insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if f.Shard("sw1").ShadowSize("t") != 1 || f.Shard("sw2").ShadowSize("t") != 0 {
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
	if got := sd.ShadowSize("t"); got != len(acked) {
		t.Fatalf("after restores: %d entries, want %d acked", got, len(acked))
	}
	// Retries of every acked key are absorbed by the restored dedup
	// window — nothing double-applies across incarnations.
	for key := range acked {
		if err := sd.ApplyWithKey(key, insertT(99, "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	if got := sd.ShadowSize("t"); got != len(acked) {
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
	if !sd.Healthy() {
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
	if got := sd.ShadowSize("t"); got != workers*perWorker {
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
	if err := sd.Apply(insertT(1, "NoAction")); err != nil {
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

	if !sd.Healthy() {
		t.Fatalf("shard not healthy after wedge failover: %s", sd.State())
	}
	if sd.fencedSince(gen) == false {
		t.Fatal("wedge failover did not fence the old incarnation")
	}
	// The fresh incarnation serves immediately and kept the acked state.
	if err := sd.Apply(insertT(2, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if got := sd.ShadowSize("t"); got != 2 {
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
		err = sd.Apply(insertT(1, "NoAction"))
		var sde *ShardDownError
		if !errors.As(err, &sde) {
			t.Fatalf("write to down shard: %v, want ShardDownError", err)
		}
		if got := reg.CounterValue(obs.LabeledName("bf4_fleet_shard_degraded_rejections_total", "shard", "sw0")); got != 1 {
			t.Fatalf("degraded rejection counter = %d, want 1", got)
		}
	})
	t.Run("queue", func(t *testing.T) {
		reg := obs.NewRegistry()
		f := testFleet(t, FleetConfig{
			StateRoot:   t.TempDir(),
			NoSync:      true,
			Obs:         reg,
			OnShardDown: DownQueue,
			QueueWait:   5 * time.Second,
		})
		sd, err := f.AddShard("sw0", tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		sd.Kill()
		res := make(chan error, 1)
		go func() { res <- sd.ApplyWithKey("q:1", insertT(1, "NoAction")) }()
		// The write parks; restore must drain it.
		time.Sleep(20 * time.Millisecond)
		select {
		case err := <-res:
			t.Fatalf("queued write returned before restore: %v", err)
		default:
		}
		if err := f.RestoreNow("sw0"); err != nil {
			t.Fatal(err)
		}
		if err := <-res; err != nil {
			t.Fatalf("queued write failed after restore: %v", err)
		}
		if got := sd.ShadowSize("t"); got != 1 {
			t.Fatalf("queued write not applied: %d entries", got)
		}
		if got := reg.CounterValue("bf4_fleet_replayed_batches_total"); got != 1 {
			t.Fatalf("replayed counter = %d, want 1", got)
		}
	})
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
	if err := sd.Apply(insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	f.StartSupervisor()
	sd.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !sd.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor did not restore the killed shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := sd.ShadowSize("t"); got != 1 {
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
	if err := sd.Apply(insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	sd.Kill()
	if err := sd.Apply(insertT(2, "NoAction")); err == nil {
		t.Fatal("write to down shard accepted")
	}
	if err := f.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	if err := sd.Apply(insertT(2, "NoAction")); err != nil {
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

// TestTornJournalTailByteByByte corrupts or truncates the final journal
// record at every byte position and asserts recovery always lands on
// exactly the acked prefix: the torn record dropped, the file truncated
// to the last whole record, and subsequent appends clean.
func TestTornJournalTailByteByByte(t *testing.T) {
	// Build a reference journal with 3 records.
	seedDir := t.TempDir()
	st, err := OpenStore(seedDir)
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
	journal, err := os.ReadFile(filepath.Join(seedDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("expected 3 journal lines, got %d", len(lines)-1)
	}
	last := lines[2]
	prefix := journal[:len(journal)-len(last)]

	recover := func(t *testing.T, contents []byte) (*Shim, *obs.Registry) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), contents, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st2, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st2.NoSync = true
		sh2 := tinyShim(t)
		sh2.SetObs(reg)
		if err := sh2.AttachStore(st2); err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		t.Cleanup(func() { st2.Close() })
		// Whatever was torn, appending must still work and survive the
		// next recovery (the file was truncated to a record boundary).
		if err := sh2.ApplyWithKey("post", insertT(77, "NoAction")); err != nil {
			t.Fatal(err)
		}
		return sh2, reg
	}

	// Truncations: every strict prefix of the final record.
	for cut := 0; cut < len(last); cut++ {
		contents := append(append([]byte{}, prefix...), last[:cut]...)
		sh2, reg := recover(t, contents)
		want := 2 + 1 // two whole records + the post-recovery append
		if cut == 0 {
			want = 2 + 1 // clean boundary: torn tail is empty
		}
		if got := sh2.ShadowSize("t"); got != want {
			t.Fatalf("cut=%d: %d entries, want %d", cut, got, want)
		}
		if cut > 0 {
			if got := reg.CounterValue("bf4_shim_journal_torn_tails_total"); got != 1 {
				t.Fatalf("cut=%d: torn-tail counter = %d, want 1", cut, got)
			}
		}
	}

	// Corruptions: flip each byte of the final record (newline excluded —
	// flipping it is the truncation case above).
	for i := 0; i < len(last)-1; i++ {
		contents := append([]byte{}, journal...)
		contents[len(prefix)+i] ^= 0xFF
		sh2, reg := recover(t, contents)
		if got := sh2.ShadowSize("t"); got != 3 {
			t.Fatalf("flip=%d: %d entries, want 3 (two whole + post append)", i, got)
		}
		if got := reg.CounterValue("bf4_shim_journal_torn_tails_total"); got != 1 {
			t.Fatalf("flip=%d: torn-tail counter = %d, want 1", i, got)
		}
	}
}

func TestJournalMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.NoSync = true
	sh := tinyShim(t)
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sh.Apply(insertT(int64(i+1), "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0xFF // corrupt the FIRST record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sh2 := tinyShim(t)
	if err := sh2.AttachStore(st2); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	} else if !strings.Contains(err.Error(), "corrupt journal record") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestJournalWithoutCRCStillReplays(t *testing.T) {
	// Journals written before the CRC field must replay unchanged.
	dir := t.TempDir()
	rec := `{"seq":1,"key":"old:1","ops":[{"table":"t","entry":{"keys":[{"v":"9"}],"action":"NoAction"}}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := tinyShim(t)
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if got := sh.ShadowSize("t"); got != 1 {
		t.Fatalf("legacy record not replayed: %d entries", got)
	}
	// And its dedup key was restored.
	if err := sh.ApplyWithKey("old:1", insertT(9, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if got := sh.ShadowSize("t"); got != 1 {
		t.Fatal("legacy key double-applied")
	}
}

func TestShardJournalLag(t *testing.T) {
	f := testFleet(t, FleetConfig{StateRoot: t.TempDir(), NoSync: true, CompactEvery: 100})
	sd, err := f.AddShard("sw0", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sd.Apply(insertT(int64(i+1), "NoAction")); err != nil {
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
