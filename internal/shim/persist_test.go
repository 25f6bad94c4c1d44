package shim

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
	"bf4/internal/smt"
)

// applyWorkload drives a mixed workload (inserts, a default, a batch,
// one rejection) against sh, using dedup keys like a real controller.
func applyWorkload(t *testing.T, sh *Shim) {
	t.Helper()
	for i := int64(0); i < 5; i++ {
		if err := sh.ApplyWithKey("c:"+string(rune('a'+i)), insertT(20+i, "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.ApplyWithKey("c:def", &Update{
		Table:      "t",
		SetDefault: &dataplane.DefaultAction{Action: "NoAction"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sh.ApplyBatchWithKey("c:batch", []*Update{insertU(1), insertU(2)}); err != nil {
		t.Fatal(err)
	}
	if err := sh.ApplyWithKey("c:rej", insertT(0, "act")); err == nil {
		t.Fatal("forbidden update accepted")
	}
}

func TestCrashRecoveryWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	sh, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, sh)
	want, err := sh.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate kill -9: no Close, no Checkpoint — the journal alone must
	// carry the state.

	sh2, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	got, err := sh2.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs:\nwant %q\ngot  %q", want, got)
	}

	// The dedup window survived: a post-restart retry of an applied
	// request is not double-applied.
	before := sh2.ShadowSize("t")
	if err := sh2.ApplyWithKey("c:a", insertT(20, "NoAction")); err != nil {
		t.Fatal(err)
	}
	if sh2.ShadowSize("t") != before {
		t.Fatal("retry after restart double-applied")
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	sh, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.CompactEvery = 3
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := sh.Apply(insertT(30+i, "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	// 8 records at CompactEvery=3 → at least two compactions; the
	// snapshot exists and the journal holds < 3 records.
	if _, err := os.Stat(st.SnapshotPath()); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	if st.recs >= 3 {
		t.Fatalf("journal not truncated: %d records", st.recs)
	}
	want, _ := sh.MarshalSnapshot()

	sh2, _ := New(tinySpec())
	st2, _ := OpenStore(dir)
	if err := sh2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	got, _ := sh2.MarshalSnapshot()
	if !bytes.Equal(want, got) {
		t.Fatalf("compacted state differs:\nwant %q\ngot  %q", want, got)
	}
}

func TestTornJournalTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	sh, _ := New(tinySpec())
	st, _ := OpenStore(dir)
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sh.Apply(insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}
	want, _ := sh.MarshalSnapshot()
	whole, err := os.ReadFile(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn, unacknowledged record: here the
	// first half of the one a second insert writes.
	if err := sh.Apply(insertT(2, "NoAction")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	data, err := os.ReadFile(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(whole)+(len(data)-len(whole))/2]
	if err := os.WriteFile(st.JournalPath(), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	sh2, _ := New(tinySpec())
	st2, _ := OpenStore(dir)
	if err := sh2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	got, _ := sh2.MarshalSnapshot()
	if !bytes.Equal(want, got) {
		t.Fatalf("torn tail corrupted recovery:\nwant %q\ngot  %q", want, got)
	}
	if data, _ = os.ReadFile(st.JournalPath()); !bytes.Equal(data, whole) {
		t.Fatalf("journal not cut back to its last whole record: %d bytes, want %d", len(data), len(whole))
	}
}

func TestExplicitCheckpointThenRestore(t *testing.T) {
	dir := t.TempDir()
	sh, _ := New(tinySpec())
	st, _ := OpenStore(dir)
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, sh)
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After a checkpoint the journal is down to its header; state
	// restores from the snapshot alone.
	data, err := os.ReadFile(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, st.header) {
		t.Fatalf("journal not empty after checkpoint: %d bytes, header is %d", len(data), len(st.header))
	}
	want, _ := sh.MarshalSnapshot()
	sh2, _ := New(tinySpec())
	st2, _ := OpenStore(dir)
	if err := sh2.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	got, _ := sh2.MarshalSnapshot()
	if !bytes.Equal(want, got) {
		t.Fatal("checkpoint-only restore differs")
	}
}

func TestMarshalSnapshotDeterministic(t *testing.T) {
	a, _ := New(tinySpec())
	b, _ := New(tinySpec())
	for _, sh := range []*Shim{a, b} {
		applyWorkload(t, sh)
	}
	sa, _ := a.MarshalSnapshot()
	sb, _ := b.MarshalSnapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatal("same workload, different snapshots")
	}
}

func TestFullMaskSentinelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sh, _ := New(tinySpec())
	st, _ := OpenStore(dir)
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	// Mask -1 is the dataplane's full-mask sentinel; it must round-trip
	// through the journal.
	u := &Update{Table: "t", Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{{Value: dataplane.U64(3), MaskKind: dataplane.FullMask, PrefixLen: -1}},
		Action: "NoAction",
	}}
	if err := sh.Apply(u); err != nil {
		t.Fatal(err)
	}
	want, _ := sh.MarshalSnapshot()

	sh2, _ := New(tinySpec())
	st2, _ := OpenStore(dir)
	if err := sh2.AttachStore(st2); err != nil {
		t.Fatalf("restore with full-mask entry: %v", err)
	}
	got, _ := sh2.MarshalSnapshot()
	if !bytes.Equal(want, got) {
		t.Fatalf("full-mask entry corrupted:\nwant %s\ngot  %s", want, got)
	}
}

// TestCheckpointSyncOrder pins what is made durable in which order. A
// checkpoint fsyncs the snapshot's tmp file, renames it, fsyncs the
// directory and only then truncates the journal: with the truncation
// durable and the rename not, a power loss would recover the previous
// snapshot beside an empty journal. NoSync waives power-loss durability
// and pays for neither the per-record nor the directory fsync.
func TestCheckpointSyncOrder(t *testing.T) {
	t.Cleanup(func() { fsync = (*os.File).Sync })
	for _, noSync := range []bool{false, true} {
		dir := t.TempDir()
		st, _ := OpenStore(dir)
		st.NoSync = noSync
		var steps []string
		fsync = func(f *os.File) error {
			name := filepath.Base(f.Name())
			if f.Name() == dir {
				name = "dir"
			}
			if ok, _ := filepath.Match(tmpPattern, name); ok {
				name = "snapshot.bin.tmp" // each checkpoint's has a name of its own
			}
			tmps, _ := filepath.Glob(filepath.Join(dir, tmpPattern))
			_, snapErr := os.Stat(st.SnapshotPath())
			journal, _ := os.ReadFile(st.JournalPath())
			steps = append(steps, fmt.Sprintf("%s tmp=%t snapshot=%t records=%t",
				name, len(tmps) > 0, snapErr == nil, len(journal) > len(st.header)))
			return f.Sync()
		}

		sh, _ := New(tinySpec())
		if err := sh.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		if err := sh.Apply(insertT(1, "NoAction")); err != nil {
			t.Fatal(err)
		}
		if err := sh.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if journal, _ := os.ReadFile(st.JournalPath()); !bytes.Equal(journal, st.header) {
			t.Fatalf("NoSync=%t: journal holds %d bytes after the checkpoint", noSync, len(journal))
		}
		want := []string{
			"dir tmp=false snapshot=false records=false",            // the new journal's directory entry
			"journal.bin tmp=false snapshot=false records=true",     // the record
			"snapshot.bin.tmp tmp=true snapshot=false records=true", // the snapshot's bytes
			"dir tmp=false snapshot=true records=true",              // its rename, before the truncation
		}
		if noSync {
			want = want[2:3]
		}
		if !reflect.DeepEqual(steps, want) {
			t.Fatalf("NoSync=%t: syncs\n %s\nwant\n %s", noSync, strings.Join(steps, "\n "), strings.Join(want, "\n "))
		}
	}
}

// TestFencedCheckpointSparesSuccessor interleaves the checkpoint a fenced
// incarnation is still in the middle of with one of the incarnation that
// replaced it, as a failover under load does. The zombie finds itself
// fenced and cleans up while the successor's snapshot is written but not
// yet renamed; with one temporary name for both, that clean-up (or the
// successor's O_TRUNC before it) destroyed the other's file and the
// successor's checkpoint failed at the rename — the flake
// TestFleetChaosFailover showed about once in forty -race runs.
func TestFencedCheckpointSparesSuccessor(t *testing.T) {
	t.Cleanup(func() { fsync = (*os.File).Sync })
	dir := t.TempDir()
	attach := func() (*Shim, *Store) {
		st, _ := OpenStore(dir)
		st.NoSync = true
		sh := tinyShim(t)
		if err := sh.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		return sh, st
	}
	zombie, zombieStore := attach()
	if err := zombie.Apply(insertT(1, "NoAction")); err != nil {
		t.Fatal(err)
	}

	// The n-th sync of a snapshot's temporary file signals reached[n] and
	// waits for resume[n]: 0 is the zombie's, 1 the successor's.
	reached := []chan struct{}{make(chan struct{}), make(chan struct{})}
	resume := []chan struct{}{make(chan struct{}), make(chan struct{})}
	n := 0
	fsync = func(f *os.File) error {
		if ok, _ := filepath.Match(tmpPattern, filepath.Base(f.Name())); ok && n < 2 {
			i := n
			n++
			close(reached[i])
			<-resume[i]
		}
		return f.Sync()
	}
	zombieDone := make(chan error, 1)
	go func() { zombieDone <- zombie.Checkpoint() }()
	<-reached[0]
	zombieStore.Fence() // Shard.Kill; the shard then restores

	successor, st := attach()
	defer st.Close()
	if err := successor.Apply(insertT(2, "NoAction")); err != nil {
		t.Fatal(err)
	}
	successorDone := make(chan error, 1)
	go func() { successorDone <- successor.Checkpoint() }()
	<-reached[1]
	close(resume[0])
	if err := <-zombieDone; err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("the fenced incarnation's checkpoint: %v, want a refusal", err)
	}
	close(resume[1])
	if err := <-successorDone; err != nil {
		t.Fatalf("the successor's checkpoint, interleaved with the zombie's clean-up: %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, tmpPattern)); len(tmps) != 0 {
		t.Fatalf("temporary files left behind: %v", tmps)
	}

	want, _ := successor.MarshalSnapshot()
	st.Close()
	// A stale temporary file, as a kill -9 mid-checkpoint leaves one, is
	// swept by the next incarnation.
	stale := filepath.Join(dir, strings.Replace(tmpPattern, "*", "123", 1))
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, st3 := attach()
	defer st3.Close()
	if got, _ := restored.MarshalSnapshot(); !bytes.Equal(got, want) || restored.ShadowSize("t") != 2 {
		t.Fatalf("state restored from the successor's checkpoint:\n %q\nwant\n %q", got, want)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temporary file survived AttachStore: %v", err)
	}
}

// TestLegacyStateDirRefused: a directory written by the JSON persistence
// (testdata/legacy-state, produced by the last commit that had it) is
// refused by name, whichever of its two files is present — never
// started empty over, never half-read.
func TestLegacyStateDirRefused(t *testing.T) {
	for _, names := range [][]string{{"snapshot.json", "journal.jsonl"}, {"snapshot.json"}, {"journal.jsonl"}} {
		dir := t.TempDir()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join("testdata", "legacy-state", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := OpenStore(dir)
		err := tinyShim(t).AttachStore(st)
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, names[0])) {
			t.Fatalf("%v: AttachStore = %v, want a refusal naming %s", names, err, names[0])
		}
		if left, _ := os.ReadDir(dir); len(left) != len(names) {
			t.Fatalf("%v: the refused directory now holds %d files", names, len(left))
		}
	}
}

// TestCodecRoundTrip: entries of every key kind at widths up to
// smt.MaxWidth, the full-mask sentinel, empty and wide params and negative
// priorities come back from the decoder as they went into the encoder,
// alone and inside an update; what the format cannot hold is an encoder
// error, not a silent misreading.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	value := func(width int) dataplane.Value {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(width)))
		if rng.Intn(4) == 0 {
			v.SetBit(v, width-1, 1) // the top bit, so that the widest encoding occurs
		}
		return bigValue(v)
	}
	for _, width := range []int{1, 8, 64, 65, 128, 4096} {
		for i := 0; i < 50; i++ {
			e := &dataplane.Entry{
				Keys: []dataplane.KeyMatch{
					{Value: value(width), PrefixLen: -1},
					{Value: value(width), Mask: value(width), MaskKind: dataplane.MaskBits, PrefixLen: -1},
					{Value: value(width), MaskKind: dataplane.FullMask, PrefixLen: -1},
					{Value: value(width), PrefixLen: rng.Intn(width + 1)},
					{MaskKind: dataplane.MaskBits, PrefixLen: 0},
				},
				Action:   fmt.Sprintf("act%d", i),
				Priority: rng.Intn(200) - 100,
			}
			for n := rng.Intn(3); n > 0; n-- {
				e.Params = append(e.Params, value(width))
			}
			u := &Update{Table: "t", Entry: e}
			if i%2 == 0 {
				u.SetDefault = &dataplane.DefaultAction{Action: "d", Params: e.Params}
			}
			var enc Encoder
			enc.Entry(e)
			enc.Update(u)
			if enc.Err != nil {
				t.Fatal(enc.Err)
			}
			d := Decoder{Buf: enc.Buf}
			gotE, gotU := d.Entry(), d.Update()
			if d.Err != nil || len(d.Buf) != 0 {
				t.Fatalf("width %d: decode error %v, %d bytes left", width, d.Err, len(d.Buf))
			}
			// Compared as printed, values in decimal.
			show := func(e *dataplane.Entry, u *Update) string {
				return fmt.Sprintf("%+v | %s %+v %+v", e, u.Table, u.Entry, u.SetDefault)
			}
			if got, want := show(gotE, gotU), show(e, u); got != want {
				t.Fatalf("width %d: round trip changed\n %s\nto\n %s", width, want, got)
			}
			// Every strict prefix is an error, never a panic or a value.
			for cut := 0; cut < len(enc.Buf); cut += 1 + len(enc.Buf)/64 {
				d := Decoder{Buf: enc.Buf[:cut]}
				d.Entry()
				d.Update()
				if d.Err == nil {
					t.Fatalf("width %d: prefix of %d bytes decoded", width, cut)
				}
			}
		}
	}
	for name, k := range map[string]dataplane.KeyMatch{
		"unknown mask kind": {Value: dataplane.U64(2), MaskKind: dataplane.FullMask + 1, PrefixLen: -1},
		"over-wide":         {Value: bigValue(new(big.Int).Lsh(big.NewInt(1), smt.MaxWidth)), PrefixLen: -1},
		"long prefix":       {Value: dataplane.U64(2), PrefixLen: smt.MaxWidth + 1},
	} {
		var enc Encoder
		enc.Entry(&dataplane.Entry{Keys: []dataplane.KeyMatch{k}})
		if enc.Err == nil {
			t.Errorf("%s: encoded without error", name)
		}
		sh := tinyShim(t)
		st, _ := OpenStore(t.TempDir())
		if err := sh.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		u := &Update{Table: "t", Entry: &dataplane.Entry{Keys: []dataplane.KeyMatch{k}, Action: "NoAction"}}
		if err := sh.Apply(u); err == nil || sh.ShadowSize("t") != 0 {
			t.Errorf("%s: an update the journal cannot hold was applied (error %v)", name, err)
		}
		st.Close()
	}
}

// TestCheckpointMetrics: the stall a checkpoint puts into the request that
// triggers it, the snapshot's size and the journal's byte volume are the
// shim's own numbers, not something to infer from outside.
func TestCheckpointMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sh := tinyShim(t)
	sh.SetObs(reg)
	st, _ := OpenStore(t.TempDir())
	st.NoSync = true
	st.CompactEvery = 4
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 9; i++ {
		if err := sh.Apply(insertT(30+i, "NoAction")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.Stat(st.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.Stat(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.GaugeValue("bf4_shim_snapshot_bytes"); got != snap.Size() {
		t.Errorf("bf4_shim_snapshot_bytes = %d, the file has %d", got, snap.Size())
	}
	// Nine records of one size; the journal holds the ninth behind its header.
	record := journal.Size() - int64(len(st.header))
	if got := reg.CounterValue("bf4_shim_journal_bytes_total"); got != 9*record {
		t.Errorf("bf4_shim_journal_bytes_total = %d, want 9 records of %d bytes", got, record)
	}
	if h := reg.Histogram("bf4_shim_checkpoint_ns", obs.DurationBuckets); h.Count() != 2 || h.Sum() <= 0 {
		t.Errorf("bf4_shim_checkpoint_ns: %d checkpoints over %d ns, want 2", h.Count(), h.Sum())
	}
}
