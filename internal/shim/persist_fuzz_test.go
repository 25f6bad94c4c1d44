package shim_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

// corpusSpec verifies a corpus program and returns its annotation file.
func corpusSpec(tb testing.TB, name string) *spec.File {
	tb.Helper()
	p := progs.Get(name)
	_, file := verifyToFile(tb, p.Name, p.Source, driver.DefaultConfig())
	return file
}

// attach brings up a shim of cp on the state directory dir.
func attach(cp *shim.Compiled, dir string) (*shim.Shim, *shim.Store, error) {
	st, err := shim.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	st.NoSync = true
	sh := shim.NewFromCompiled(cp)
	if err := sh.AttachStore(st); err != nil {
		st.Close()
		return nil, nil, err
	}
	return sh, st, nil
}

// traceState pushes the seeded trace of file through a journaled shim —
// singles with idempotency keys, batches, a default — and returns the
// snapshot its one checkpoint wrote and the journal of what came after.
func traceState(tb testing.TB, file *spec.File, cp *shim.Compiled, dir string) (journal, snapshot []byte) {
	tb.Helper()
	sh, st, err := attach(cp, dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	accepted := 0
	for i, u := range trace.NewGenerator(5, file).Updates(90) {
		if i == 45 {
			if err := sh.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		}
		if i%10 == 9 {
			err = sh.ApplyBatchWithKey(fmt.Sprintf("c:%d", i), []*shim.Update{u, u})
		} else {
			err = sh.ApplyWithKey(fmt.Sprintf("c:%d", i), u)
		}
		if err == nil {
			accepted++
		}
	}
	table := file.Tables[0]
	if err := sh.Apply(&shim.Update{Table: table.Name, SetDefault: &dataplane.DefaultAction{Action: table.Default}}); err != nil {
		tb.Fatal(err)
	}
	if accepted < 20 {
		tb.Fatalf("the trace got %d updates accepted", accepted)
	}
	if journal, err = os.ReadFile(st.JournalPath()); err != nil {
		tb.Fatal(err)
	}
	if snapshot, err = os.ReadFile(st.SnapshotPath()); err != nil {
		tb.Fatal(err)
	}
	return journal, snapshot
}

// TestStateOfAnotherProgramRefused: state written under one program is not
// loaded under another, whether it is the snapshot or the journal that
// says so.
func TestStateOfAnotherProgramRefused(t *testing.T) {
	nat := corpusSpec(t, "simple_nat")
	natCP, err := shim.Compile(nat)
	if err != nil {
		t.Fatal(err)
	}
	routingCP, err := shim.Compile(corpusSpec(t, "basic_routing"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journal, snapshot := traceState(t, nat, natCP, dir)
	for name, files := range map[string][2][]byte{
		"both":     {journal, snapshot},
		"journal":  {journal, nil},
		"snapshot": {nil, snapshot},
	} {
		dir := t.TempDir()
		st, _ := shim.OpenStore(dir)
		writeFiles(t, st, files[0], files[1])
		if _, _, err := attach(routingCP, dir); err == nil ||
			!strings.Contains(err.Error(), `"simple_nat"`) || !strings.Contains(err.Error(), `"basic_routing"`) {
			t.Errorf("%s: basic_routing on simple_nat's state: %v, want a refusal naming both", name, err)
		}
		if _, st, err := attach(natCP, dir); err != nil {
			t.Errorf("%s: simple_nat on its own state: %v", name, err)
		} else {
			st.Close()
		}
	}
}

func writeFiles(tb testing.TB, st *shim.Store, journal, snapshot []byte) {
	tb.Helper()
	for path, data := range map[string][]byte{st.JournalPath(): journal, st.SnapshotPath(): snapshot} {
		if data == nil {
			continue
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestStoredMalformedStateRefused: state the shim would not have admitted
// is not loaded either. The journal is FuzzJournalReplay's seed
// seed-stored-bogus-action — a checksummed record holding a nat entry that
// runs bogus_action — and the snapshot a checkpoint of well-formed traffic
// with an entry's drop_ turned into bogus and the checksum redone. Each is
// refused at AttachStore like mid-file corruption is, naming the file and
// the record; the directory is left as it was.
func TestStoredMalformedStateRefused(t *testing.T) {
	file := corpusSpec(t, "simple_nat")
	cp, err := shim.Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzJournalReplay", "seed-stored-bogus-action"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(seed), "\n")[1], "[]byte("), ")")
	payload, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(make([]byte, shim.FrameHeader), payload...)
	shim.SealFrame(frame)
	journal := append(shim.JournalHeader(file.Program), frame...)

	_, snapshot := traceState(t, file, cp, t.TempDir())
	if n := bytes.Count(snapshot, []byte("\x05drop_")); n == 0 {
		t.Fatal("premise: the trace's snapshot holds no drop_ entry")
	}
	snapshot = bytes.Replace(snapshot[:len(snapshot)-4], []byte("\x05drop_"), []byte("\x05bogus"), 1)
	snapshot = binary.LittleEndian.AppendUint32(snapshot, crc32.ChecksumIEEE(snapshot))

	for name, files := range map[string][2][]byte{"journal": {journal, nil}, "snapshot": {nil, snapshot}} {
		dir := t.TempDir()
		st, _ := shim.OpenStore(dir)
		writeFiles(t, st, files[0], files[1])
		path, record, action := st.JournalPath(), fmt.Sprintf("offset %d holds a malformed update (0, to table nat)", len(journal)-len(frame)), `"bogus_action"`
		if name == "snapshot" {
			path, record, action = st.SnapshotPath(), " entry ", `"bogus"`
		}
		_, _, err := attach(cp, dir)
		if err == nil {
			t.Fatalf("%s holding a bogus action was loaded", name)
		}
		for _, want := range []string{path, record, "has no action " + action} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: AttachStore = %v, want it to say %q", name, err, want)
			}
		}
		if left, _ := os.ReadFile(path); !bytes.Equal(left, append(files[0], files[1]...)) {
			t.Errorf("%s: the refused file was rewritten", name)
		}
	}
}

// FuzzJournalReplay: the bytes of a state directory are outside input.
// Whatever the journal and the snapshot hold, AttachStore returns an error
// or a state — it does not panic and does not allocate by a number found
// in the bytes — and a state it accepts is one the shim can checkpoint
// and load back unchanged. With reseal, the journal bytes are one
// record's payload and both files get correct checksums, so that the
// decoders behind the checksums are reached too.
func FuzzJournalReplay(f *testing.F) {
	file := corpusSpec(f, "simple_nat")
	cp, err := shim.Compile(file)
	if err != nil {
		f.Fatal(err)
	}
	header := shim.JournalHeader(file.Program)
	journal, snapshot := traceState(f, file, cp, f.TempDir())
	f.Add(journal, snapshot, false)
	f.Add(journal, []byte(nil), false)
	f.Add(journal[:len(journal)-5], snapshot, false)
	f.Add([]byte(nil), snapshot, false)
	for off := len(header); off < len(journal); {
		size := shim.FrameHeader + int(binary.LittleEndian.Uint32(journal[off:]))
		f.Add(journal[off+shim.FrameHeader:off+size], snapshot, true)
		off += size
	}
	f.Fuzz(func(t *testing.T, journal, snapshot []byte, reseal bool) {
		if reseal {
			frame := append(make([]byte, shim.FrameHeader), journal...)
			shim.SealFrame(frame)
			journal = append(append([]byte{}, header...), frame...)
			if len(snapshot) >= 4 {
				snapshot = binary.LittleEndian.AppendUint32(snapshot[:len(snapshot)-4:len(snapshot)-4],
					crc32.ChecksumIEEE(snapshot[:len(snapshot)-4]))
			}
		}
		dir := t.TempDir()
		st, _ := shim.OpenStore(dir)
		writeFiles(t, st, journal, snapshot)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sh, st, err := attach(cp, dir)
		runtime.ReadMemStats(&after)
		if grew, size := after.TotalAlloc-before.TotalAlloc, len(journal)+len(snapshot); grew > uint64(1<<20+256*size) {
			t.Fatalf("AttachStore allocated %d bytes over %d bytes of state", grew, size)
		}
		if err != nil {
			return
		}
		if err := sh.Checkpoint(); err != nil {
			t.Fatalf("accepted state does not checkpoint: %v", err)
		}
		st.Close()
		want, err := sh.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		sh2, st2, err := attach(cp, dir)
		if err != nil {
			t.Fatalf("the checkpoint of an accepted state does not load: %v", err)
		}
		st2.Close()
		if got, _ := sh2.MarshalSnapshot(); !bytes.Equal(got, want) {
			t.Fatalf("state changed across checkpoint and load:\n %q\n %q", want, got)
		}
	})
}
