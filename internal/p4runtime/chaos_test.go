package p4runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/faultnet"
	"bf4/internal/shim"
)

// chaosSeed returns the fault-schedule seed: BF4_CHAOS_SEED if set
// (CI pins it for reproducible chaos runs), else a fixed default.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("BF4_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad BF4_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 1337
}

// saveChaosArtifacts copies the shim's state dir to
// BF4_CHAOS_ARTIFACT_DIR when the test fails, so CI can upload the
// journal for postmortem.
func saveChaosArtifacts(t *testing.T, stateDir string) {
	t.Cleanup(func() {
		out := os.Getenv("BF4_CHAOS_ARTIFACT_DIR")
		if out == "" || !t.Failed() {
			return
		}
		dst := filepath.Join(out, t.Name())
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		ents, _ := os.ReadDir(stateDir)
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(stateDir, e.Name()))
			if err == nil {
				os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
			}
		}
		t.Logf("chaos artifacts saved to %s", dst)
	})
}

func chaosFaults(seed int64) faultnet.Schedule {
	return faultnet.NewRandom(seed, faultnet.RandomOpts{
		DropProb:     0.04,
		TruncateProb: 0.04,
		DelayProb:    0.10,
		PartialProb:  0.15,
		MaxDelay:     time.Millisecond,
	})
}

func chaosClientOpts(seed int64, sched faultnet.Schedule, addr string) Options {
	d := &faultnet.Dialer{Schedule: sched, Timeout: 2 * time.Second}
	return Options{
		CallTimeout: 2 * time.Second,
		MaxAttempts: 60,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        seed,
		Dialer:      func() (net.Conn, error) { return d.Dial(addr) },
	}
}

// chaosOp is one step of the deterministic convergence workload.
// reject marks ops the shim must refuse in both runs.
type chaosOp struct {
	do     func(apply func(*shim.Update) error, batch func([]*shim.Update) error) error
	reject bool
}

func insertOp(table string, key int64) *shim.Update {
	return &shim.Update{Table: table, Entry: &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(key)},
		Action: "NoAction",
	}}
}

func chaosWorkload() []chaosOp {
	var ops []chaosOp
	single := func(u *shim.Update, reject bool) {
		ops = append(ops, chaosOp{
			do:     func(apply func(*shim.Update) error, _ func([]*shim.Update) error) error { return apply(u) },
			reject: reject,
		})
	}
	batchOp := func(us []*shim.Update, reject bool) {
		ops = append(ops, chaosOp{
			do:     func(_ func(*shim.Update) error, batch func([]*shim.Update) error) error { return batch(us) },
			reject: reject,
		})
	}
	for i := int64(0); i < 30; i++ {
		switch {
		case i%9 == 7:
			// Unknown table: deterministic rejection.
			single(insertOp("ghost", i), true)
		case i%9 == 4:
			batchOp([]*shim.Update{insertOp("t", 100+i), insertOp("t", 130+i)}, false)
		case i%9 == 8:
			// Second element fails: whole batch must roll back.
			batchOp([]*shim.Update{insertOp("t", 160+i), insertOp("ghost", i)}, true)
		default:
			single(insertOp("t", i), false)
		}
	}
	single(&shim.Update{Table: "t", SetDefault: &dataplane.DefaultAction{Action: "bad"}}, true)
	single(&shim.Update{Table: "t", SetDefault: &dataplane.DefaultAction{Action: "NoAction"}}, false)
	return ops
}

// TestChaosConvergence drives the same workload through a fault-free
// in-process shim and through the full wire stack under injected
// drops/truncations/delays/partial writes. The client must retry every
// transport failure to success without double-applying anything: the
// final shadow state is byte-identical, including after a simulated
// kill -9 and restart from the state dir.
func TestChaosConvergence(t *testing.T) {
	seed := chaosSeed(t)
	ops := chaosWorkload()

	// Reference: fault-free, in-process.
	ref, err := shim.New(rawSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		err := op.do(ref.Apply, ref.ApplyBatch)
		if op.reject != (err != nil) {
			t.Fatalf("reference op %d: reject=%v err=%v", i, op.reject, err)
		}
	}
	want, err := ref.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: same workload over the wire through faultnet, with the
	// shim journaling to a state dir.
	stateDir := t.TempDir()
	saveChaosArtifacts(t, filepath.Join(stateDir, "sw0"))
	srv := &Server{ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}
	sd, addr := serve(t, rawSpec(), shim.FleetConfig{StateRoot: stateDir}, srv)

	client, err := DialOptions(addr, chaosClientOpts(seed, chaosFaults(seed), addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	apply := func(u *shim.Update) error {
		if u.SetDefault != nil {
			return client.SetDefault(u.Table, u.SetDefault.Action, u.SetDefault.Params)
		}
		return client.Insert(u.Table, u.Entry)
	}
	batch := func(us []*shim.Update) error {
		ops := make([]BatchOp, len(us))
		for i, u := range us {
			ops[i] = BatchOp{Table: u.Table, Entry: u.Entry, Default: u.SetDefault}
		}
		return client.WriteBatch(ops)
	}
	for i, op := range ops {
		err := op.do(apply, batch)
		if op.reject && err == nil {
			t.Fatalf("chaos op %d: rejection lost in transit", i)
		}
		if !op.reject && err != nil {
			t.Fatalf("chaos op %d: transport fault surfaced despite retries: %v", i, err)
		}
	}

	got, err := sd.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("chaos run diverged from fault-free run:\nwant %s\ngot  %s", want, got)
	}

	// Simulated kill -9: the incarnation is fenced, no Close, no
	// Checkpoint. The shard restored from its state dir matches without
	// any controller replay.
	sd.Kill()
	if err := srv.Fleet.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	restored, err := sd.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, restored) {
		t.Fatalf("restart diverged:\nwant %s\ngot  %s", want, restored)
	}
}

// canonicalEntries renders a snapshot order-independently: concurrent
// clients interleave arbitrarily, so entries are compared as sorted
// multisets per table.
func canonicalEntries(snap *dataplane.Snapshot) map[string][]string {
	out := map[string][]string{}
	for tbl, entries := range snap.Entries {
		for _, e := range entries {
			b, _ := json.Marshal(EncodeEntry(e))
			out[tbl] = append(out[tbl], string(b))
		}
		sort.Strings(out[tbl])
	}
	return out
}

// TestChaosRaceSoak exercises the full stack under -race: concurrent
// clients hammer one server with inserts, validates, packets and stats
// through independent fault schedules; the surviving shadow state must
// equal a sequential fault-free reference.
func TestChaosRaceSoak(t *testing.T) {
	seed := chaosSeed(t)
	prog, file := natProgram(t)
	srv := &Server{Prog: prog, ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}
	sd, addr := serve(t, file, shim.FleetConfig{}, srv)

	const clients = 6
	const perClient = 8
	entryFor := func(c, j int) *dataplane.Entry {
		return &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(int64(c*100+j), -1)},
			Action: "drop_",
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cseed := seed + int64(c)*7919
			cl, err := DialOptions(addr, chaosClientOpts(cseed, chaosFaults(cseed), addr))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				if err := cl.Insert("nat", entryFor(c, j)); err != nil {
					errs <- fmt.Errorf("client %d insert %d: %w", c, j, err)
					return
				}
				if err := cl.Validate("nat", entryFor(c, j)); err != nil {
					errs <- fmt.Errorf("client %d validate %d: %w", c, j, err)
					return
				}
				if _, err := cl.SendPacket(map[string]int64{
					"hdr.ethernet.etherType": 0x800,
					"hdr.ipv4.srcAddr":       int64(c*100 + j),
					"hdr.ipv4.ttl":           64,
				}); err != nil {
					errs <- fmt.Errorf("client %d packet %d: %w", c, j, err)
					return
				}
				if _, _, err := cl.Stats(); err != nil {
					errs <- fmt.Errorf("client %d stats %d: %w", c, j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Sequential fault-free reference.
	ref, err := shim.New(file)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		for j := 0; j < perClient; j++ {
			if err := ref.Apply(&shim.Update{Table: "nat", Entry: entryFor(c, j)}); err != nil {
				t.Fatalf("reference insert: %v", err)
			}
		}
	}
	got := canonicalEntries(sd.Snapshot())
	want := canonicalEntries(ref.Snapshot())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("soak shadow state diverged:\ngot  %v\nwant %v", got, want)
	}
}
