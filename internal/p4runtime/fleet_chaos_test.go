package p4runtime

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bf4/internal/faultnet"
	"bf4/internal/obs"
	"bf4/internal/shim"
)

// fleetChaosConfig is the shared fleet tuning for chaos tests: fast
// supervisor ticks so restores complete inside client backoff windows.
func fleetChaosConfig(root string, reg *obs.Registry) shim.FleetConfig {
	return shim.FleetConfig{
		StateRoot:      root,
		HealthInterval: 10 * time.Millisecond,
		HealthDeadline: 2 * time.Second,
		OpWait:         time.Second,
		CompactEvery:   5,
		Obs:            reg,
	}
}

// TestFleetChaosFailover is the fleet-scale chaos proof: dozens of
// concurrent controllers drive a multi-shard server while a killer
// goroutine repeatedly fences random shards (the supervisor restores
// them from snapshot+journal). Every controller op must eventually ack;
// afterwards each shard's shadow state must equal a fault-free oracle
// fed exactly the acked updates — nothing acked lost, nothing
// double-applied — and a final kill+restore must reproduce the state
// byte-identically from disk.
func TestFleetChaosFailover(t *testing.T) {
	seed := chaosSeed(t)
	root := t.TempDir()
	saveChaosArtifacts(t, root)
	reg := obs.NewRegistry()

	fleet := shim.NewFleet(fleetChaosConfig(root, reg))
	defer fleet.Close()
	shardIDs := []string{"sw0", "sw1", "sw2"}
	file := rawSpec()
	for _, id := range shardIDs {
		if _, err := fleet.AddShard(id, file); err != nil {
			t.Fatal(err)
		}
	}
	// Verify-once over the wire stack: three switches, one program, one
	// compile.
	if got := reg.CounterValue("bf4_fleet_annotation_compiles_total"); got != 1 {
		t.Fatalf("annotation compiles = %d, want 1 (verify once, guard all shards)", got)
	}
	fleet.StartSupervisor()

	srv := &Server{Fleet: fleet, DefaultSwitch: "sw0",
		ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Killer: fence a random shard every few milliseconds until the
	// workload drains. The supervisor races it with restores.
	done := make(chan struct{})
	var killerWG sync.WaitGroup
	killerWG.Add(1)
	go func() {
		defer killerWG.Done()
		rng := mrand.New(mrand.NewSource(seed * 31))
		for {
			select {
			case <-done:
				return
			default:
			}
			time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
			fleet.Kill(shardIDs[rng.Intn(len(shardIDs))])
		}
	}()

	// Workload: clientsPerShard controllers per switch, each inserting
	// perClient distinct keys (8-bit key space: local client index × 16
	// + op index stays unique per shard).
	const clientsPerShard = 8
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan error, clientsPerShard*len(shardIDs))
	for si, id := range shardIDs {
		for c := 0; c < clientsPerShard; c++ {
			wg.Add(1)
			go func(si, c int, id string) {
				defer wg.Done()
				cl, err := DialOptions(addr, Options{
					CallTimeout: 2 * time.Second,
					MaxAttempts: 100,
					BackoffBase: time.Millisecond,
					BackoffMax:  20 * time.Millisecond,
					Seed:        seed + int64(si*100+c)*7919,
					Switch:      id,
				})
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				for j := 0; j < perClient; j++ {
					u := insertOp("t", int64(c*16+j))
					if err := cl.Insert(u.Table, u.Entry); err != nil {
						errs <- fmt.Errorf("shard %s client %d insert %d: %w", id, c, j, err)
						return
					}
				}
				if _, err := cl.Health(); err != nil {
					errs <- fmt.Errorf("shard %s client %d health: %w", id, c, err)
				}
			}(si, c, id)
		}
	}
	wg.Wait()
	close(done)
	killerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce: restore everything the killer left down.
	waitAllHealthy(t, fleet, shardIDs)
	if got := reg.CounterValue("bf4_fleet_restores_total"); got == 0 {
		t.Fatal("chaos run finished with zero restores — the killer never landed")
	}

	// Oracle: a fault-free shim fed exactly the acked updates (all of
	// them: every client op above was required to succeed).
	for _, id := range shardIDs {
		ref, err := shim.New(rawSpec())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clientsPerShard; c++ {
			for j := 0; j < perClient; j++ {
				if err := ref.Apply(insertOp("t", int64(c*16+j))); err != nil {
					t.Fatalf("oracle apply: %v", err)
				}
			}
		}
		sd := fleet.Shard(id)
		got := canonicalEntries(sd.Snapshot())
		want := canonicalEntries(ref.Snapshot())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %s diverged from fault-free oracle:\ngot  %v\nwant %v", id, got, want)
		}

		// Byte-identical restore: fence the live incarnation and rebuild
		// purely from snapshot+journal.
		before, err := sd.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		fleet.Kill(id)
		if err := fleet.RestoreNow(id); err != nil {
			t.Fatalf("shard %s restore: %v", id, err)
		}
		after, err := sd.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("shard %s restore not byte-identical:\nbefore %s\nafter  %s", id, before, after)
		}
	}
}

func waitAllHealthy(t *testing.T, fleet *shim.Fleet, ids []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for _, st := range fleet.Health() {
			if st != "healthy" {
				healthy = false
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never became healthy: %v", fleet.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cutOnBatchConn partitions its gate immediately after forwarding the
// first batch request frame: the server receives (and processes) the
// batch, but the response never reaches the client — the sharpest
// version of an ambiguous outcome.
type cutOnBatchConn struct {
	net.Conn
	gate *faultnet.Gate
	once *sync.Once
}

func (c *cutOnBatchConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil && bytes.Contains(p, []byte("\x05batch")) { // the type field of a batch request frame
		c.once.Do(c.gate.Cut)
	}
	return n, err
}

// TestFleetPartitionHealDuringCheckpoint partitions the controller off
// the moment its WriteBatch frame is delivered, while the shard's
// CompactEvery=1 store checkpoints on that very record. The client
// retries across the healed partition with the same request ID; the
// persisted dedup window must short-circuit the retry (no duplicate
// applies), and must keep doing so after a full kill+restore — the
// window survives both the checkpoint that folded the journal record
// away and the restore from that checkpoint.
func TestFleetPartitionHealDuringCheckpoint(t *testing.T) {
	root := t.TempDir()
	saveChaosArtifacts(t, root)
	reg := obs.NewRegistry()

	cfg := fleetChaosConfig(root, reg)
	cfg.CompactEvery = 1 // every record triggers a checkpoint
	fleet := shim.NewFleet(cfg)
	defer fleet.Close()
	if _, err := fleet.AddShard("sw0", rawSpec()); err != nil {
		t.Fatal(err)
	}

	srv := &Server{Fleet: fleet, DefaultSwitch: "sw0",
		ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	gate := faultnet.NewGate()
	var once sync.Once
	cl, err := DialOptions(addr, Options{
		CallTimeout: 2 * time.Second,
		MaxAttempts: 100,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        20260808,
		Dialer: func() (net.Conn, error) {
			c, err := gate.Dial(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 2*time.Second)
			})
			if err != nil {
				return nil, err
			}
			return &cutOnBatchConn{Conn: c, gate: gate, once: &once}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sd := fleet.Shard("sw0")
	ops := []BatchOp{
		{Table: "t", Entry: insertOp("t", 1).Entry},
		{Table: "t", Entry: insertOp("t", 2).Entry},
		{Table: "t", Entry: insertOp("t", 3).Entry},
	}

	// Healer: once the server has applied the batch (shadow grew) and the
	// partition has struck, lift it so the client's retry can land.
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if gate.IsCut() && sd.ShadowSize("t") == len(ops) {
				gate.Heal()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	if err := cl.WriteBatch(ops); err != nil {
		t.Fatalf("batch never converged across the partition: %v", err)
	}
	<-healed

	if got := sd.ShadowSize("t"); got != len(ops) {
		t.Fatalf("shadow has %d entries, want %d (retry double-applied or batch lost)", got, len(ops))
	}
	if hits := reg.CounterValue("bf4_shim_dedup_hits_total"); hits == 0 {
		t.Fatal("retry was not short-circuited by the dedup window")
	}

	// The dedup window must survive a restore from the checkpoint that
	// folded the batch's journal record away. The batch was this client's
	// first request, so its idempotency key is "<client id>:1".
	fleet.Kill("sw0")
	if err := fleet.RestoreNow("sw0"); err != nil {
		t.Fatal(err)
	}
	key := cl.ID() + ":1"
	updates := make([]*shim.Update, len(ops))
	for i, op := range ops {
		updates[i] = &shim.Update{Table: op.Table, Entry: op.Entry}
	}
	if err := sd.ApplyBatchWithKey(key, updates); err != nil {
		t.Fatalf("replayed key after restore: %v", err)
	}
	if got := sd.ShadowSize("t"); got != len(ops) {
		t.Fatalf("post-restore retry double-applied: %d entries, want %d", got, len(ops))
	}
}

// ackWatcher parses "acked N" lines from the child shard's stdout and
// signals once a target batch count has been durably acknowledged.
type ackWatcher struct {
	mu      sync.Mutex
	partial []byte
	max     int // highest acked batch index (-1 = none)
	target  int
	reached chan struct{}
	fired   bool
}

func newAckWatcher(target int) *ackWatcher {
	return &ackWatcher{max: -1, target: target, reached: make(chan struct{})}
}

func (w *ackWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := strings.TrimSpace(string(w.partial[:i]))
		w.partial = w.partial[i+1:]
		var n int
		if _, err := fmt.Sscanf(line, "acked %d", &n); err == nil && n > w.max {
			w.max = n
		}
	}
	if !w.fired && w.max+1 >= w.target {
		w.fired = true
		close(w.reached)
	}
	return len(p), nil
}

func (w *ackWatcher) acked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max
}

// TestShimShardChildProcess is the re-exec helper for the SIGKILL test:
// run as a child process, it opens a persisted shim and applies batches
// until killed, printing "acked N" after each durable acknowledgement
// (the journal fsync has returned before the line is written).
func TestShimShardChildProcess(t *testing.T) {
	if os.Getenv("BF4_SHARD_CHILD") != "1" {
		t.Skip("child-process helper; driven by TestFleetSIGKILLShardMidBatch")
	}
	dir := os.Getenv("BF4_SHARD_CHILD_DIR")
	sh, err := shim.New(rawSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := shim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	for i := 0; i < 100; i++ {
		batch := []*shim.Update{
			insertOp("t", int64(2*i)),
			insertOp("t", int64(2*i+1)),
		}
		if err := sh.ApplyBatchWithKey(fmt.Sprintf("child:%d", i), batch); err != nil {
			t.Fatalf("child batch %d: %v", i, err)
		}
		fmt.Fprintf(out, "acked %d\n", i)
		out.Flush()
		time.Sleep(time.Millisecond)
	}
	// Deliberately no Close/Checkpoint: if the parent never kills us, the
	// exit still looks like a crash to the recovery path.
}

// TestFleetSIGKILLShardMidBatch runs a shard as a real child process
// and delivers SIGKILL while it is mid-batch — no deferred cleanup, no
// flushed buffers. Recovery from the state dir must retain every acked
// batch exactly once; at most one journaled-but-unacked batch beyond
// that is permitted (durable but killed before the ack line).
func TestFleetSIGKILLShardMidBatch(t *testing.T) {
	dir := t.TempDir()
	saveChaosArtifacts(t, dir)

	w := newAckWatcher(8)
	proc, err := faultnet.StartProc(os.Args[0],
		[]string{"-test.run=TestShimShardChildProcess$", "-test.count=1"},
		[]string{"BF4_SHARD_CHILD=1", "BF4_SHARD_CHILD_DIR=" + dir},
		w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.reached:
	case <-time.After(30 * time.Second):
		proc.Kill()
		t.Fatalf("child never acked %d batches (last acked %d)", w.target, w.acked())
	}
	if err := proc.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	acked := w.acked()
	if acked < 0 {
		t.Fatal("no acked batches before kill")
	}

	// Recover in-process from exactly what the dead child left on disk.
	sh, err := shim.New(rawSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := shim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AttachStore(st); err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer st.Close()

	entries := canonicalEntries(sh.Snapshot())["t"]
	n := len(entries)
	minEntries := 2 * (acked + 1) // every acked batch, atomically
	maxEntries := minEntries + 2  // plus at most one durable-but-unacked batch
	if n < minEntries {
		t.Fatalf("acked update lost: %d entries restored, child acked %d batches (want ≥ %d)",
			n, acked+1, minEntries)
	}
	if n > maxEntries {
		t.Fatalf("%d entries restored for %d acked batches — more than one unacked batch leaked (max %d)",
			n, acked+1, maxEntries)
	}
	if n%2 != 0 {
		t.Fatalf("%d entries restored — a batch was applied non-atomically", n)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e] {
			t.Fatalf("duplicate entry after recovery: %s", e)
		}
		seen[e] = true
	}
}

// TestClientBackoffJitterSpread is the lockstep-storm audit: a fleet of
// controllers deployed from one config template shares a Seed, and a
// naive implementation would have them all reconnect on identical
// schedules after a shard restart. Every client must draw its backoff
// jitter from a private, uniquely-seeded stream.
func TestClientBackoffJitterSpread(t *testing.T) {
	const n = 16
	const attempts = 6
	opts := Options{Seed: 42, BackoffBase: time.Millisecond, BackoffMax: 256 * time.Millisecond}

	sigs := map[string]int{}
	firstDelays := map[time.Duration]int{}
	for i := 0; i < n; i++ {
		c := newClient(opts)
		var sig strings.Builder
		for a := 1; a <= attempts; a++ {
			d := c.backoffDelay(a)
			// Bounds: exponential cap with jitter over [cap/2, cap].
			exp := opts.BackoffBase << (a - 1)
			if exp > opts.BackoffMax {
				exp = opts.BackoffMax
			}
			if d < exp/2 || d > exp {
				t.Fatalf("client %d attempt %d: delay %v outside [%v, %v]", i, a, d, exp/2, exp)
			}
			if a == 1 {
				firstDelays[d]++
			}
			fmt.Fprintf(&sig, "%d,", d)
		}
		sigs[sig.String()]++
	}
	if len(sigs) != n {
		t.Fatalf("only %d distinct backoff schedules across %d clients sharing a Seed — reconnect herd", len(sigs), n)
	}
	for d, count := range firstDelays {
		if count > n/2 {
			t.Fatalf("%d of %d clients chose the same first delay %v — lockstep storm", count, n, d)
		}
	}
}
