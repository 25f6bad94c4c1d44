package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/p4runtime"
	"bf4/internal/shim"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

// switchID names the one shard the wire workloads drive.
const switchID = "s1"

// annotationFile returns the shim workloads' input: the annotation file
// of sizes.specProg as bf4 writes it and bf4-shim reads it. Deriving it
// means verifying the program with the full compile-time loop (about 8 s
// for switch@1), which is the verify workloads' subject, not the shim's,
// so the first shim run of a checkout stores the file under outDir and
// later runs read it back. The file name carries a hash of this
// executable: a rebuilt program derives its own.
func annotationFile(p params, m *meter) ([]byte, error) {
	key := "unhashed"
	if exe, err := os.Executable(); err == nil {
		if bin, err := os.ReadFile(exe); err == nil {
			key = fmt.Sprintf("%x", sha256.Sum256(bin))[:16]
		}
	}
	path := filepath.Join(p.outDir, "spec."+p.size.specProg+"."+key+".json")
	if data, err := os.ReadFile(path); err == nil {
		if _, err := spec.Parse(data); err == nil {
			m.note("annotation file of %s read from %s, where an earlier run of this build stored it", p.size.specProg, path)
			return data, nil
		}
	}
	pg, err := loadProgram(p.size.specProg)
	if err != nil {
		return nil, err
	}
	res, err := driver.Run(pg.name, pg.src, verifyConfig(p.workers))
	if err != nil {
		return nil, fmt.Errorf("verify %s: %w", pg.name, err)
	}
	want, err := expectedRows()
	if err != nil {
		return nil, err
	}
	m.attempted++
	if exp, ok := want[pg.name]; !ok || rowOf(res) != exp {
		m.fail("verification of %s for its annotation file: got %v, reference %v", pg.name, rowOf(res), exp)
	}
	pl := res.Fixed
	if pl == nil {
		pl = res.Initial
	}
	data, err := spec.Build(pg.name, pl.IR, res.InitialRep, res.FinalInfer, res.Fixes.Special).Marshal()
	if err != nil {
		return nil, err
	}
	// Stored whole or not at all; a failure to store only costs the next run
	// the derivation.
	if tmp, err := os.CreateTemp(p.outDir, "spec-*"); err == nil {
		_, werr := tmp.Write(data)
		if cerr := tmp.Close(); werr == nil && cerr == nil {
			werr = os.Rename(tmp.Name(), path)
		}
		if werr != nil {
			os.Remove(tmp.Name())
		}
	}
	m.note("annotation file of %s derived by verifying it, stored at %s", p.size.specProg, path)
	return data, nil
}

// applyLocal applies one request frame to an in-process shim.
func applyLocal(s *shim.Shim, frame []*shim.Update) error {
	if len(frame) == 1 {
		return s.Apply(frame[0])
	}
	return s.ApplyBatch(frame)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func shadowEntries(file *spec.File, size func(table string) int) int {
	n := 0
	for _, t := range file.Tables {
		n += size(t.Name)
	}
	return n
}

// sessionsPerSlice groups shim-validate's sessions into slices of about a
// tenth of a second.
const sessionsPerSlice = 64

// runShimValidate replays controller sessions through one in-process
// shim: fast path on, no store, no wire, a fresh shadow state per
// session. An operation is one session; the unit of work is one update.
// Set-up is what bf4-shim does before it can validate: read the
// annotation file and compile it. It is repeated before every slice, so
// that its repeats, a millisecond each, see as much of the machine's
// states as the slices do, and setup_s is the fastest of them, as op_ms is
// the quietest slice's (meter.quietest).
func runShimValidate(p params, m *meter, tr *tracer) error {
	data, err := annotationFile(p, m)
	if err != nil {
		return err
	}
	var setups []time.Duration
	setUp := func() (*spec.File, *shim.Compiled, error) {
		t0 := time.Now()
		file, err := spec.Parse(data)
		if err != nil {
			return nil, nil, err
		}
		cp, err := shim.Compile(file)
		setups = append(setups, time.Since(t0))
		return file, cp, err
	}
	file, cp, err := setUp()
	if err != nil {
		return err
	}

	epoch := trace.NewGenerator(p.seed, file).Updates(p.size.session)
	if len(epoch) == 0 {
		return fmt.Errorf("trace generator produced no updates for %s", p.size.specProg)
	}
	// The oracle is the term-DAG slow path, the reference semantics the
	// bytecode fast path must reproduce decision for decision.
	oracle := shim.NewFromCompiled(cp)
	oracle.SetFastpath(false)
	want := make([]bool, len(epoch))
	for j, u := range epoch {
		want[j] = oracle.Apply(u) == nil
	}

	setupDone(m)
	gs := startGoStats()
	var ops []time.Duration
	var last *shim.Shim
	var fast, slow, accepted int64
	start := time.Now()
	for p.more(len(ops), start) {
		if len(ops)%sessionsPerSlice == 0 {
			if _, _, err := setUp(); err != nil {
				return err
			}
		}
		var opTr *tracer
		if p.traced(len(ops)) {
			opTr = tr
		}
		sp := opTr.begin("shim.session", -1, len(ops))
		opStart := time.Now()
		s := shim.NewFromCompiled(cp)
		for j, u := range epoch {
			ok := s.Apply(u) == nil
			if ok != want[j] {
				m.fail("session %d update %d (table %s): accepted=%v, slow-path oracle says %v", len(ops), j, u.Table, ok, want[j])
			}
			if ok {
				accepted++
			}
		}
		ops = append(ops, time.Since(opStart))
		opTr.end(sp)
		c := s.Counters()
		fast, slow, last = fast+int64(c.FastpathHits), slow+int64(c.SlowpathHits), s
	}
	updates := int64(len(ops) * len(epoch))
	m.attempted += updates
	m.note("an operation is one session of %d updates, a slice %d sessions; attempted and failed count updates", len(epoch), sessionsPerSlice)
	m.note("set-up (parse and compile the annotation file) repeated before every slice: setup_s is the fastest of %d", len(setups))
	op, rate := m.quietest(cut(ops, sessionsPerSlice, int64(len(epoch))))
	if err := m.endToEnd(quantile(setups, 0), op, rate); err != nil {
		return err
	}
	if tr != nil {
		gs.report(m, len(ops))
		m.set("shim.validate_ns", float64(sum(ops))/float64(updates))
		m.set("shim.evals_per_update", float64(fast+slow)/float64(updates))
		m.set("shim.fast_share", float64(fast)/float64(max(fast+slow, 1)))
		m.set("shim.accepted", float64(accepted))
		m.set("shim.rejected", float64(updates-accepted))
		m.set("shim.shadow_entries_end", float64(shadowEntries(file, last.ShadowSize)))
		untraced, traced := p.split(ops)
		reportOverhead(m, untraced, traced)
	}
	return nil
}

// wireStack is the whole request path: one p4runtime client over
// loopback TCP to a p4runtime server routing to a one-shard fleet.
type wireStack struct {
	fleet  *shim.Fleet
	shard  *shim.Shard
	srv    *p4runtime.Server
	served chan error
	client *p4runtime.Client
	// checkpoints is the shim's own published counter (always 0 without a
	// registry, that is, in an untraced run).
	checkpoints *obs.Counter
}

func startWire(file *spec.File, cfg shim.FleetConfig) (*wireStack, error) {
	fleet := shim.NewFleet(cfg)
	shard, err := fleet.AddShard(switchID, file)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fleet.Close()
		return nil, err
	}
	w := &wireStack{fleet: fleet, shard: shard, served: make(chan error, 1),
		srv:         &p4runtime.Server{Fleet: fleet, DefaultSwitch: switchID, Obs: cfg.Obs},
		checkpoints: cfg.Obs.Counter("bf4_shim_checkpoints_total")}
	go func() { w.served <- w.srv.Serve(ln) }()
	// One attempt per call: a transport failure must surface as a failed
	// operation, not be retried away. The client's identity only feeds
	// idempotency keys, so its seed is fixed rather than the workload's.
	w.client, err = p4runtime.DialOptions(ln.Addr().String(), p4runtime.Options{Seed: 1, MaxAttempts: 1})
	if err != nil {
		w.stop()
		return nil, err
	}
	return w, nil
}

// stop closes the client, drains and stops the server, waits for its
// accept loop, and closes the fleet (which checkpoints the shard).
func (w *wireStack) stop() error {
	if w.client != nil {
		w.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	if cerr := w.fleet.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *wireStack) send(frame []*shim.Update) error {
	if len(frame) == 1 {
		return w.client.Insert(frame[0].Table, frame[0].Entry)
	}
	ops := make([]p4runtime.BatchOp, len(frame))
	for i, u := range frame {
		ops[i] = p4runtime.BatchOp{Table: u.Table, Entry: u.Entry}
	}
	return w.client.WriteBatch(ops)
}

// request sends frame n and times it from outside, under a harness span
// when traced, and says whether a checkpoint ran inside it.
func (w *wireStack) request(tr *tracer, n int, frame []*shim.Update) (lat time.Duration, err error, checkpointed bool) {
	before := w.checkpoints.Value()
	sp := tr.begin("p4runtime.request", -1, n)
	start := time.Now()
	err = w.send(frame)
	lat = time.Since(start)
	tr.end(sp)
	return lat, err, w.checkpoints.Value() != before
}

// genFrames draws n request frames of batch updates each from the
// seeded trace. Single-update frames are the raw trace, faulty updates
// included. An atomic batch rolls back on any rejected member, so
// batched frames are cut from the subsequence an in-process oracle shim
// accepts; raw batches would nearly all be refused.
func genFrames(file *spec.File, cp *shim.Compiled, seed int64, n, batch int) ([][]*shim.Update, error) {
	gen := trace.NewGenerator(seed, file)
	var stream []*shim.Update
	if batch == 1 {
		stream = gen.Updates(n)
	} else {
		oracle := shim.NewFromCompiled(cp)
		for len(stream) < n*batch {
			before := len(stream)
			for _, u := range gen.Updates(4096) {
				if oracle.Apply(u) == nil {
					stream = append(stream, u)
				}
			}
			if len(stream) == before {
				return nil, fmt.Errorf("trace for %s: the oracle accepts no update", file.Program)
			}
		}
	}
	if len(stream) < n*batch {
		return nil, fmt.Errorf("trace generator produced %d of %d updates for %s", len(stream), n*batch, file.Program)
	}
	frames := make([][]*shim.Update, n)
	for i := range frames {
		frames[i] = stream[i*batch : (i+1)*batch]
	}
	return frames, nil
}

// runShimWire drives the journaled request path in a closed loop with
// one client: encode, frame, TCP, decode, route, shard lock, validate,
// journal append (written, not fsynced: see gated below), ack. An
// operation is one request frame; the unit of work is one update.
//
// The run is a sequence of rounds. A round brings up a fresh stack
// (fleet with one shard on an empty state directory, server, client),
// sends it the seed's sizes.round frames, checks every answer and the
// resulting state against an in-process oracle, and takes the stack down
// again. Only the requests are timed. The first round is warm-up. Rounds
// keep the shadow state, which only ever grows, as small as a round makes
// it: validation slows as the state grows, and a state that has outgrown
// the core's own cache is timed at the mercy of whoever shares the host's
// (see README.md). On the last round's stack the run then checks that
// every acknowledged write survives a crash and a clean restart.
func runShimWire(p params, m *meter, tr *tracer) error {
	sz := p.size
	data, err := annotationFile(p, m)
	if err != nil {
		return err
	}
	stateDir, err := os.MkdirTemp(p.outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	// Every record is journaled but none fsynced. This sandbox's virtual
	// disk changes its fsync rate by half from one few-second window to
	// the next, and with fsync per record every gated metric followed the
	// disk, not the program (ten-seed spreads of 15-30 %). What fsync adds
	// is measured by the traced run's ablation (journal.fsync_ns).
	gated := shim.FleetConfig{NoSync: true, CompactEvery: sz.compact, Obs: reg}

	// Set-up is what bf4-shim does before it serves its first request: read
	// the annotation file, compile it, open the shard's state directory,
	// listen; and the controller's connect. Every round begins with one, on
	// a directory of its own, and setup_s is the fastest of them, as op_ms
	// is the quietest round's (meter.quietest).
	var setups []time.Duration
	setUp := func(round int) (*spec.File, *shim.Compiled, *wireStack, error) {
		t0 := time.Now()
		file, err := spec.Parse(data)
		if err != nil {
			return nil, nil, nil, err
		}
		gated.Cache = shim.NewAnnotationCache(nil)
		cp, _, err := gated.Cache.Get(file) // shim.Compile
		if err != nil {
			return nil, nil, nil, err
		}
		gated.StateRoot = filepath.Join(stateDir, "round", strconv.Itoa(round))
		w, err := startWire(file, gated)
		setups = append(setups, time.Since(t0))
		return file, cp, w, err
	}
	var w *wireStack // the current round's stack; the last round's is left up
	defer func() {
		if w != nil {
			w.stop()
		}
	}()
	file, cp, w, err := setUp(0)
	if err != nil {
		return err
	}

	// The round's frames, and what an in-process shim answers to them.
	frames, err := genFrames(file, cp, p.seed, sz.round, sz.batch)
	if err != nil {
		return err
	}
	oracle := shim.NewFromCompiled(cp)
	want := make([]string, len(frames))
	accepted := 0
	for i, frame := range frames {
		if want[i] = errText(applyLocal(oracle, frame)); want[i] == "" {
			accepted++
		}
	}
	oracleSnap, err := oracle.MarshalSnapshot()
	if err != nil {
		return err
	}
	setupDone(m)

	// One P for the closed loop. On two vCPUs the client and server
	// goroutines otherwise flip, several times a second, between handing
	// off while both threads spin (about 28 us a request) and waking a
	// halted vCPU for every message (about 95 us), and every latency
	// metric comes out bimodal from run to run. On one P they hand off
	// through the run queue, and the request path's own cost is what is
	// left. One closed-loop client has no parallelism to lose.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var slices []slice // the timed rounds
	var ckptAt []int   // the requests a checkpoint ran inside (traced run), numbered through the timed rounds
	var gs *goStats
	var base map[string]int64
	var start time.Time
	lat, errs := make([]time.Duration, len(frames)), make([]error, len(frames))
	for round := 0; ; round++ {
		if round > 0 {
			if _, _, w, err = setUp(round); err != nil {
				return err
			}
		}
		if round == 1 {
			base = counterValues(reg)
			gs = startGoStats()
			start = time.Now()
		}
		roundStart := time.Now()
		for n, frame := range frames {
			var checkpointed bool
			lat[n], errs[n], checkpointed = w.request(tr, round*len(frames)+n, frame)
			if checkpointed && round > 0 {
				ckptAt = append(ckptAt, len(slices)*len(frames)+n)
			}
		}
		if round > 0 {
			took := time.Since(roundStart)
			slices = append(slices, slice{ops: append([]time.Duration(nil), lat...), took: took, work: int64(len(frames) * sz.batch)})
		}
		for n := range frames {
			m.attempted++
			if errText(errs[n]) != want[n] {
				m.fail("round %d frame %d: wire answered %q, in-process oracle %q", round, n, errText(errs[n]), want[n])
			}
		}
		live, err := w.shard.MarshalSnapshot()
		if err != nil {
			return err
		}
		m.attempted++
		if !bytes.Equal(live, oracleSnap) {
			m.fail("round %d: shard state after %d frames differs from the oracle's", round, len(frames))
		}
		if round > 0 && !p.more(round, start) {
			break
		}
		err = w.stop()
		w = nil
		if err != nil {
			return fmt.Errorf("stopping the wire stack: %w", err)
		}
		if err := os.RemoveAll(gated.StateRoot); err != nil {
			return err
		}
	}
	rounds := len(slices)
	updates := int64(rounds * len(frames) * sz.batch)
	m.note("%d rounds of %d request frames of %d update(s), each on a fresh stack, after one warm-up round; only the requests are timed, and a slice is one round; attempted and failed count frames and state checks", rounds, len(frames), sz.batch)
	m.note("set-up (parse and compile the annotation file, start fleet, server and client) begins every round: setup_s is the fastest of %d", len(setups))
	op, rate := m.quietest(slices)
	if err := m.endToEnd(quantile(setups, 0), op, rate); err != nil {
		return err
	}
	var deltas map[string]int64
	if tr != nil {
		gs.report(m, rounds*len(frames))
		deltas = counterValues(reg)
		for name, v := range base {
			deltas[name] -= v
		}
	}

	// Crash recovery: every acknowledged write must come back.
	var recoveries []time.Duration
	replayed := w.shard.JournalLag()
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		w.fleet.Kill(switchID)
		rerr := w.fleet.RestoreNow(switchID)
		recoveries = append(recoveries, time.Since(t0))
		after, merr := w.shard.MarshalSnapshot()
		m.attempted++
		if rerr != nil || merr != nil || !bytes.Equal(oracleSnap, after) {
			m.fail("recovery %d: restore error %v, snapshot error %v, state equal %v", i, rerr, merr, bytes.Equal(oracleSnap, after))
		}
	}
	m.note("recovery (Kill + RestoreNow, %d journal records replayed): median of %d = %.3f ms", replayed, len(recoveries), ms(quantile(recoveries, 0.5)))

	// Clean restart: stop everything (the fleet's Close checkpoints),
	// then bring a second fleet up on the same state directory.
	clientID := w.client.ID()
	err = w.stop()
	w = nil
	if err != nil {
		return fmt.Errorf("stopping the wire stack: %w", err)
	}
	snapshotBytes, err := dirBytes(gated.StateRoot)
	if err != nil {
		return err
	}
	t0 := time.Now()
	reopened := shim.NewFleet(shim.FleetConfig{StateRoot: gated.StateRoot, Cache: gated.Cache})
	sd, err := reopened.AddShard(switchID, file)
	snapshotLoad := time.Since(t0)
	m.attempted++
	if err != nil {
		m.fail("restart on the state directory: %v", err)
	} else if after, merr := sd.MarshalSnapshot(); merr != nil || !bytes.Equal(oracleSnap, after) {
		m.fail("restart on the state directory: snapshot error %v, state equal %v", merr, bytes.Equal(oracleSnap, after))
	}
	if err := reopened.Close(); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}

	var ops, acceptLat, rejectLat []time.Duration // ops: every timed request, round after round
	for _, sl := range slices {
		ops = append(ops, sl.ops...)
	}
	for i, d := range ops {
		if want[i%len(frames)] == "" {
			acceptLat = append(acceptLat, d)
		} else {
			rejectLat = append(rejectLat, d)
		}
	}
	m.set("shim.accepted", float64(rounds*accepted*sz.batch))
	m.set("shim.rejected", float64(rounds*(len(frames)-accepted)*sz.batch))
	evals := deltas["bf4_shim_fastpath_total"] + deltas["bf4_shim_slowpath_total"]
	m.set("shim.evals_per_update", float64(evals)/float64(updates))
	m.set("shim.fast_share", float64(deltas["bf4_shim_fastpath_total"])/float64(max(evals, 1)))
	m.set("shim.shadow_entries_end", float64(shadowEntries(file, oracle.ShadowSize)))
	m.set("journal.records", float64(deltas["bf4_shim_journal_appends_total"]))
	m.set("request.accept_p50_us", us(quantile(acceptLat, 0.5)))
	m.set("request.reject_p50_us", us(quantile(rejectLat, 0.5)))
	m.set("request.p90_us", us(quantile(ops, 0.90)))
	m.set("request.p99_us", us(quantile(ops, 0.99)))
	m.set("request.max_ms", ms(quantile(ops, 1)))
	m.set("recovery.total_ms", ms(quantile(recoveries, 0.5)))
	m.set("recovery.replayed_records", float64(replayed))
	m.set("recovery.snapshot_load_ms", ms(snapshotLoad))
	m.set("checkpoint.snapshot_bytes", float64(snapshotBytes))

	// A checkpoint runs inside the request that triggers it, so from
	// outside its cost is that request's time beyond the median request.
	// The wire level of the ablation is the quietest round, as op_ms and
	// work_per_s are: the one whose requests, net of its checkpoint stalls,
	// took least.
	p50 := quantile(ops, 0.5)
	var stalls []time.Duration
	net := make([]time.Duration, rounds)
	for r, sl := range slices {
		net[r] = sum(sl.ops)
	}
	for _, i := range ckptAt {
		stall := max(ops[i]-p50, 0)
		stalls = append(stalls, stall)
		net[i/len(frames)] -= stall
	}
	m.set("checkpoint.count", float64(len(stalls)))
	m.set("checkpoint.total_ms", ms(sum(stalls)))
	m.set("checkpoint.max_ms", ms(quantile(stalls, 1)))

	wire := float64(quantile(net, 0)) / float64(len(frames)*sz.batch)
	if err := wireAblation(m, tr, frames, wire, file, cp, gated, stateDir, clientID); err != nil {
		return err
	}
	return wireOverhead(m, frames, file, gated, stateDir)
}

// ablationRounds is how many rounds each shorter stack of a traced run's
// ablation replays (the fastest counts, as on the gated run), and how many
// pairs of rounds wireOverhead runs.
const ablationRounds = 15

// wireAblation attributes the request path's time to its layers from
// outside: it replays the round's frames through successively longer
// prefixes of the stack, each from an empty state as a round has it, and
// takes differences. wire is what the gated run's requests took per
// update, net of checkpoint stalls. No level checkpoints (CompactEvery is
// out of reach), so the layers on the gated run's path sum to wire, and
// checkpoint.* reports what was taken out. Everything is per update.
// gated is the gated run's fleet configuration.
func wireAblation(m *meter, tr *tracer, frames [][]*shim.Update, wire float64,
	file *spec.File, cp *shim.Compiled, gated shim.FleetConfig, stateDir, clientID string) error {
	updates := float64(len(frames) * len(frames[0]))
	// level replays the round ablationRounds times, each on what fresh
	// returns, and reports the fastest round's time per update.
	level := func(name string, fresh func(rep int) (apply func(n int, frame []*shim.Update) error, done func() error, err error)) (float64, error) {
		var took []time.Duration
		for rep := 0; rep < ablationRounds; rep++ {
			apply, done, err := fresh(rep)
			if err != nil {
				return 0, err
			}
			sp := tr.begin("ablation."+name, -1, rep)
			start := time.Now()
			for n, frame := range frames {
				if err := apply(n, frame); err != nil {
					return 0, err
				}
			}
			took = append(took, time.Since(start))
			tr.end(sp)
			if err := done(); err != nil {
				return 0, err
			}
		}
		return float64(quantile(took, 0)) / updates, nil
	}
	noop := func() error { return nil }

	var frameBytes int
	codec, err := level("codec", func(int) (func(int, []*shim.Update) error, func() error, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		frameBytes = 0
		return func(i int, frame []*shim.Update) error {
			req := p4runtime.Request{ID: int64(i + 1), Client: clientID, Type: "insert", Table: frame[0].Table, Entry: p4runtime.EncodeEntry(frame[0].Entry)}
			if len(frame) > 1 {
				req = p4runtime.Request{ID: int64(i + 1), Client: clientID, Type: "batch"}
				for _, u := range frame {
					req.Update = append(req.Update, p4runtime.UpdateMsg{Op: "insert", Table: u.Table, Entry: p4runtime.EncodeEntry(u.Entry)})
				}
			}
			buf.Reset()
			if err := enc.Encode(&req); err != nil {
				return err
			}
			frameBytes += buf.Len()
			var got p4runtime.Request
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				return err
			}
			for _, um := range append(got.Update, p4runtime.UpdateMsg{Entry: got.Entry}) {
				if um.Entry == nil {
					continue
				}
				if _, err := p4runtime.DecodeEntry(um.Entry); err != nil {
					return err
				}
			}
			buf.Reset()
			if err := enc.Encode(&p4runtime.Response{ID: req.ID, OK: true}); err != nil {
				return err
			}
			var resp p4runtime.Response
			return json.Unmarshal(buf.Bytes(), &resp)
		}, noop, nil
	})
	if err != nil {
		return err
	}

	validate, err := level("shim", func(int) (func(int, []*shim.Update) error, func() error, error) {
		bare := shim.NewFromCompiled(cp)
		return func(_ int, frame []*shim.Update) error {
			applyLocal(bare, frame) // a rejection is an outcome, checked on the gated run
			return nil
		}, noop, nil
	})
	if err != nil {
		return err
	}

	// The same replay through a fleet shard: lock, dedup window, validate,
	// commit; then with a journal (no fsync); then with fsync per record.
	var journalBytes int64
	var journaled float64 // updates the journal holds
	viaShard := func(name string, cfg shim.FleetConfig) (float64, error) {
		cfg.Cache, cfg.CompactEvery = gated.Cache, 1<<30
		root := cfg.StateRoot
		return level(name, func(rep int) (func(int, []*shim.Update) error, func() error, error) {
			if root != "" {
				cfg.StateRoot = filepath.Join(root, strconv.Itoa(rep))
			}
			fleet := shim.NewFleet(cfg)
			sd, err := fleet.AddShard(switchID, file)
			if err != nil {
				return nil, nil, err
			}
			journaled = 0
			apply := func(n int, frame []*shim.Update) error {
				key := clientID + ":" + strconv.Itoa(n+1)
				var err error
				if len(frame) == 1 {
					err = sd.ApplyWithKey(key, frame[0])
				} else {
					err = sd.ApplyBatchWithKey(key, frame)
				}
				if err == nil {
					journaled += float64(len(frame))
				}
				return nil
			}
			done := func() (err error) {
				if cfg.StateRoot != "" && cfg.NoSync {
					journalBytes, err = dirBytes(cfg.StateRoot)
				}
				// No Close: it would checkpoint. Kill fences the store and closes
				// the journal handle; the state directory is removed with stateDir.
				fleet.Kill(switchID)
				return err
			}
			return apply, done, nil
		})
	}
	shard, err := viaShard("shard", shim.FleetConfig{})
	if err != nil {
		return err
	}
	nosync, err := viaShard("journal_nosync", shim.FleetConfig{StateRoot: filepath.Join(stateDir, "nosync"), NoSync: true})
	if err != nil {
		return err
	}
	synced, err := viaShard("journal_sync", shim.FleetConfig{StateRoot: filepath.Join(stateDir, "sync")})
	if err != nil {
		return err
	}

	m.set("p4runtime.codec_ns", codec)
	m.set("p4runtime.frame_bytes", float64(frameBytes)/float64(len(frames)))
	m.set("shim.validate_ns", validate)
	m.set("shard.apply_ns", shard-validate)
	m.set("journal.encode_write_ns", nosync-shard)
	m.set("journal.fsync_ns", synced-nosync)
	m.set("journal.bytes_per_update", float64(journalBytes)/max(journaled, 1))
	// The remainder: what the client's round trip costs beyond the same
	// frames applied in-process at the gated run's own durability.
	m.set("p4runtime.transport_ns", wire-nosync-codec)
	m.note("stack ablation: the round's %d frames (%d updates) through each shorter stack, fastest of %d rounds; wire %.0f ns/update in the gated run's quietest round, net of checkpoint stalls", len(frames), int(updates), ablationRounds, wire)
	return nil
}

// wireOverhead sets trace.overhead_share for the wire path, where
// tracing is a registry in fleet and server and a harness span and a
// counter read around every request. It sends the round's frames to
// pairs of fresh stacks, one as a traced run has it and one as an
// untraced run has it, neither checkpointing, alternating which goes
// first. The share is how much longer the fastest traced round took than
// the fastest untraced one.
func wireOverhead(m *meter, frames [][]*shim.Update, file *spec.File, gated shim.FleetConfig, stateDir string) error {
	const untraced, traced = 0, 1
	var took [2][]time.Duration
	for pair := 0; pair < ablationRounds; pair++ {
		for _, kind := range []int{pair % 2, 1 - pair%2} {
			cfg := gated
			cfg.Obs, cfg.CompactEvery, cfg.StateRoot = nil, 1<<30, filepath.Join(stateDir, "overhead", strconv.Itoa(pair), strconv.Itoa(kind))
			var tr *tracer
			if kind == traced {
				cfg.Obs, tr = obs.NewRegistry(), newTracer() // spans recorded for their cost only
			}
			w, err := startWire(file, cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			for n, frame := range frames {
				w.request(tr, n, frame) // the outcomes were checked on the gated run
			}
			took[kind] = append(took[kind], time.Since(start))
			if err := w.stop(); err != nil {
				return fmt.Errorf("stopping the wire stack: %w", err)
			}
		}
	}
	u, t := quantile(took[untraced], 0), quantile(took[traced], 0)
	m.set("trace.overhead_share", float64(t-u)/float64(u))
	m.note("tracing overhead: fastest of %d rounds through a traced stack %.3f ms, through an untraced one %.3f ms", ablationRounds, ms(t), ms(u))
	return nil
}

// counterValues snapshots the registry counters the wire workloads read
// (all zero for a nil registry).
func counterValues(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{"bf4_shim_fastpath_total", "bf4_shim_slowpath_total", "bf4_shim_journal_appends_total"} {
		out[name] = reg.CounterValue(name)
	}
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
