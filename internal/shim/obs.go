package shim

import "bf4/internal/obs"

// shimObs holds retained metric handles. Every field stays nil until
// SetObs attaches a registry, and all obs types are nil-safe, so with
// observability off the hot path pays one nil-receiver method call per
// site — the existing counters and latency reservoirs are untouched
// either way (they feed Stats and the p4runtime status RPC).
type shimObs struct {
	validated        *obs.Counter
	rejected         *obs.Counter
	batches          *obs.Counter
	batchRejected    *obs.Counter
	journalAppends   *obs.Counter
	journalBytes     *obs.Counter
	checkpoints      *obs.Counter
	dedupHits        *obs.Counter
	journalTornTails *obs.Counter
	fastpathHits     *obs.Counter
	slowpathHits     *obs.Counter
	shadowEntries    *obs.Gauge
	snapshotBytes    *obs.Gauge
	updateNs         *obs.Histogram
	assertNs         *obs.Histogram
	checkpointNs     *obs.Histogram
}

// SetObs attaches a metrics registry; nil detaches. The shim publishes:
//
//	bf4_shim_updates_validated_total  updates that entered validation
//	bf4_shim_updates_rejected_total   updates refused (any reason)
//	bf4_shim_batches_total            atomic batches attempted
//	bf4_shim_batches_rejected_total   batches rolled back
//	bf4_shim_journal_appends_total    journal records appended (fsynced each unless Store.NoSync)
//	bf4_shim_journal_bytes_total      bytes those records took in the journal, framing included
//	bf4_shim_checkpoints_total        journal compactions
//	bf4_shim_dedup_hits_total         idempotent retries short-circuited
//	bf4_shim_journal_torn_tails_total torn journal tails truncated at recovery
//	bf4_shim_fastpath_total           assertion evaluations on the bytecode fast path
//	bf4_shim_slowpath_total           assertion evaluations on the term-DAG slow path
//	bf4_shim_shadow_entries           live shadow entries across tables
//	bf4_shim_snapshot_bytes           size of the snapshot the last checkpoint wrote
//	bf4_shim_update_ns                whole-update validation latency
//	bf4_shim_assertion_ns             single-assertion evaluation latency
//	bf4_shim_checkpoint_ns            time a checkpoint held the shim, inside the request that triggered it
func (s *Shim) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		s.obs = shimObs{}
		return
	}
	s.obs = shimObs{
		validated:        reg.Counter("bf4_shim_updates_validated_total"),
		rejected:         reg.Counter("bf4_shim_updates_rejected_total"),
		batches:          reg.Counter("bf4_shim_batches_total"),
		batchRejected:    reg.Counter("bf4_shim_batches_rejected_total"),
		journalAppends:   reg.Counter("bf4_shim_journal_appends_total"),
		journalBytes:     reg.Counter("bf4_shim_journal_bytes_total"),
		checkpoints:      reg.Counter("bf4_shim_checkpoints_total"),
		dedupHits:        reg.Counter("bf4_shim_dedup_hits_total"),
		journalTornTails: reg.Counter("bf4_shim_journal_torn_tails_total"),
		fastpathHits:     reg.Counter("bf4_shim_fastpath_total"),
		slowpathHits:     reg.Counter("bf4_shim_slowpath_total"),
		shadowEntries:    reg.Gauge("bf4_shim_shadow_entries"),
		snapshotBytes:    reg.Gauge("bf4_shim_snapshot_bytes"),
		updateNs:         reg.Histogram("bf4_shim_update_ns", obs.DurationBuckets),
		assertNs:         reg.Histogram("bf4_shim_assertion_ns", obs.DurationBuckets),
		checkpointNs:     reg.Histogram("bf4_shim_checkpoint_ns", obs.DurationBuckets),
	}
}
