package shim

import (
	"fmt"

	"bf4/internal/dataplane"
)

// BatchError reports which update of an atomic batch was rejected. The
// whole batch is rolled back: no update in it reached the shadow state.
type BatchError struct {
	// Index is the position of the offending update within the batch.
	Index int
	// Size is the batch length.
	Size int
	// Err is the underlying rejection (usually a *RejectionError).
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("shim: batch update %d/%d rejected (batch rolled back): %v", e.Index+1, e.Size, e.Err)
}

// Unwrap exposes the underlying rejection to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch validates a bundle of updates transactionally: each update
// is checked against the shadow state including the batch's earlier
// updates, and if any is rejected the whole batch is rolled back —
// all-or-nothing, matching how controllers push rule bundles.
func (s *Shim) ApplyBatch(updates []*Update) error {
	return s.ApplyBatchWithKey("", updates)
}

// ApplyBatchWithKey is ApplyBatch with an idempotency key (see
// ApplyWithKey).
func (s *Shim) ApplyBatchWithKey(key string, updates []*Update) error {
	return s.apply(key, updates, true)
}

// apply is the one path a mutation takes, a single update being a batch
// of one: each update is validated against the state its predecessors
// left and committed, the whole is journaled, and a refusal or a journal
// failure rolls all of it back — nothing is applied that is not in the
// journal, which after a crash is the source of truth. batch only shapes
// the outcome: a refused update comes back inside a *BatchError, and the
// batch counters move.
func (s *Shim) apply(key string, updates []*Update, batch bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, seen := s.lookupApplied(key); seen {
		s.obs.dedupHits.Inc()
		return err
	}
	if batch {
		s.obs.batches.Inc()
	}
	// The updates committed so far are their own undo log; only a default
	// change needs what it replaced kept.
	var prior []priorDefault
	done := 0
	var err error
	for i, u := range updates {
		var tb *table
		if tb, err = s.validateLocked(u); err != nil {
			if batch {
				err = &BatchError{Index: i, Size: len(updates), Err: err}
			}
			break
		}
		if u.SetDefault != nil {
			d, had := s.defaults[u.Table]
			prior = append(prior, priorDefault{u.Table, d, had})
		}
		s.commitLocked(tb, u)
		done++
	}
	if err == nil {
		err = s.journalLocked(key, updates)
	}
	if err != nil {
		s.rollbackLocked(updates[:done], prior)
		if batch {
			s.obs.batchRejected.Inc()
		}
		s.recordOutcome(key, err)
		return err
	}
	// Record the outcome BEFORE any checkpoint: a checkpoint triggered by
	// this very record folds the journal into the snapshot, and the
	// snapshot must carry this key in its dedup window or a crash right
	// after would re-apply the retry. If the checkpoint fails, the updates
	// are applied all the same and the caller's retry resolves through the
	// window.
	s.recordOutcome(key, nil)
	return s.maybeCheckpointLocked()
}

// priorDefault is the runtime default a table had (or had not) before a
// default change replaced it.
type priorDefault struct {
	table string
	def   *dataplane.DefaultAction
	had   bool
}

// commitLocked records a validated update to tb in the shadow state
// (mirroring its insertion into the switch).
func (s *Shim) commitLocked(tb *table, u *Update) {
	if e := u.Entry; e != nil {
		s.shadow[tb.idx] = append(s.shadow[tb.idx], e)
		s.keepRows(tb, len(s.shadow[tb.idx])-1)
		s.obs.shadowEntries.Add(1)
	}
	if u.SetDefault != nil {
		s.defaults[u.Table] = u.SetDefault
	}
}

// rollbackLocked undoes commitLocked of committed, the last updates
// committed, whose default changes replaced prior (in order).
func (s *Shim) rollbackLocked(committed []*Update, prior []priorDefault) {
	for _, u := range committed {
		if u.Entry != nil {
			tb := s.cp.tables[u.Table]
			s.shadow[tb.idx] = s.shadow[tb.idx][:len(s.shadow[tb.idx])-1]
			s.keepRows(tb, len(s.shadow[tb.idx]))
			s.obs.shadowEntries.Add(-1)
		}
	}
	for i := len(prior) - 1; i >= 0; i-- {
		if p := prior[i]; p.had {
			s.defaults[p.table] = p.def
		} else {
			delete(s.defaults, p.table)
		}
	}
}
