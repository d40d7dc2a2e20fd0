package placement

import (
	"errors"
	"fmt"
)

// ErrDeltaConflict is the base of the defensive delta contract: every
// Apply* rejection — a delta that contradicts the service's current
// state — wraps it, so callers can match the whole family with a single
// errors.Is(err, ErrDeltaConflict) while still distinguishing the
// specific conflict. A rejected delta mutates nothing: the epoch and
// the availability snapshots are exactly as they were before the call. Compare with errors.Is, never ==: every
// member wraps this base, so identity comparison silently misses the
// wrapped forms.
//
//lint:sentinel
var ErrDeltaConflict = errors.New("placement: delta conflicts with current state")

// Specific delta-contract violations. Each wraps ErrDeltaConflict
// and is returned wrapped again with call-site context, so callers
// must match with errors.Is.
//
//lint:sentinel
var (
	// ErrUnknownNode rejects a delta naming a node outside the cluster.
	ErrUnknownNode = fmt.Errorf("%w: unknown node", ErrDeltaConflict)
	// ErrNoFreeSlot rejects a duplicate acquire: the node has no free
	// slot of the requested kind left.
	ErrNoFreeSlot = fmt.Errorf("%w: no free slot", ErrDeltaConflict)
	// ErrSlotNotHeld rejects a release without a matching acquire.
	ErrSlotNotHeld = fmt.Errorf("%w: slot not held", ErrDeltaConflict)
	// ErrNodeUnavailable rejects an acquire on an offline or blacklisted
	// node: such nodes offer no slots.
	ErrNodeUnavailable = fmt.Errorf("%w: node unavailable", ErrDeltaConflict)
	// ErrBadLinkFactor rejects a non-finite or negative link factor.
	ErrBadLinkFactor = fmt.Errorf("%w: bad link factor", ErrDeltaConflict)
)

// Journal and recovery errors. Returned wrapped with detail; match
// with errors.Is.
//
//lint:sentinel
var (
	// ErrCorruptRecord reports a damaged record with valid records after
	// it (CRC mismatch, malformed JSON, unknown op, version or task
	// kind, or a broken seq chain in the middle of the journal). Decoding stops at the last
	// valid record before the damage.
	ErrCorruptRecord = errors.New("placement: corrupt journal record")
	// ErrTruncatedTail reports a damaged or incomplete final record — the
	// expected shape after a crash mid-append. Everything before it
	// decoded cleanly and recovery proceeds from the last valid record.
	ErrTruncatedTail = errors.New("placement: truncated journal tail")
	// ErrBadCheckpoint reports an unusable checkpoint: damaged envelope,
	// or state that contradicts the base deps it is being restored onto.
	// Checkpoints are all-or-nothing; there is no partial restore.
	ErrBadCheckpoint = errors.New("placement: bad checkpoint")
	// ErrJournalBroken reports that a journal append failed; the journal
	// is marked broken and every subsequent delta is rejected, because a
	// service that cannot record its deltas can no longer promise
	// recoverability.
	ErrJournalBroken = errors.New("placement: journal broken")
)

// ErrDeciderInvalid reports a Decider whose cost model could not be
// built from the service's deps; its decision methods surface it
// through Outcome.Err instead of deciding.
//
//lint:sentinel
var ErrDeciderInvalid = errors.New("placement: decider invalid")
