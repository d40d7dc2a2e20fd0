// Recovery: rebuild a crashed Service from its checkpoint and delta
// journal. The recovered service's epoch, availability snapshots and
// subsequent decision stream are bit-identical to the uninterrupted
// run — proven by the recover tests here and the façade's kill/restart
// chaos test in the root package.
package placement

import (
	"errors"
	"fmt"
	"io"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Note is one client annotation surfaced by recovery: the client-owned
// half of a journaled delta (a task commit, a completion), which the
// service cannot re-apply itself. Clients replay notes in order to
// rebuild their own state next to the recovered service state.
type Note struct {
	// Seq is the epoch the annotated delta applied at.
	Seq uint64
	// Op is the delta kind the note rode on.
	Op Op
	// Kind and Node identify the slot for acquire/release notes.
	Kind string
	Node int
	// Note is the client's opaque annotation.
	Note string
}

// Recovery is the result of rebuilding a Service from durable state.
type Recovery struct {
	// Service is the recovered service, epoch-identical to the crashed
	// one at its last journaled delta. No journal is attached; call
	// StartJournal to resume journaling, either into a fresh journal
	// beside a fresh checkpoint or appending to the same file after
	// truncating it to JournalValidBytes (a begin marker appended after
	// a torn tail joins the torn line, and the next decode stops there).
	Service *Service
	// Epoch is the recovered delta epoch.
	Epoch uint64
	// CheckpointEpoch is the epoch the checkpoint captured (0 without
	// one).
	CheckpointEpoch uint64
	// Applied and Skipped count journal records re-applied and records
	// at or below the checkpoint epoch (already inside the checkpoint).
	Applied, Skipped int
	// CheckpointNote is the client state the checkpoint carried (see
	// WriteCheckpoint); Notes are the client annotations of the journal
	// records past the checkpoint epoch, in order. A client restores
	// CheckpointNote, then replays Notes.
	CheckpointNote string
	Notes          []Note
	// Tail is nil when the journal decoded cleanly; otherwise it wraps
	// ErrTruncatedTail or ErrCorruptRecord and the service state is
	// recovered up to the last valid record before the damage.
	Tail error
	// JournalValidBytes is the byte length of the journal's valid line
	// prefix. Before appending to the same journal file, truncate it to
	// this length so damaged bytes do not survive mid-stream.
	JournalValidBytes int64
}

// Recover rebuilds a Service from a checkpoint and/or a delta journal
// over fresh base deps. The deps must be in the same seed state the
// crashed service started from (same topology, same initial block
// placement, same slot capacities): the checkpoint restores the
// scheduler-visible state at its epoch, then the journal records past
// that epoch re-apply one by one. Either input may be nil: a nil
// checkpoint replays the journal from epoch 0; a nil journal restores
// the checkpoint alone.
//
// Journal damage never fails recovery — the state recovers to the last
// valid record and the typed verdict lands in Recovery.Tail. A damaged
// or contradictory checkpoint does fail (ErrBadCheckpoint): checkpoints
// restore as a whole or not at all. A journal whose first record lies
// beyond checkpointEpoch+1 fails too — deltas would be missing.
func Recover(d Deps, checkpoint, journal io.Reader) (*Recovery, error) {
	svc, err := NewService(d)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Service: svc}

	if checkpoint != nil {
		cp, err := DecodeCheckpoint(checkpoint)
		if err != nil {
			return nil, err
		}
		if err := svc.restoreCheckpoint(cp); err != nil {
			return nil, err
		}
		rec.CheckpointEpoch = cp.Epoch
		rec.CheckpointNote = cp.Note
	}
	rec.Epoch = svc.Epoch()

	if journal != nil {
		dec, err := DecodeJournal(journal)
		if err != nil {
			return nil, err
		}
		rec.Tail = dec.Err
		rec.JournalValidBytes = dec.ValidBytes
		for i := range dec.Records {
			r := &dec.Records[i]
			if r.Seq <= rec.CheckpointEpoch {
				rec.Skipped++
				continue
			}
			if r.Note != "" {
				rec.Notes = append(rec.Notes, Note{Seq: r.Seq, Op: r.Op, Kind: r.Kind, Node: r.Node, Note: r.Note})
			}
			if r.Seq != svc.Epoch()+1 {
				return nil, fmt.Errorf("%w: journal resumes at seq %d, state at epoch %d",
					ErrBadCheckpoint, r.Seq, svc.Epoch())
			}
			if err := svc.applyRecord(r); err != nil {
				return nil, fmt.Errorf("%w: seq %d (%s): %v", ErrCorruptRecord, r.Seq, r.Op, err)
			}
			rec.Applied++
		}
		rec.Epoch = svc.Epoch()
	}
	return rec, nil
}

// restoreCheckpoint installs a decoded checkpoint's state onto a
// freshly built service. All-or-nothing: any contradiction with the
// base deps returns ErrBadCheckpoint (the service must then be
// discarded — it may be partially restored).
func (s *Service) restoreCheckpoint(cp *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp.Nodes != s.slots.Size() {
		return fmt.Errorf("%w: checkpoint has %d nodes, cluster %d", ErrBadCheckpoint, cp.Nodes, s.slots.Size())
	}
	for i := 0; i < cp.Nodes; i++ {
		n := s.slots.Node(topology.NodeID(i))
		if cp.UsedMap[i] < 0 || cp.UsedReduce[i] < 0 {
			return fmt.Errorf("%w: negative slot usage on node %d", ErrBadCheckpoint, i)
		}
		for k, used := range [2]int{cp.UsedMap[i], cp.UsedReduce[i]} {
			for j := 0; j < used; j++ {
				if err := n.AcquireSlot(job.TaskKind(k)); err != nil {
					return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
				}
			}
		}
	}
	for _, i := range cp.Offline {
		if i < 0 || i >= cp.Nodes {
			return fmt.Errorf("%w: offline node %d out of range", ErrBadCheckpoint, i)
		}
		s.slots.Node(topology.NodeID(i)).SetOffline(true)
	}
	for _, i := range cp.Blacklist {
		if i < 0 || i >= cp.Nodes {
			return fmt.Errorf("%w: blacklisted node %d out of range", ErrBadCheckpoint, i)
		}
		s.slots.Node(topology.NodeID(i)).SetBlacklisted(true)
	}
	if len(cp.Links) > 0 {
		s.linkFactors = make([]float64, s.slots.Size())
		for i := range s.linkFactors {
			s.linkFactors[i] = 1
		}
		for _, l := range cp.Links {
			if l.Node < 0 || l.Node >= cp.Nodes {
				return fmt.Errorf("%w: link node %d out of range", ErrBadCheckpoint, l.Node)
			}
			if badLinkFactor(l.Factor) {
				return fmt.Errorf("%w: link node %d: factor %v", ErrBadCheckpoint, l.Node, l.Factor)
			}
			s.net.SetHostLinkFactor(topology.NodeID(l.Node), l.Factor)
			s.linkFactors[l.Node] = l.Factor
		}
	}
	// The base deps hold every block (clients create them before a
	// checkpoint can exist), so any other count is a contradiction.
	if len(cp.Replicas) != s.store.NumBlocks() {
		return fmt.Errorf("%w: checkpoint has %d blocks, store %d", ErrBadCheckpoint, len(cp.Replicas), s.store.NumBlocks())
	}
	nodes := make([]topology.NodeID, 0, 8)
	for b, row := range cp.Replicas {
		nodes = nodes[:0]
		for _, n := range row {
			nodes = append(nodes, topology.NodeID(n))
		}
		if err := s.store.SetReplicas(hdfs.BlockID(b), nodes); err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBadCheckpoint, b, err)
		}
	}
	s.epoch = cp.Epoch
	s.refreshLocked()
	return nil
}

// applyRecord re-applies one journal record through the public delta
// methods (no journal is attached during recovery, so nothing is
// re-recorded). Each record bumps the epoch by exactly one, keeping the
// epoch aligned with the record seqs. OpBegin never reaches here: the
// decoder consumes begin markers while chaining seqs.
//
//lint:journal-exhaustive Op except OpBegin
func (s *Service) applyRecord(r *Record) error {
	n := topology.NodeID(r.Node)
	switch r.Op {
	case OpAcquire:
		return s.ApplySlotAcquire(r.taskKind(), n)
	case OpRelease:
		return s.ApplySlotRelease(r.taskKind(), n)
	case OpReplicaAdd:
		added, err := s.ApplyReplicaAdd(hdfs.BlockID(r.Block), n)
		if err == nil && !added {
			// The record was only written for an actual addition, so a
			// no-op replay means the state diverged from the journal.
			err = errors.New("replica already present")
		}
		return err
	case OpReplicaLoss:
		removed, err := s.ApplyReplicaLoss(hdfs.BlockID(r.Block), n)
		if err == nil && !removed {
			err = errors.New("replica already absent")
		}
		return err
	case OpNodeReplicaLoss:
		_, err := s.ApplyNodeReplicaLoss(n)
		return err
	case OpOffline:
		return s.ApplyNodeOffline(n, r.On)
	case OpBlacklist:
		return s.ApplyNodeBlacklist(n, r.On)
	case OpLinkFactor:
		return s.ApplyLinkFactor(n, r.F)
	}
	return fmt.Errorf("unknown op %q", r.Op)
}
