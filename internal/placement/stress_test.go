package placement

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// TestConcurrentReadersUnderDeltas is the writer/reader contract under
// the race detector: one writer applies the full delta vocabulary in a
// tight loop while N readers, each with their own Decider, keep
// deciding. Every decision must observe an untorn snapshot (slot
// versions and delta epoch stable across the decision) and the epochs a
// reader observes must never move backwards.
func TestConcurrentReadersUnderDeltas(t *testing.T) {
	f := newFixture(t)

	// A pool of jobs with pending maps on every node so each decision
	// does real cost work against the store the writer is mutating.
	var jobs []*job.Job
	for id := job.ID(1); id <= 4; id++ {
		jobs = append(jobs, f.addJob(t, id, allNodes(8), 2))
	}
	addChurnBlocks(t, f)

	const (
		readers    = 4
		iterations = 2000
		// lossEvery splits the run into stretches, one per node 1–7; a
		// multiple of 4, so each stretch starts on the loss case.
		lossEvery = 288
	)
	var (
		stop      atomic.Bool
		decisions atomic.Int64
		wg        sync.WaitGroup
	)

	// Fork the reader RNGs before the goroutines start: forking shares
	// the parent stream and is not itself part of the concurrency
	// contract.
	rngs := make([]*sim.RNG, readers)
	for i := range rngs {
		rngs[i] = f.rng.Fork("reader")
	}

	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < iterations; i++ {
			n := topology.NodeID(i % 8)
			if err := f.svc.ApplySlotAcquire(job.MapKind, n); err == nil {
				f.svc.ApplySlotRelease(job.MapKind, n)
			}
			if err := f.svc.ApplySlotAcquire(job.ReduceKind, n); err == nil {
				f.svc.ApplySlotRelease(job.ReduceKind, n)
			}
			switch i % 4 {
			case 0:
				// The stretch's node loses its disks: the first loss
				// rewrites replica sets, the repeats remove nothing.
				removed, err := f.svc.ApplyNodeReplicaLoss(topology.NodeID(1 + i/lossEvery))
				if err != nil || (removed > 0) != (i%lossEvery == 0) {
					t.Errorf("replica loss %d: removed=%d, err=%v", i, removed, err)
				}
			case 2:
				f.svc.ApplyNodeOffline(n, true)
				f.svc.ApplyNodeOffline(n, false)
			case 3:
				f.svc.ApplyNodeBlacklist(n, i%8 == 3)
				f.svc.ApplyNodeBlacklist(n, false)
				if err := f.svc.ApplyLinkFactor(n, 0.5+float64(i%2)); err != nil {
					panic(err)
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := NewDecider(f.svc, DefaultConfig(), rngs[r], nil)
			req := &Request{Slowstart: 0.05}
			var lastEpoch uint64
			for i := 0; !stop.Load() || i < 100; i++ {
				v := f.svc.Snapshot()
				if v.Epoch < lastEpoch {
					t.Errorf("reader %d: snapshot epoch went backwards (%d < %d)", r, v.Epoch, lastEpoch)
					return
				}
				req.Now = sim.Time(i)
				req.Jobs = jobs
				req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
				node := topology.NodeID(i % 8)
				var out Outcome
				if i%3 == 2 {
					_, out = d.PlaceReduce(req, node)
				} else {
					_, out = d.PlaceMap(req, node)
				}
				if out.Torn {
					t.Errorf("reader %d: decision %d observed a torn snapshot", r, i)
					return
				}
				if out.Epoch < v.Epoch {
					t.Errorf("reader %d: decision epoch %d behind snapshot epoch %d", r, out.Epoch, v.Epoch)
					return
				}
				lastEpoch = out.Epoch
				decisions.Add(1)
			}
		}(r)
	}

	wg.Wait()
	if n := decisions.Load(); n < readers*100 {
		t.Fatalf("readers made only %d decisions", n)
	}
	if f.svc.Epoch() == 0 {
		t.Fatal("writer applied no deltas")
	}
}

// TestAuditorUnderDeltaChurn is the auditor-vs-writer-vs-reader stress
// contract under the race detector: the background auditor rebuilds the
// state from scratch while a journaling writer churns the full delta
// vocabulary and readers keep deciding. Every audit must come back
// clean (the writer only uses the public delta methods, so there is no
// drift to find) and every decision untorn.
func TestAuditorUnderDeltaChurn(t *testing.T) {
	f := newFixture(t)
	jobs := []*job.Job{f.addJob(t, 1, allNodes(8), 2)}
	addChurnBlocks(t, f)
	var journal syncBuffer
	if err := f.svc.StartJournal(&journal); err != nil {
		t.Fatal(err)
	}

	var audits atomic.Int64
	stopAuditor := f.svc.StartAuditor(AuditorConfig{
		Interval: time.Microsecond, // audit as hot as the scheduler allows
		OnReport: func(r AuditReport) {
			audits.Add(1)
			if !r.Clean() {
				t.Errorf("auditor found drift in a delta-only run: %s", r)
			}
		},
	})
	defer stopAuditor()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the journaling writer
		defer wg.Done()
		defer stop.Store(true)
		const lossEvery = 216 // one stretch of the 1,500 iterations per node 1–7
		for i := 0; i < 1500; i++ {
			n := topology.NodeID(i % 8)
			if err := f.svc.ApplySlotAcquire(job.MapKind, n); err == nil {
				f.svc.ApplySlotRelease(job.MapKind, n)
			}
			switch i % 3 {
			case 1:
				f.svc.ApplyNodeReplicaLoss(topology.NodeID(1 + i/lossEvery))
			case 2:
				f.svc.ApplyLinkFactor(n, 0.5+float64(i%2))
			}
		}
	}()
	// Fork before spawning: forking shares the parent stream and is not
	// part of the concurrency contract.
	readerRNGs := []*sim.RNG{f.rng.Fork("audit-reader"), f.rng.Fork("audit-reader")}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := NewDecider(f.svc, DefaultConfig(), readerRNGs[r], nil)
			req := &Request{Slowstart: 0.05}
			for i := 0; !stop.Load() || i < 50; i++ {
				v := f.svc.Snapshot()
				req.Now = sim.Time(i)
				req.Jobs = jobs
				req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
				if _, out := d.PlaceMap(req, topology.NodeID(i%8)); out.Torn {
					t.Errorf("reader %d: torn snapshot under auditor churn", r)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	stopAuditor()
	if audits.Load() == 0 {
		t.Fatal("auditor never ran")
	}
	// The synchronous hook agrees once the churn is over, and the journal
	// the writer kept is a faithful recovery input.
	if a := f.svc.Audit(); !a.Clean() {
		t.Fatalf("final audit: %s", a)
	}
	f2 := newFixture(t) // same seed state: same job blocks, same churn blocks
	f2.addJob(t, 1, allNodes(8), 2)
	addChurnBlocks(t, f2)
	rec, err := Recover(Deps{Net: f2.net, Store: f2.store, Slots: f2.slots, Mode: core.ModeHops},
		nil, bytes.NewReader(journal.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tail != nil || rec.Epoch != f.svc.Epoch() {
		t.Fatalf("journal written under churn recovered to epoch %d (tail %v), writer at %d", rec.Epoch, rec.Tail, f.svc.Epoch())
	}
	if a := rec.Service.Audit(); !a.Clean() {
		t.Fatalf("post-recovery drift: %s", a)
	}
}

// addChurnBlocks places the blocks a stress writer's node losses
// rewrite: block k is replicated on nodes k and k+1 (1–7, wrapping), so
// each loss leaves survivors for a later one to take.
func addChurnBlocks(t testing.TB, f *fixture) {
	t.Helper()
	for k := topology.NodeID(1); k <= 7; k++ {
		if _, err := f.store.AddBlock(64e6, 2, placeAt{nodes: []topology.NodeID{k, 1 + k%7}}); err != nil {
			t.Fatal(err)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the service serializes
// journal writes under its own lock, but the test also reads the buffer
// afterwards and the race detector wants the handoff explicit.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestEvaluateUnderDeltas drives the gate-free evaluation path (the
// replay client) concurrently with a delta writer; it shares the same
// read-lock guarantee as the deciding path.
func TestEvaluateUnderDeltas(t *testing.T) {
	f := newFixture(t)
	jobs := []*job.Job{f.addJob(t, 1, allNodes(8), 1)}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 1000; i++ {
			n := topology.NodeID(i % 8)
			if err := f.svc.ApplySlotAcquire(job.MapKind, n); err == nil {
				f.svc.ApplySlotRelease(job.MapKind, n)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Deterministic = true
			d := NewDecider(f.svc, cfg, nil, nil) // evaluation needs no RNG
			req := &Request{}
			for i := 0; !stop.Load() || i < 50; i++ {
				v := f.svc.Snapshot()
				req.Now = sim.Time(i)
				req.Jobs = jobs
				req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
				e := d.EvaluateMap(req, topology.NodeID(i%8))
				if !e.HasBest && !e.InstantLocal {
					t.Errorf("evaluation lost all candidates mid-churn")
					return
				}
			}
		}()
	}
	wg.Wait()
}
