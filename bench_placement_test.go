package mapsched

// Benchmarks of the standalone placement decision service: per-decision
// latency (p50/p99) and throughput at concurrent reader load, with a
// delta-applying writer churning slot state in the background — the
// service's intended operating regime. scripts/bench.sh records the
// numbers in BENCH_placement.json and scripts/placement_guard.sh holds
// the 4-reader median latency budget.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// placementBenchFixture builds an idle decision service over a cluster
// of the given size with four jobs of pending maps.
func placementBenchFixture(b *testing.B, nodes int) (*placement.Service, []*job.Job, *sim.RNG) {
	b.Helper()
	spec := topology.DefaultSpec()
	spec.NodesPerRack = 20
	spec.Racks = nodes / 20
	cl, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	store := hdfs.NewStore(cl, rng.Fork("hdfs"))
	slots, err := cluster.New(nodes, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := placement.NewService(placement.Deps{
		Net: cl, Store: store, Rate: cl, Slots: slots, Mode: core.ModeHops,
	})
	if err != nil {
		b.Fatal(err)
	}
	rngJobs := rng.Fork("jobs")
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		j, err := job.New(job.ID(i), job.Spec{
			Name:        fmt.Sprintf("placebench-%d", i),
			Profile:     workload.ProfileFor(workload.Wordcount),
			InputBytes:  100 * 128e6,
			BlockSize:   128e6,
			NumReduces:  30,
			Replication: 3,
		}, store, rngJobs)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	return svc, jobs, rng
}

// BenchmarkPlacement_Decide measures one map placement decision against
// a 5000-node service — snapshot, Algorithm 1 scan, gate — from 1, 4
// and 8 concurrent reader sessions while a writer churns slot deltas.
// Reported per sub-benchmark: ns/op (wall clock per decision per
// reader), p50_ns / p99_ns across all decisions, and the aggregate
// decisions_per_sec.
func BenchmarkPlacement_Decide(b *testing.B) {
	const nodes = 5000
	svc, jobs, rng := placementBenchFixture(b, nodes)
	for _, readers := range []int{1, 4, 8} {
		rngs := make([]*sim.RNG, readers)
		for i := range rngs {
			rngs[i] = rng.Fork("reader")
		}
		b.Run(fmt.Sprintf("readers%d", readers), func(b *testing.B) {
			var (
				stop     atomic.Bool
				writerWg sync.WaitGroup
				wg       sync.WaitGroup
				mu       sync.Mutex
				allLats  []time.Duration
			)
			// The writer: slot churn at task-lifecycle rate (one delta
			// pair every 200µs ≈ 10k deltas/s cluster-wide), not a spin
			// loop — each delta invalidates the readers' per-class
			// cost sums, so the churn rate sets how often a decision
			// pays the cold O(classes) rebuild captured in p99.
			stop.Store(false)
			writerWg.Add(1)
			go func() {
				defer writerWg.Done()
				for i := 0; !stop.Load(); i++ {
					n := topology.NodeID(i % nodes)
					if err := svc.ApplySlotAcquire(placement.MapSlot, n); err == nil {
						svc.ApplySlotRelease(placement.MapSlot, n)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
			perReader := b.N/readers + 1
			start := time.Now()
			b.ResetTimer()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					d := placement.NewDecider(svc, placement.DefaultConfig(), rngs[r], nil)
					req := &placement.Request{Slowstart: 0.05}
					lats := make([]time.Duration, 0, perReader)
					for i := 0; i < perReader; i++ {
						t0 := time.Now()
						v := svc.Snapshot()
						req.Now = sim.Time(i)
						req.Jobs = jobs
						req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
						if _, out := d.PlaceMap(req, topology.NodeID(i%nodes)); out.Torn {
							b.Error("torn decision snapshot")
							return
						}
						lats = append(lats, time.Since(t0))
					}
					mu.Lock()
					allLats = append(allLats, lats...)
					mu.Unlock()
				}(r)
			}
			// Wait for the readers first, then release the writer.
			wg.Wait()
			elapsed := time.Since(start)
			stop.Store(true)
			writerWg.Wait()
			b.StopTimer()

			sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
			total := len(allLats)
			b.ReportMetric(float64(allLats[total/2]), "p50_ns")
			b.ReportMetric(float64(allLats[total*99/100]), "p99_ns")
			b.ReportMetric(float64(total)/elapsed.Seconds(), "decisions_per_sec")
		})
	}
}

// BenchmarkPlacement_Journal measures the write-ahead journal's cost on
// the delta hot path: one slot acquire+release pair (two deltas) against
// the same 5000-node service, with the journal detached (off) and
// attached (on). The on/off ns/op difference is the journal-on overhead
// BENCH metric; scripts/journal_guard.sh holds the journal-on budget.
func BenchmarkPlacement_Journal(b *testing.B) {
	const nodes = 5000
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			svc, _, _ := placementBenchFixture(b, nodes)
			if mode == "on" {
				if err := svc.StartJournal(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := topology.NodeID(i % nodes)
				if err := svc.ApplySlotAcquire(placement.MapSlot, n); err != nil {
					b.Fatal(err)
				}
				if err := svc.ApplySlotRelease(placement.MapSlot, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
