package placement

import (
	"errors"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// TestDeltaContract is the defensive delta contract, table-driven: every
// rejected delta returns its specific typed error, matches the
// ErrDeltaConflict family via errors.Is, and leaves the epoch, the
// availability snapshots and the per-rack counts exactly as they were.
func TestDeltaContract(t *testing.T) {
	cases := []struct {
		name string
		prep func(t *testing.T, f *fixture) // establish the conflicting state
		hit  func(f *fixture) error         // the delta that must be rejected
		want error
	}{
		{
			name: "double_acquire_exhausts_slots",
			prep: func(t *testing.T, f *fixture) {
				for i := 0; i < 2; i++ { // fixture has 2 reduce slots per node
					if err := f.svc.ApplySlotAcquire(job.ReduceKind, 3); err != nil {
						t.Fatal(err)
					}
				}
			},
			hit:  func(f *fixture) error { return f.svc.ApplySlotAcquire(job.ReduceKind, 3) },
			want: ErrNoFreeSlot,
		},
		{
			name: "release_before_acquire",
			hit:  func(f *fixture) error { return f.svc.ApplySlotRelease(job.MapKind, 2) },
			want: ErrSlotNotHeld,
		},
		{
			name: "acquire_after_offline",
			prep: func(t *testing.T, f *fixture) {
				if err := f.svc.ApplyNodeOffline(4, true); err != nil {
					t.Fatal(err)
				}
			},
			hit:  func(f *fixture) error { return f.svc.ApplySlotAcquire(job.MapKind, 4) },
			want: ErrNodeUnavailable,
		},
		{
			name: "acquire_after_blacklist",
			prep: func(t *testing.T, f *fixture) {
				if err := f.svc.ApplyNodeBlacklist(4, true); err != nil {
					t.Fatal(err)
				}
			},
			hit:  func(f *fixture) error { return f.svc.ApplySlotAcquire(job.ReduceKind, 4) },
			want: ErrNodeUnavailable,
		},
		{
			name: "acquire_unknown_node",
			hit:  func(f *fixture) error { return f.svc.ApplySlotAcquire(job.MapKind, 99) },
			want: ErrUnknownNode,
		},
		{
			name: "release_negative_node",
			hit:  func(f *fixture) error { return f.svc.ApplySlotRelease(job.MapKind, -1) },
			want: ErrUnknownNode,
		},
		{
			name: "offline_unknown_node",
			hit:  func(f *fixture) error { return f.svc.ApplyNodeOffline(8, true) },
			want: ErrUnknownNode,
		},
		{
			name: "blacklist_unknown_node",
			hit:  func(f *fixture) error { return f.svc.ApplyNodeBlacklist(-2, true) },
			want: ErrUnknownNode,
		},
		{
			name: "replica_add_unknown_block",
			hit: func(f *fixture) error {
				_, err := f.svc.ApplyReplicaAdd(12345, 0)
				return err
			},
			want: ErrUnknownBlock,
		},
		{
			name: "replica_add_unknown_node",
			hit: func(f *fixture) error {
				_, err := f.svc.ApplyReplicaAdd(0, 42)
				return err
			},
			want: ErrUnknownNode,
		},
		{
			name: "replica_loss_unknown_block",
			hit: func(f *fixture) error {
				_, err := f.svc.ApplyReplicaLoss(-1, 0)
				return err
			},
			want: ErrUnknownBlock,
		},
		{
			name: "node_replica_loss_unknown_node",
			hit: func(f *fixture) error {
				_, err := f.svc.ApplyNodeReplicaLoss(8)
				return err
			},
			want: ErrUnknownNode,
		},
		{
			name: "link_factor_unknown_node",
			hit:  func(f *fixture) error { return f.svc.ApplyLinkFactor(77, 0.5) },
			want: ErrUnknownNode,
		},
		{
			name: "link_factor_nan",
			hit: func(f *fixture) error {
				var nan float64
				nan /= nan // NaN without importing math
				return f.svc.ApplyLinkFactor(3, nan)
			},
			want: ErrBadLinkFactor,
		},
		{
			name: "link_factor_negative",
			hit:  func(f *fixture) error { return f.svc.ApplyLinkFactor(3, -0.5) },
			want: ErrBadLinkFactor,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			if _, err := f.store.AddBlock(64e6, 1, placeAt{nodes: []topology.NodeID{0}}); err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(t, f)
			}
			epoch := f.svc.Epoch()
			before := f.svc.Snapshot()

			err := tc.hit(f)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrDeltaConflict) {
				t.Fatalf("error %v does not match the ErrDeltaConflict family", err)
			}

			if got := f.svc.Epoch(); got != epoch {
				t.Fatalf("rejected delta moved the epoch %d -> %d", epoch, got)
			}
			after := f.svc.Snapshot()
			assertAvailEqual(t, "map", before.AvailMap.Nodes, after.AvailMap.Nodes,
				before.AvailMap.Counts, after.AvailMap.Counts)
			assertAvailEqual(t, "reduce", before.AvailReduce.Nodes, after.AvailReduce.Nodes,
				before.AvailReduce.Counts, after.AvailReduce.Counts)
			if a := f.svc.Audit(); !a.Clean() {
				t.Fatalf("rejected delta left drift: %s", a)
			}
		})
	}
}

// assertAvailEqual fails the test when an availability snapshot or its
// per-rack counts changed across a rejected delta.
func assertAvailEqual(t *testing.T, kind string, nodesBefore, nodesAfter []topology.NodeID, countsBefore, countsAfter []int) {
	t.Helper()
	if len(nodesBefore) != len(nodesAfter) {
		t.Fatalf("%s avail size changed: %d -> %d", kind, len(nodesBefore), len(nodesAfter))
	}
	for i := range nodesBefore {
		if nodesBefore[i] != nodesAfter[i] {
			t.Fatalf("%s avail membership changed at %d: %d -> %d", kind, i, nodesBefore[i], nodesAfter[i])
		}
	}
	if len(countsBefore) != len(countsAfter) {
		t.Fatalf("%s rack count length changed: %d -> %d", kind, len(countsBefore), len(countsAfter))
	}
	for c := range countsBefore {
		if countsBefore[c] != countsAfter[c] {
			t.Fatalf("%s rack %d count changed: %d -> %d", kind, c, countsBefore[c], countsAfter[c])
		}
	}
}
