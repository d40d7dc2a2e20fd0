package job

import (
	"math"
	"testing"
	"testing/quick"

	"mapsched/internal/hdfs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

func testProfile() Profile {
	return Profile{
		Name:              "test",
		MapSelectivity:    0.5,
		MapRate:           25e6,
		ReduceRate:        25e6,
		PartitionSkew:     0.5,
		SelectivityJitter: 0.1,
		OutputCurveSpread: 0.2,
		ComputeJitter:     0.1,
	}
}

func testStore(t *testing.T) *hdfs.Store {
	t.Helper()
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 5
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return hdfs.NewStore(net, sim.NewRNG(1))
}

func mustJob(t *testing.T, spec Spec) *Job {
	t.Helper()
	j, err := New(1, spec, testStore(t), sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewJobShape(t *testing.T) {
	j := mustJob(t, Spec{
		Name:       "wc",
		Profile:    testProfile(),
		InputBytes: 10 * 128e6,
		BlockSize:  128e6,
		NumReduces: 4,
	})
	if j.NumMaps() != 10 {
		t.Fatalf("NumMaps = %d, want 10", j.NumMaps())
	}
	if j.NumReduces() != 4 {
		t.Fatalf("NumReduces = %d, want 4", j.NumReduces())
	}
	for _, m := range j.Maps {
		if m.Size != 128e6 {
			t.Fatalf("map %d size %v, want 128e6", m.Index, m.Size)
		}
		if len(m.Out) != 4 {
			t.Fatalf("map %d has %d partitions", m.Index, len(m.Out))
		}
		if m.State != TaskPending {
			t.Fatalf("map %d state %v, want pending", m.Index, m.State)
		}
		if m.Node != -1 {
			t.Fatalf("map %d pre-assigned to node %d", m.Index, m.Node)
		}
	}
}

func TestIntermediateMatrixVolume(t *testing.T) {
	p := testProfile()
	p.SelectivityJitter = 0 // exact volume
	j := mustJob(t, Spec{
		Name:       "wc",
		Profile:    p,
		InputBytes: 8 * 128e6,
		BlockSize:  128e6,
		NumReduces: 5,
	})
	var total float64
	for _, m := range j.Maps {
		total += m.TotalOut()
	}
	want := 8 * 128e6 * p.MapSelectivity
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("Σ I_jf = %v, want %v", total, want)
	}
	// Reduce-side view agrees.
	var byReduce float64
	for _, r := range j.Reduces {
		byReduce += r.ExpectedInput()
	}
	if math.Abs(byReduce-total) > 1 {
		t.Fatalf("reduce-side sum %v != map-side sum %v", byReduce, total)
	}
}

func TestPartitionWeightsNormalized(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, skew := range []float64{0, 0.3, 1, 2.5} {
		for _, n := range []int{1, 2, 7, 100} {
			w := partitionWeights(n, skew, rng)
			var sum float64
			for _, v := range w {
				if v < 0 {
					t.Fatalf("negative weight with skew %v", skew)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("weights sum %v (n=%d skew=%v)", sum, n, skew)
			}
		}
	}
}

func TestPartitionSkewConcentrates(t *testing.T) {
	rng := sim.NewRNG(5)
	flat := partitionWeights(50, 0, rng)
	skewed := partitionWeights(50, 2, rng)
	maxFlat, maxSkew := 0.0, 0.0
	for i := range flat {
		maxFlat = math.Max(maxFlat, flat[i])
		maxSkew = math.Max(maxSkew, skewed[i])
	}
	if maxSkew <= maxFlat {
		t.Fatalf("skewed max weight %v not above uniform %v", maxSkew, maxFlat)
	}
}

func TestMapProgressAggregation(t *testing.T) {
	j := mustJob(t, Spec{
		Name: "wc", Profile: testProfile(),
		InputBytes: 4 * 128e6, BlockSize: 128e6, NumReduces: 2,
	})
	if p := j.MapProgress(); p != 0 {
		t.Fatalf("initial MapProgress = %v, want 0", p)
	}
	j.Maps[0].Complete(0)
	j.Maps[1].Run(1, 0)
	j.Maps[1].Progress = 0.5
	if p := j.MapProgress(); math.Abs(p-0.375) > 1e-9 {
		t.Fatalf("MapProgress = %v, want 0.375", p)
	}
	for _, m := range j.Maps {
		m.Complete(0)
	}
	if p := j.MapProgress(); p != 1 {
		t.Fatalf("final MapProgress = %v, want 1", p)
	}
	if !j.MapsDone() {
		t.Fatal("MapsDone() = false with all maps done")
	}
}

func TestPendingAndRunningViews(t *testing.T) {
	j := mustJob(t, Spec{
		Name: "wc", Profile: testProfile(),
		InputBytes: 3 * 128e6, BlockSize: 128e6, NumReduces: 3,
	})
	if len(j.AppendPendingMaps(nil)) != 3 || len(j.AppendPendingReduces(nil)) != 3 {
		t.Fatal("fresh job has wrong pending counts")
	}
	j.Maps[0].Run(0, 0)
	j.Reduces[1].Run(1, 0)
	maps, reds := j.AppendPendingMaps(nil), j.AppendPendingReduces(nil)
	if len(maps) != 2 || len(reds) != 2 {
		t.Fatal("pending views did not shrink")
	}
	if maps[0] != j.Maps[1] || maps[1] != j.Maps[2] || reds[0] != j.Reduces[0] || reds[1] != j.Reduces[2] {
		t.Fatal("pending views not in task-index order")
	}
	if m, r := j.Running(MapKind), j.Running(ReduceKind); m != 1 || r != 1 {
		t.Fatalf("Running = (%d,%d), want (1,1)", m, r)
	}
}

func TestHasReduceOn(t *testing.T) {
	j := mustJob(t, Spec{
		Name: "wc", Profile: testProfile(),
		InputBytes: 128e6, BlockSize: 128e6, NumReduces: 2,
	})
	if j.HasReduceOn(3) {
		t.Fatal("fresh job claims a reduce on node 3")
	}
	j.Reduces[0].Run(3, 0)
	if !j.HasReduceOn(3) {
		t.Fatal("running reduce on node 3 not detected")
	}
	j.Reduces[0].Complete(0)
	if j.HasReduceOn(3) {
		t.Fatal("finished reduce still blocks node 3 (rule covers running reduces only)")
	}
	if j.HasReduceOn(4) {
		t.Fatal("phantom reduce on node 4")
	}
}

func TestJobValidation(t *testing.T) {
	store := testStore(t)
	rng := sim.NewRNG(3)
	good := Spec{Name: "ok", Profile: testProfile(), InputBytes: 1e6, BlockSize: 128e6, NumReduces: 1}
	if _, err := New(1, good, store, rng); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Name: "input", Profile: testProfile(), InputBytes: 0, BlockSize: 1, NumReduces: 1},
		{Name: "block", Profile: testProfile(), InputBytes: 1, BlockSize: 0, NumReduces: 1},
		{Name: "reduces", Profile: testProfile(), InputBytes: 1, BlockSize: 1, NumReduces: 0},
	}
	for _, s := range bad {
		if _, err := New(1, s, store, rng); err == nil {
			t.Errorf("spec %q accepted, want error", s.Name)
		}
	}
	badProfile := testProfile()
	badProfile.MapRate = 0
	if _, err := New(1, Spec{Name: "p", Profile: badProfile, InputBytes: 1, BlockSize: 1, NumReduces: 1}, store, rng); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestProfileValidation(t *testing.T) {
	mk := func(mut func(*Profile)) Profile {
		p := testProfile()
		mut(&p)
		return p
	}
	bad := []Profile{
		mk(func(p *Profile) { p.Name = "" }),
		mk(func(p *Profile) { p.MapSelectivity = -1 }),
		mk(func(p *Profile) { p.MapRate = 0 }),
		mk(func(p *Profile) { p.ReduceRate = -5 }),
		mk(func(p *Profile) { p.PartitionSkew = -0.1 }),
		mk(func(p *Profile) { p.SelectivityJitter = 1 }),
		mk(func(p *Profile) { p.OutputCurveSpread = -0.2 }),
		mk(func(p *Profile) { p.ComputeJitter = 2 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
	if err := testProfile().Validate(); err != nil {
		t.Errorf("good profile rejected: %v", err)
	}
}

func TestDefaultReplicationIsTwo(t *testing.T) {
	store := testStore(t)
	j, err := New(1, Spec{
		Name: "wc", Profile: testProfile(),
		InputBytes: 128e6, BlockSize: 128e6, NumReduces: 1,
	}, store, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.Replicas(j.Maps[0].Block)); got != 2 {
		t.Fatalf("default replication = %d, want 2", got)
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: for any job, Σ_j Σ_f I_jf within jitter bounds of
	// input × selectivity, and every I_jf >= 0.
	f := func(blocks uint8, reduces uint8, seed int64) bool {
		nb := 1 + int(blocks)%20
		nr := 1 + int(reduces)%30
		store := hdfsStoreForQuick()
		p := testProfile()
		j, err := New(1, Spec{
			Name: "q", Profile: p,
			InputBytes: float64(nb) * 64e6, BlockSize: 64e6, NumReduces: nr,
		}, store, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		var total float64
		for _, m := range j.Maps {
			for _, v := range m.Out {
				if v < 0 {
					return false
				}
				total += v
			}
		}
		base := float64(nb) * 64e6 * p.MapSelectivity
		lo := base * (1 - p.SelectivityJitter - 1e-9)
		hi := base * (1 + p.SelectivityJitter + 1e-9)
		return total >= lo && total <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func hdfsStoreForQuick() *hdfs.Store {
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 5
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		panic(err)
	}
	return hdfs.NewStore(net, sim.NewRNG(1))
}

func TestTaskStateString(t *testing.T) {
	if TaskPending.String() != "pending" || TaskRunning.String() != "running" || TaskDone.String() != "done" {
		t.Fatal("TaskState strings wrong")
	}
	if TaskState(9).String() == "" {
		t.Fatal("unknown state has empty string")
	}
}

func TestLocalityString(t *testing.T) {
	cases := map[Locality]string{
		LocalNode:       "local node",
		LocalRack:       "local rack",
		Remote:          "remote",
		LocalityUnknown: "unknown",
	}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

// TestTaskTransitionsKeepDoneCounts applies random Run, Complete and
// Reset steps across a job's tasks, in any order and from any state.
// After every step the pending, running and done counts — and the
// pending views built from them — must equal a rescan of the task
// states, and the transition must have set exactly the fields its doc
// names.
func TestTaskTransitionsKeepDoneCounts(t *testing.T) {
	j := mustJob(t, Spec{
		Name:       "wc",
		Profile:    testProfile(),
		InputBytes: 12 * 128e6,
		BlockSize:  128e6,
		NumReduces: 5,
	})
	rng := sim.NewRNG(7)
	for step := 1; step <= 5000; step++ {
		at := sim.Time(step)
		n := topology.NodeID(rng.Intn(10))
		op := rng.Intn(3)
		if rng.Intn(2) == 0 {
			m := j.Maps[rng.Intn(len(j.Maps))]
			switch op {
			case 0:
				m.Run(n, at)
				if m.State != TaskRunning || m.Node != n || m.Launch != at {
					t.Fatalf("step %d: Run left map %+v", step, *m)
				}
				m.Progress = rng.Float64()
			case 1:
				m.Complete(at)
				if m.State != TaskDone || m.Progress != 1 || m.Finish != at {
					t.Fatalf("step %d: Complete left map %+v", step, *m)
				}
			case 2:
				m.Locality = Locality(rng.Intn(4))
				launch, finish, loc := m.Launch, m.Finish, m.Locality
				m.Reset()
				if m.State != TaskPending || m.Progress != 0 || m.Node != -1 ||
					m.Launch != launch || m.Finish != finish || m.Locality != loc {
					t.Fatalf("step %d: Reset left map %+v", step, *m)
				}
			}
		} else {
			r := j.Reduces[rng.Intn(len(j.Reduces))]
			switch op {
			case 0:
				r.Run(n, at)
				if r.State != TaskRunning || r.Node != n || r.Launch != at {
					t.Fatalf("step %d: Run left reduce %+v", step, *r)
				}
				r.Locality, r.ShuffledBytes = LocalNode, rng.Float64()
			case 1:
				r.Complete(at)
				if r.State != TaskDone || r.Finish != at {
					t.Fatalf("step %d: Complete left reduce %+v", step, *r)
				}
			case 2:
				launch, finish := r.Launch, r.Finish
				r.Reset()
				if r.State != TaskPending || r.Node != -1 || r.Locality != LocalityUnknown ||
					r.ShuffledBytes != 0 || r.Launch != launch || r.Finish != finish {
					t.Fatalf("step %d: Reset left reduce %+v", step, *r)
				}
			}
		}
		checkCounts(t, step, j)
	}
}

// checkCounts compares every count-backed view of j with a rescan of
// its task states.
func checkCounts(t *testing.T, step int, j *Job) {
	t.Helper()
	var mapsIn, redsIn [3]int
	var pendMaps []*MapTask
	var pendReds []*ReduceTask
	for _, m := range j.Maps {
		mapsIn[m.State]++
		if m.State == TaskPending {
			pendMaps = append(pendMaps, m)
		}
	}
	for _, r := range j.Reduces {
		redsIn[r.State]++
		if r.State == TaskPending {
			pendReds = append(pendReds, r)
		}
	}
	if j.DoneMaps != mapsIn[TaskDone] || j.DoneReds != redsIn[TaskDone] {
		t.Fatalf("step %d: counts DoneMaps=%d DoneReds=%d, rescan %d/%d",
			step, j.DoneMaps, j.DoneReds, mapsIn[TaskDone], redsIn[TaskDone])
	}
	if rm, rr := j.Running(MapKind), j.Running(ReduceKind); rm != mapsIn[TaskRunning] || rr != redsIn[TaskRunning] {
		t.Fatalf("step %d: Running = (%d,%d), rescan (%d,%d)",
			step, rm, rr, mapsIn[TaskRunning], redsIn[TaskRunning])
	}
	if j.HasPending(MapKind) != (mapsIn[TaskPending] > 0) || j.HasPending(ReduceKind) != (redsIn[TaskPending] > 0) {
		t.Fatalf("step %d: HasPending = (%v,%v), rescan pending (%d,%d)",
			step, j.HasPending(MapKind), j.HasPending(ReduceKind), mapsIn[TaskPending], redsIn[TaskPending])
	}
	// The views append after existing elements: seed dst with a sentinel.
	gotMaps := j.AppendPendingMaps([]*MapTask{nil})
	if len(gotMaps) != 1+len(pendMaps) || gotMaps[0] != nil {
		t.Fatalf("step %d: AppendPendingMaps returned %d tasks after the sentinel, rescan %d",
			step, len(gotMaps)-1, len(pendMaps))
	}
	for i, m := range pendMaps {
		if gotMaps[1+i] != m {
			t.Fatalf("step %d: pending map %d is task %d, rescan task %d", step, i, gotMaps[1+i].Index, m.Index)
		}
	}
	gotReds := j.AppendPendingReduces([]*ReduceTask{nil})
	if len(gotReds) != 1+len(pendReds) || gotReds[0] != nil {
		t.Fatalf("step %d: AppendPendingReduces returned %d tasks after the sentinel, rescan %d",
			step, len(gotReds)-1, len(pendReds))
	}
	for i, r := range pendReds {
		if gotReds[1+i] != r {
			t.Fatalf("step %d: pending reduce %d is task %d, rescan task %d", step, i, gotReds[1+i].Index, r.Index)
		}
	}
}

// TestAssembleCountsInitialStates builds a job from tasks laid out in
// every state: Assemble must wire the back-pointers and start the counts
// equal to a rescan, and the funnel must keep them there afterwards.
func TestAssembleCountsInitialStates(t *testing.T) {
	maps := []*MapTask{
		{Index: 0, Node: -1},
		{Index: 1, State: TaskRunning, Node: 2},
		{Index: 2, State: TaskDone, Node: 3, Progress: 1},
		{Index: 3, Node: -1},
	}
	reduces := []*ReduceTask{
		{Index: 0, State: TaskDone, Node: 1},
		{Index: 1, State: TaskRunning, Node: 4},
		{Index: 2, Node: -1},
	}
	j := Assemble(5, Spec{Name: "laid-out", Submit: 7}, maps, reduces)
	if j.ID != 5 || j.Submitted != 7 {
		t.Fatalf("Assemble set ID=%d Submitted=%v, want 5 and the spec's submit time", j.ID, j.Submitted)
	}
	for _, m := range j.Maps {
		if m.Job != j {
			t.Fatalf("map %d does not point back at its job", m.Index)
		}
	}
	for _, r := range j.Reduces {
		if r.Job != j {
			t.Fatalf("reduce %d does not point back at its job", r.Index)
		}
	}
	checkCounts(t, 0, j)
	if !j.HasReduceOn(4) || j.HasReduceOn(1) {
		t.Fatal("HasReduceOn disagrees with the laid-out running reduce")
	}
	j.Maps[1].Complete(1)
	j.Reduces[1].Reset()
	checkCounts(t, 1, j)
	if j.HasReduceOn(4) {
		t.Fatal("reset reduce still blocks its node")
	}
}
