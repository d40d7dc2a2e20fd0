package workload

import (
	"fmt"
	"math"
	"testing"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// ExtendedKinds lists every application class including the extensions.
func ExtendedKinds() []Kind {
	return []Kind{Wordcount, Terasort, Grep, PageRank, KMeans, Join}
}

// MixedBatch synthesizes a batch of n jobs drawing uniformly from the
// extended application suite with input sizes in [minGB, maxGB],
// deterministically from the seed. Task counts follow the Table II
// pattern: one map per ~115 MB of input, reduces in the 120-200 range
// scaled by input share.
func MixedBatch(n int, minGB, maxGB int, seed int64) []JobDef {
	if n < 1 {
		return nil
	}
	if minGB < 1 {
		minGB = 1
	}
	if maxGB < minGB {
		maxGB = minGB
	}
	rng := sim.NewRNG(seed)
	kinds := ExtendedKinds()
	out := make([]JobDef, 0, n)
	for i := 0; i < n; i++ {
		gb := minGB + rng.Intn(maxGB-minGB+1)
		maps := int(float64(gb)*1e9/115e6) + rng.Intn(20)
		if maps < 1 {
			maps = 1
		}
		reduces := 120 + rng.Intn(81)
		out = append(out, JobDef{
			JobID:   fmt.Sprintf("M%02d", i+1),
			Kind:    kinds[rng.Intn(len(kinds))],
			InputGB: gb,
			Maps:    maps,
			Reduces: reduces,
		})
	}
	return out
}

func TestTableIIShape(t *testing.T) {
	defs := TableII()
	if len(defs) != 30 {
		t.Fatalf("TableII has %d rows, want 30", len(defs))
	}
	// Spot-check published values.
	if defs[0].Name() != "Wordcount_10GB" || defs[0].Maps != 88 || defs[0].Reduces != 157 {
		t.Fatalf("row 01 = %+v", defs[0])
	}
	if defs[9].Name() != "Wordcount_100GB" || defs[9].Maps != 930 {
		t.Fatalf("row 10 = %+v", defs[9])
	}
	if defs[19].Name() != "Terasort_100GB" || defs[19].Maps != 824 || defs[19].Reduces != 193 {
		t.Fatalf("row 20 = %+v", defs[19])
	}
	if defs[29].Name() != "Grep_100GB" || defs[29].Maps != 893 {
		t.Fatalf("row 30 = %+v", defs[29])
	}
	// Job IDs dense and ordered.
	for i, d := range defs {
		want := i + 1
		if d.JobID != twoDigit(want) {
			t.Fatalf("row %d JobID = %s", i, d.JobID)
		}
		if d.InputGB != (i%10+1)*10 {
			t.Fatalf("row %d InputGB = %d", i, d.InputGB)
		}
	}
}

func twoDigit(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}

func TestBatchPartition(t *testing.T) {
	total := 0
	for _, k := range Kinds() {
		b := Batch(k)
		if len(b) != 10 {
			t.Fatalf("%v batch has %d jobs", k, len(b))
		}
		for _, d := range b {
			if d.Kind != k {
				t.Fatalf("%v batch contains %v job", k, d.Kind)
			}
		}
		total += len(b)
	}
	if total != 30 {
		t.Fatalf("batches cover %d jobs", total)
	}
}

func TestProfilesValid(t *testing.T) {
	for _, k := range Kinds() {
		if err := ProfileFor(k).Validate(); err != nil {
			t.Errorf("%v profile invalid: %v", k, err)
		}
	}
}

func TestProfileShuffleOrdering(t *testing.T) {
	// Wordcount is shuffle-heavy, Terasort shuffles its input, Grep is
	// map-intensive — the premise of Fig. 3.
	wc := ProfileFor(Wordcount).MapSelectivity
	ts := ProfileFor(Terasort).MapSelectivity
	gr := ProfileFor(Grep).MapSelectivity
	if !(wc > ts && ts > gr) {
		t.Fatalf("selectivities not ordered: wc=%v ts=%v grep=%v", wc, ts, gr)
	}
	if ts != 1.0 {
		t.Fatalf("Terasort selectivity = %v, want exactly 1 (sort shuffles its input)", ts)
	}
}

func TestFig3ShuffleMix(t *testing.T) {
	// Qualitative shape of Fig. 3: a majority of jobs are shuffle-heavy
	// (> 50 GB at full scale), roughly a fifth exceed 100 GB, and a
	// map-intensive tail stays under 10 GB.
	defs := TableII()
	over50, over100, under10 := 0, 0, 0
	for _, d := range defs {
		s := d.ShuffleBytes()
		if s > 50e9 {
			over50++
		}
		if s > 100e9 {
			over100++
		}
		if s < 10e9 {
			under10++
		}
	}
	if over50 < 10 {
		t.Fatalf("only %d jobs over 50GB shuffle; want a large shuffle-heavy group", over50)
	}
	if over100 < 4 || over100 > 9 {
		t.Fatalf("%d jobs over 100GB shuffle; want roughly a fifth of 30", over100)
	}
	if under10 < 5 {
		t.Fatalf("only %d map-intensive jobs; want a visible tail", under10)
	}
}

func TestSpecScaling(t *testing.T) {
	d := JobDef{JobID: "01", Kind: Wordcount, InputGB: 10, Maps: 88, Reduces: 157}
	o := DefaultOptions()
	o.Scale = 4
	s, err := d.Spec(3, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumReduces != 40 { // ceil(157/4)
		t.Fatalf("scaled reduces = %d, want 40", s.NumReduces)
	}
	wantMaps := 22 // ceil(88/4)
	if got := int(math.Ceil(s.InputBytes / s.BlockSize)); got != wantMaps {
		t.Fatalf("scaled maps = %d, want %d", got, wantMaps)
	}
	if math.Abs(s.InputBytes-10e9/4) > 1 {
		t.Fatalf("scaled input = %v", s.InputBytes)
	}
	if float64(s.Submit) != 3*o.SubmitStagger {
		t.Fatalf("submit = %v, want %v", s.Submit, 3*o.SubmitStagger)
	}
}

func TestSpecScaleOneMatchesTable(t *testing.T) {
	// At scale 1 the instantiated job has exactly the published task
	// counts: this is the Table II reproduction.
	spec := topology.DefaultSpec()
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	o := DefaultOptions()
	o.Scale = 1
	for _, d := range []JobDef{TableII()[0], TableII()[14], TableII()[29]} {
		s, err := d.Spec(0, o)
		if err != nil {
			t.Fatal(err)
		}
		j, err := job.New(1, s, store, sim.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		if j.NumMaps() != d.Maps {
			t.Errorf("%s: %d maps, want %d", d.Name(), j.NumMaps(), d.Maps)
		}
		if j.NumReduces() != d.Reduces {
			t.Errorf("%s: %d reduces, want %d", d.Name(), j.NumReduces(), d.Reduces)
		}
	}
}

func TestSpecsWholeBatch(t *testing.T) {
	specs, err := Specs(Batch(Terasort), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 10 {
		t.Fatalf("%d specs", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Submit <= specs[i-1].Submit {
			t.Fatal("submission times not staggered")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Scale: 0, Replication: 2},
		{Scale: 1, Replication: 0},
		{Scale: 1, Replication: 2, SubmitStagger: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	d := TableII()[0]
	if _, err := d.Spec(0, Options{Scale: 0, Replication: 2}); err == nil {
		t.Error("Spec with bad options accepted")
	}
	if _, err := Specs(TableII(), Options{Scale: 0, Replication: 1}); err == nil {
		t.Error("Specs with bad options accepted")
	}
}

func TestScaleCountNeverZero(t *testing.T) {
	if scaleCount(1, 100) != 1 {
		t.Fatal("scaleCount floored to zero")
	}
	if scaleCount(100, 1) != 100 {
		t.Fatal("scale 1 changed count")
	}
	if scaleCount(10, 3) != 4 { // ceil
		t.Fatalf("scaleCount(10,3) = %d, want 4", scaleCount(10, 3))
	}
}

func TestKindString(t *testing.T) {
	if Wordcount.String() != "Wordcount" || Terasort.String() != "Terasort" || Grep.String() != "Grep" {
		t.Fatal("kind strings wrong")
	}
}

func TestExtendedProfilesValid(t *testing.T) {
	for _, k := range ExtendedKinds() {
		if err := ProfileFor(k).Validate(); err != nil {
			t.Errorf("%v profile invalid: %v", k, err)
		}
		if k.String() == "" {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
	if len(ExtendedKinds()) != 6 {
		t.Fatalf("extended suite has %d kinds", len(ExtendedKinds()))
	}
}

func TestExtendedProfileCharacter(t *testing.T) {
	// The extensions keep their intended workload character.
	if ProfileFor(PageRank).MapSelectivity <= 1 {
		t.Error("PageRank should be shuffle-heavy")
	}
	if ProfileFor(KMeans).MapSelectivity >= 0.05 {
		t.Error("KMeans should have a near-zero shuffle")
	}
	if ProfileFor(KMeans).MapRate >= ProfileFor(Grep).MapRate {
		t.Error("KMeans maps should be the most compute-bound")
	}
	if ProfileFor(Join).PartitionSkew <= ProfileFor(Terasort).PartitionSkew {
		t.Error("Join should have skewed keys")
	}
}

func TestMixedBatch(t *testing.T) {
	b := MixedBatch(20, 5, 50, 7)
	if len(b) != 20 {
		t.Fatalf("%d jobs", len(b))
	}
	kinds := map[Kind]bool{}
	for _, d := range b {
		if d.InputGB < 5 || d.InputGB > 50 {
			t.Fatalf("input %dGB out of range", d.InputGB)
		}
		if d.Maps < 1 || d.Reduces < 120 || d.Reduces > 200 {
			t.Fatalf("task counts out of range: %+v", d)
		}
		kinds[d.Kind] = true
	}
	if len(kinds) < 3 {
		t.Fatalf("mixed batch drew only %d kinds", len(kinds))
	}
	// Deterministic in the seed.
	b2 := MixedBatch(20, 5, 50, 7)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("MixedBatch not deterministic")
		}
	}
	if MixedBatch(0, 1, 2, 1) != nil {
		t.Fatal("zero-size batch should be nil")
	}
	// Degenerate bounds are clamped.
	one := MixedBatch(3, 0, -5, 2)
	for _, d := range one {
		if d.InputGB != 1 {
			t.Fatalf("clamped batch has %dGB", d.InputGB)
		}
	}
}

func TestMixedBatchRunsEndToEnd(t *testing.T) {
	defs := MixedBatch(4, 3, 10, 3)
	specs, err := Specs(defs, Options{Scale: 10, Replication: 2, SubmitStagger: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := s.Profile.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
