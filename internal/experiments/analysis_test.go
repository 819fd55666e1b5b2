package experiments

import (
	"math"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
)

func unit(port int) dataplane.UnitID {
	return dataplane.UnitID{Node: 0, Port: port, Dir: dataplane.Egress}
}

// snap builds a snapshot with the given per-port values at a schedule
// time.
func snap(id packet.SeqID, at sim.Time, values map[int]uint64, inconsistent ...int) *observer.GlobalSnapshot {
	g := &observer.GlobalSnapshot{
		ID:          id,
		Results:     map[dataplane.UnitID]control.Result{},
		ScheduledAt: at,
	}
	bad := map[int]bool{}
	for _, p := range inconsistent {
		bad[p] = true
	}
	for p, v := range values {
		g.Results[unit(p)] = control.Result{
			Unit: unit(p), SnapshotID: id, Value: v, Consistent: !bad[p],
		}
	}
	return g
}

func TestUnitSeriesAlignedAndOrdered(t *testing.T) {
	snaps := []*observer.GlobalSnapshot{
		snap(2, 200, map[int]uint64{0: 20, 1: 21}),
		snap(1, 100, map[int]uint64{0: 10, 1: 11}),
		snap(3, 300, map[int]uint64{0: 30}),           // unit 1 missing: skipped
		snap(4, 400, map[int]uint64{0: 40, 1: 41}, 1), // unit 1 inconsistent: skipped
		snap(5, 500, map[int]uint64{0: 50, 1: 51}),
	}
	series := unitSeries(snaps, []dataplane.UnitID{unit(0), unit(1)})
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	want0 := []float64{10, 20, 50}
	want1 := []float64{11, 21, 51}
	for i := range want0 {
		if series[0][i] != want0[i] || series[1][i] != want1[i] {
			t.Fatalf("series misaligned: %v / %v", series[0], series[1])
		}
	}
}

func TestImbalance(t *testing.T) {
	snaps := []*observer.GlobalSnapshot{
		snap(1, 100, map[int]uint64{0: 1000, 1: 1000}), // balanced: 0
		snap(2, 200, map[int]uint64{0: 2000, 1: 1000}), // |diff|/2 = 500
	}
	groups := [][]dataplane.UnitID{{unit(0), unit(1)}}
	cdf := stats.NewCDF(imbalanceSamples(snaps, groups, 0.001)) // ns -> µs
	if cdf.N() != 2 {
		t.Fatalf("samples = %d", cdf.N())
	}
	if got := cdf.MinValue(); got != 0 {
		t.Errorf("min = %v", got)
	}
	if got := cdf.MaxValue(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("max = %v, want 0.5", got)
	}
}

func TestImbalanceSkipsIncompleteGroups(t *testing.T) {
	snaps := []*observer.GlobalSnapshot{
		snap(1, 100, map[int]uint64{0: 5}), // unit 1 missing
	}
	cdf := stats.NewCDF(imbalanceSamples(snaps, [][]dataplane.UnitID{{unit(0), unit(1)}}, 1))
	if cdf.N() != 0 {
		t.Errorf("samples = %d, want 0", cdf.N())
	}
}

func TestCorrelate(t *testing.T) {
	var snaps []*observer.GlobalSnapshot
	for i := packet.SeqID(1); i <= 20; i++ {
		snaps = append(snaps, snap(i, sim.Time(i*100), map[int]uint64{
			0: uint64(i) * 10,             // rising
			1: uint64(i)*10 + uint64(i)%3, // rising with noise: strongly correlated
			2: 1000 - uint64(i)*10,        // falling: anti-correlated
		}))
	}
	m, err := stats.NewCorrMatrix(unitSeries(snaps, []dataplane.UnitID{unit(0), unit(1), unit(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho[0][1] < 0.95 {
		t.Errorf("rho(0,1) = %v, want ~1", m.Rho[0][1])
	}
	if m.Rho[0][2] > -0.95 {
		t.Errorf("rho(0,2) = %v, want ~-1", m.Rho[0][2])
	}
}

func TestConcurrentLoad(t *testing.T) {
	snaps := []*observer.GlobalSnapshot{
		snap(1, 100, map[int]uint64{0: 5, 1: 0, 2: 9}),
		snap(2, 200, map[int]uint64{0: 0, 1: 0, 2: 0}),
	}
	cdf := concurrentLoad(snaps, []dataplane.UnitID{unit(0), unit(1), unit(2)}, 2)
	if cdf.N() != 2 {
		t.Fatalf("samples = %d", cdf.N())
	}
	if cdf.MaxValue() != 2 || cdf.MinValue() != 0 {
		t.Errorf("range = [%v, %v]", cdf.MinValue(), cdf.MaxValue())
	}
}
