package resources

import (
	"math"
	"testing"
)

// TestTable1Exact pins the model to the paper's Table 1 (64 ports).
func TestTable1Exact(t *testing.T) {
	want := []struct {
		v                             Variant
		alu, salu, tables, gw, stages int
		sramKB, tcamKB                float64
	}{
		{PacketCount, 17, 9, 27, 15, 10, 606, 42},
		{WrapAround, 19, 9, 35, 19, 10, 671, 59},
		{ChannelState, 24, 11, 37, 19, 12, 770, 244},
	}
	rows := Table1(64)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		u := rows[i]
		if u.Variant != w.v {
			t.Errorf("row %d variant = %v", i, u.Variant)
		}
		if u.StatelessALUs != w.alu {
			t.Errorf("%v stateless ALUs = %d, want %d", w.v, u.StatelessALUs, w.alu)
		}
		if u.StatefulALUs != w.salu {
			t.Errorf("%v stateful ALUs = %d, want %d", w.v, u.StatefulALUs, w.salu)
		}
		if u.LogicalTables != w.tables {
			t.Errorf("%v tables = %d, want %d", w.v, u.LogicalTables, w.tables)
		}
		if u.Gateways != w.gw {
			t.Errorf("%v gateways = %d, want %d", w.v, u.Gateways, w.gw)
		}
		if u.Stages != w.stages {
			t.Errorf("%v stages = %d, want %d", w.v, u.Stages, w.stages)
		}
		if math.Abs(u.SRAMKB-w.sramKB) > 0.51 {
			t.Errorf("%v SRAM = %.2f KB, want %.0f", w.v, u.SRAMKB, w.sramKB)
		}
		if math.Abs(u.TCAMKB-w.tcamKB) > 0.51 {
			t.Errorf("%v TCAM = %.2f KB, want %.0f", w.v, u.TCAMKB, w.tcamKB)
		}
	}
}

// TestFourteenPortDataPoint pins the Section 7.1 configuration used in
// the evaluation: 14 ports with wraparound and channel state needs
// 638 KB SRAM and 90 KB TCAM.
func TestFourteenPortDataPoint(t *testing.T) {
	u := Estimate(ChannelState, 14)
	if math.Abs(u.SRAMKB-638) > 0.51 {
		t.Errorf("SRAM = %.2f KB, want 638", u.SRAMKB)
	}
	if math.Abs(u.TCAMKB-90) > 0.51 {
		t.Errorf("TCAM = %.2f KB, want 90", u.TCAMKB)
	}
}

func TestMonotoneInVariant(t *testing.T) {
	for ports := 4; ports <= 64; ports *= 2 {
		prev := Usage{}
		for v := PacketCount; v <= ChannelState; v++ {
			u := Estimate(v, ports)
			if v > PacketCount {
				if u.StatelessALUs < prev.StatelessALUs ||
					u.StatefulALUs < prev.StatefulALUs ||
					u.LogicalTables < prev.LogicalTables ||
					u.Gateways < prev.Gateways ||
					u.Stages < prev.Stages {
					t.Errorf("ports=%d: %v compute regressed vs %v", ports, v, prev.Variant)
				}
				if u.SRAMKB < prev.SRAMKB {
					t.Errorf("ports=%d: %v SRAM shrank", ports, v)
				}
			}
			prev = u
		}
	}
}

func TestMonotoneInPorts(t *testing.T) {
	for v := PacketCount; v <= ChannelState; v++ {
		prev := Estimate(v, 4)
		for _, ports := range []int{8, 16, 32, 64, 128} {
			u := Estimate(v, ports)
			if u.SRAMKB <= prev.SRAMKB || u.TCAMKB <= prev.TCAMKB {
				t.Errorf("%v: memory did not grow from %d to %d ports", v, prev.Ports, ports)
			}
			if u.Stages != prev.Stages {
				t.Errorf("%v: stages changed with port count", v)
			}
			prev = u
		}
	}
}

func TestUnderQuarterOfTofino(t *testing.T) {
	// Section 7.1: the prototype occupies less than 25% of any given
	// dedicated resource type.
	for v := PacketCount; v <= ChannelState; v++ {
		u := Estimate(v, 64)
		if f := FractionOfTofino(u); f >= 0.25 {
			t.Errorf("%v uses %.0f%% of a dedicated resource", v, f*100)
		}
	}
}

// TestComponentsFilter: a variant's estimate sums exactly the
// components it includes, and each variant includes more than the one
// before it.
func TestComponentsFilter(t *testing.T) {
	prev := -1
	for v := PacketCount; v <= ChannelState; v++ {
		want := 0
		for _, c := range components {
			if c.MinVariant <= v {
				want += c.StatefulALUs + c.StatelessALUs
			}
		}
		u := Estimate(v, 64)
		if got := u.StatefulALUs + u.StatelessALUs; got != want || got <= prev {
			t.Errorf("%v: %d ALUs, want %d (more than %d)", v, got, want, prev)
		}
		prev = want
	}
}

func TestVariantString(t *testing.T) {
	if PacketCount.String() != "Packet Count" ||
		WrapAround.String() != "+ Wrap Around" ||
		ChannelState.String() != "+ Chnl. State" {
		t.Error("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant name empty")
	}
}
