// Package resources models the data-plane resource usage of the
// Speedlight pipeline on a Tofino-class match-action ASIC, reproducing
// the paper's Table 1.
//
// The model is structural: the pipelines of Figures 4 and 5 are
// decomposed into components (header parsing, counter update, snapshot
// ID comparison, initiation, in-flight absorption, notification
// cloning, ...), each consuming stateless/stateful ALUs, logical table
// IDs, conditional gateways and pipeline stages. Memory follows a
// fixed-plus-per-port law: register arrays (snapshot values, last-seen
// entries, counters) grow with the snapshotted port count while match
// tables are sized once. The constants are calibrated against the
// paper's measured build (64 ports; 14 ports with wraparound and
// channel state), so the model reproduces both the absolute Table 1
// numbers and the scaling the paper reports in Section 7.1.
package resources

import "fmt"

// Variant selects a Speedlight data plane build. Variants are
// cumulative, matching Table 1's columns.
type Variant int

const (
	// PacketCount is the base build: per-port packet counters, no
	// wraparound, no channel state.
	PacketCount Variant = iota
	// WrapAround adds snapshot ID rollover support.
	WrapAround
	// ChannelState additionally records in-flight packets and the
	// last-seen machinery.
	ChannelState
)

func (v Variant) String() string {
	switch v {
	case PacketCount:
		return "Packet Count"
	case WrapAround:
		return "+ Wrap Around"
	case ChannelState:
		return "+ Chnl. State"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Component is one logical piece of the pipeline and its compute
// footprint. StageDepth is the number of sequential physical stages the
// component occupies on its pipeline's critical path (zero for
// components that run in parallel with others).
type Component struct {
	Name       string
	Pipeline   string // "ingress" or "egress"
	MinVariant Variant

	StatelessALUs int
	StatefulALUs  int
	Tables        int
	Gateways      int
	StageDepth    int
}

// components is the decomposition of Figures 4 and 5. Compute budgets
// are calibrated to the paper's build.
var components = []Component{
	// Base variant: the packet-count pipeline.
	{Name: "snapshot header parse/validate", Pipeline: "ingress", MinVariant: PacketCount,
		StatelessALUs: 2, Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "target counter update (ingress)", Pipeline: "ingress", MinVariant: PacketCount,
		StatefulALUs: 1, Tables: 1, StageDepth: 1},
	{Name: "snapshot ID read/update (ingress)", Pipeline: "ingress", MinVariant: PacketCount,
		StatefulALUs: 1, Tables: 1, StageDepth: 1},
	{Name: "ID comparison (ingress)", Pipeline: "ingress", MinVariant: PacketCount,
		StatelessALUs: 2, Tables: 3, Gateways: 3, StageDepth: 1},
	{Name: "snapshot initiation/save (ingress)", Pipeline: "ingress", MinVariant: PacketCount,
		StatefulALUs: 1, StatelessALUs: 1, Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "header stamp + egress select", Pipeline: "ingress", MinVariant: PacketCount,
		StatelessALUs: 3, Tables: 3, Gateways: 1, StageDepth: 1},
	{Name: "notification clone (ingress)", Pipeline: "ingress", MinVariant: PacketCount,
		StatefulALUs: 1, StatelessALUs: 2, Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "mirror session setup", Pipeline: "ingress", MinVariant: PacketCount,
		StatefulALUs: 1, Tables: 1, StageDepth: 0},

	{Name: "target counter update (egress)", Pipeline: "egress", MinVariant: PacketCount,
		StatefulALUs: 1, Tables: 1, StageDepth: 1},
	{Name: "snapshot ID read + comparison (egress)", Pipeline: "egress", MinVariant: PacketCount,
		StatefulALUs: 1, StatelessALUs: 2, Tables: 3, Gateways: 3, StageDepth: 1},
	{Name: "snapshot initiation/save (egress)", Pipeline: "egress", MinVariant: PacketCount,
		StatefulALUs: 1, StatelessALUs: 1, Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "header removal at edge", Pipeline: "egress", MinVariant: PacketCount,
		StatelessALUs: 2, Tables: 2, Gateways: 2, StageDepth: 1},
	{Name: "CPU-initiation drop check", Pipeline: "egress", MinVariant: PacketCount,
		Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "notification clone (egress)", Pipeline: "egress", MinVariant: PacketCount,
		StatefulALUs: 1, StatelessALUs: 2, Tables: 2, Gateways: 1, StageDepth: 1},
	{Name: "hidden stage padding (sequential dependencies)", Pipeline: "ingress",
		MinVariant: PacketCount, StageDepth: 3},
	{Name: "hidden stage padding egress", Pipeline: "egress",
		MinVariant: PacketCount, StageDepth: 3},

	// Wraparound additions: rollover detection and modular compares.
	{Name: "rollover detection (ingress)", Pipeline: "ingress", MinVariant: WrapAround,
		StatelessALUs: 1, Tables: 4, Gateways: 2, StageDepth: 0},
	{Name: "rollover detection (egress)", Pipeline: "egress", MinVariant: WrapAround,
		StatelessALUs: 1, Tables: 4, Gateways: 2, StageDepth: 0},

	// Channel-state additions: last-seen tracking and in-flight
	// absorption, each a new sequential stage.
	{Name: "last-seen update (ingress)", Pipeline: "ingress", MinVariant: ChannelState,
		StatefulALUs: 1, StatelessALUs: 2, Tables: 1, StageDepth: 1},
	{Name: "in-flight absorb (egress)", Pipeline: "egress", MinVariant: ChannelState,
		StatefulALUs: 1, StatelessALUs: 3, Tables: 1, StageDepth: 1},
	{Name: "channel-state stage padding", Pipeline: "ingress", MinVariant: ChannelState,
		StageDepth: 1},
	{Name: "channel-state stage padding egress", Pipeline: "egress", MinVariant: ChannelState,
		StageDepth: 1},
}

// memoryLaw is the fixed + per-port memory footprint of one variant, in
// kilobytes. Fixed covers match tables and static allocations; PerPort
// covers register arrays that scale with the snapshotted port count
// (snapshot values, counters, and — for channel state — per-neighbor
// last-seen arrays, whose match keys dominate the TCAM growth).
type memoryLaw struct {
	SRAMFixedKB, SRAMPerPortKB float64
	TCAMFixedKB, TCAMPerPortKB float64
}

var memory = map[Variant]memoryLaw{
	PacketCount:  {SRAMFixedKB: 510, SRAMPerPortKB: 1.5, TCAMFixedKB: 38.8, TCAMPerPortKB: 0.05},
	WrapAround:   {SRAMFixedKB: 559, SRAMPerPortKB: 1.75, TCAMFixedKB: 52.6, TCAMPerPortKB: 0.10},
	ChannelState: {SRAMFixedKB: 601.04, SRAMPerPortKB: 2.64, TCAMFixedKB: 46.88, TCAMPerPortKB: 3.08},
}

// Usage is one variant's total resource consumption — one column of
// Table 1.
type Usage struct {
	Variant       Variant
	Ports         int
	StatelessALUs int
	StatefulALUs  int
	LogicalTables int
	Gateways      int
	Stages        int
	SRAMKB        float64
	TCAMKB        float64
}

// Estimate computes the resource usage of a variant configured to
// snapshot the given number of ports.
func Estimate(v Variant, ports int) Usage {
	u := Usage{Variant: v, Ports: ports}
	ingressDepth, egressDepth := 0, 0
	for _, c := range components {
		if c.MinVariant > v {
			continue
		}
		u.StatelessALUs += c.StatelessALUs
		u.StatefulALUs += c.StatefulALUs
		u.LogicalTables += c.Tables
		u.Gateways += c.Gateways
		if c.Pipeline == "ingress" {
			ingressDepth += c.StageDepth
		} else {
			egressDepth += c.StageDepth
		}
	}
	// Ingress and egress pipelines share the Tofino's physical stages;
	// the build occupies as many as its deeper pipeline requires.
	u.Stages = ingressDepth
	if egressDepth > u.Stages {
		u.Stages = egressDepth
	}
	law := memory[v]
	u.SRAMKB = law.SRAMFixedKB + law.SRAMPerPortKB*float64(ports)
	u.TCAMKB = law.TCAMFixedKB + law.TCAMPerPortKB*float64(ports)
	return u
}

// Table1 returns the three variants at the given port count, in the
// paper's column order.
func Table1(ports int) []Usage {
	return []Usage{
		Estimate(PacketCount, ports),
		Estimate(WrapAround, ports),
		Estimate(ChannelState, ports),
	}
}

// FractionOfTofino reports the heaviest relative use of any dedicated
// resource, against public Tofino 1 budgets (12 physical stages per
// pipeline would be 100% of a 12-stage device; the paper reports its
// prototype stays under 25% of any dedicated resource type on the
// production part).
func FractionOfTofino(u Usage) float64 {
	// Approximate public Tofino capacities: 12 stages x 16 logical
	// tables, ~48 sALUs, 120 MB SRAM, 6.2 MB TCAM.
	fracs := []float64{
		float64(u.StatefulALUs) / 48,
		float64(u.LogicalTables) / 192,
		u.SRAMKB / (120 * 1024),
		u.TCAMKB / (6.2 * 1024),
	}
	max := 0.0
	for _, f := range fracs {
		if f > max {
			max = f
		}
	}
	return max
}
