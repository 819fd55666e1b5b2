// Package workload generates the application traffic of the paper's
// evaluation (Section 8): a Hadoop Terasort-style shuffle, a Spark
// GraphX PageRank-style iterative exchange, and a memcached multi-get
// workload.
//
// The generators are flow-level models that reproduce each
// application's defining traffic shape — what Figures 12 and 13
// actually depend on — rather than the applications' computation:
//
//   - Terasort: few, large, long-lived mapper-to-reducer flows sent in
//     on/off waves on fixed 5-tuples. ECMP hash collisions persist for
//     the whole job; the idle gaps between waves are exactly what
//     flowlet switching exploits.
//   - PageRank: globally synchronized supersteps — every worker pair
//     exchanges a bulk burst at the same instant, then the network goes
//     quiet until the next iteration. Egress ports become strongly
//     correlated in time.
//   - Memcache: a client sprays small multi-get requests over all
//     servers with a fresh source port per request, and servers answer
//     with small values: many tiny flows, inherently well balanced.
package workload

import (
	"fmt"
	"math/rand"

	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// App is a runnable traffic generator.
type App interface {
	Name() string
	// Start begins injecting traffic into the network's engine.
	Start()
	// Stop halts further injection (already scheduled packets drain).
	Stop()
}

// ByName builds one of the paper's workloads over all of net's hosts
// with the role split of Section 8: "uniform" is background traffic
// among every host; in "hadoop" every host both maps and reduces (the
// paper runs 10 mappers and 8 reducers across 6 servers, so shuffle
// fetches cross the fabric in both directions); in "graphx" host 0 is
// the idle master and the rest are workers; in "memcache" host 0 is the
// client and the rest serve.
func ByName(name string, net *emunet.Network) (App, error) {
	hosts := net.Topo().HostIDs()
	switch name {
	case "uniform":
		return &Uniform{Net: net, Hosts: hosts}, nil
	case "hadoop":
		return &Terasort{Net: net, Mappers: hosts, Reducers: hosts}, nil
	case "graphx":
		return &PageRank{Net: net, Workers: hosts[1:]}, nil
	case "memcache":
		return &Memcache{Net: net, Clients: hosts[:1], Servers: hosts[1:]}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want uniform, hadoop, graphx or memcache)", name)
}

// SendFlow injects count packets of the given size from src to dst with
// a fixed inter-packet gap, starting one gap from now. The 5-tuple is
// (src, dst, srcPort, dstPort, TCP).
func SendFlow(net *emunet.Network, src, dst topology.HostID, srcPort, dstPort uint16,
	count int, size uint32, gap sim.Duration, stopped *bool) {
	eng := net.Engine()
	var seq uint64
	var step func()
	step = func() {
		if *stopped || count <= 0 {
			return
		}
		count--
		seq++
		net.InjectFromHost(src, &packet.Packet{
			DstHost: uint32(dst),
			SrcPort: srcPort,
			DstPort: dstPort,
			Proto:   6,
			Size:    size,
			Seq:     seq,
		})
		eng.After(gap, step)
	}
	eng.After(gap, step)
}

// Terasort models the Hadoop shuffle phase: every mapper repeatedly
// picks a reducer and sends it a large burst on that pair's fixed
// 5-tuple, then idles.
type Terasort struct {
	Net      *emunet.Network
	Mappers  []topology.HostID
	Reducers []topology.HostID

	// BurstPackets is the packets per shuffle segment (default 300).
	BurstPackets int
	// PacketSize defaults to 1500 bytes.
	PacketSize uint32
	// PacketGap is the mean in-burst inter-packet gap (default 1 µs);
	// each wave draws its own gap from [0.7, 1.6] of it, modelling the
	// differing disk and TCP pacing of distinct shuffle fetches.
	PacketGap sim.Duration
	// IdleMean is the mean exponential idle time between a mapper's
	// bursts (default 500 µs).
	IdleMean sim.Duration

	r       *rand.Rand
	stopped bool
	// assigned maps each mapper to its fixed partition assignment: the
	// small set of reducers it repeatedly feeds. Few, recurring,
	// long-lived transfer pairs are what make flow-based ECMP collide
	// persistently.
	assigned map[topology.HostID][]topology.HostID
}

// Name implements App.
func (t *Terasort) Name() string { return "hadoop-terasort" }

func (t *Terasort) defaults() {
	if t.BurstPackets == 0 {
		t.BurstPackets = 300
	}
	if t.PacketSize == 0 {
		t.PacketSize = 1500
	}
	if t.PacketGap == 0 {
		t.PacketGap = sim.Microsecond
	}
	if t.IdleMean == 0 {
		t.IdleMean = 500 * sim.Microsecond
	}
	if t.r == nil {
		t.r = t.Net.Engine().NewRand()
	}
}

// Start implements App.
func (t *Terasort) Start() {
	t.defaults()
	t.stopped = false
	t.assigned = make(map[topology.HostID][]topology.HostID)
	for _, m := range t.Mappers {
		// One long-lived fetch partner per mapper: the elephant-flow
		// regime where flow-based ECMP's hash collisions persist for
		// the whole job.
		t.assigned[m] = []topology.HostID{t.Reducers[t.r.Intn(len(t.Reducers))]}
	}
	for _, m := range t.Mappers {
		m := m
		t.Net.Engine().After(sim.Duration(t.r.Int63n(int64(t.IdleMean)+1)), func() {
			t.mapperLoop(m)
		})
	}
}

// Stop implements App.
func (t *Terasort) Stop() { t.stopped = true }

func (t *Terasort) mapperLoop(m topology.HostID) {
	if t.stopped {
		return
	}
	assigned := t.assigned[m]
	rd := assigned[t.r.Intn(len(assigned))]
	// Fixed 5-tuple per (mapper, reducer) pair: the shuffle fetch
	// connection. ECMP pins the whole pair to one path.
	srcPort := uint16(20000 + uint16(m)*64 + uint16(rd))
	gap := sim.Duration(float64(t.PacketGap) * (0.7 + 0.9*t.r.Float64()))
	SendFlow(t.Net, m, rd, srcPort, 13562, t.BurstPackets, t.PacketSize, gap, &t.stopped)
	burstTime := sim.Duration(t.BurstPackets) * gap
	idle := sim.Duration(t.r.ExpFloat64() * float64(t.IdleMean))
	t.Net.Engine().After(burstTime+idle, func() { t.mapperLoop(m) })
}

// PageRank models a GraphX synthetic-benchmark job: workers exchange
// bulk updates in synchronized supersteps.
type PageRank struct {
	Net     *emunet.Network
	Workers []topology.HostID

	// Interval is the superstep period (default 1 ms).
	Interval sim.Duration
	// BurstPackets per worker pair per superstep (default 60).
	BurstPackets int
	// PacketSize defaults to 1000 bytes.
	PacketSize uint32
	// PacketGap is the in-burst gap (default 1 µs).
	PacketGap sim.Duration
	// Jitter is the per-worker start offset within a superstep
	// (default 20 µs) — workers are synchronized, not atomically so.
	Jitter sim.Duration

	r       *rand.Rand
	ticker  *sim.Ticker
	stopped bool
}

// Name implements App.
func (p *PageRank) Name() string { return "graphx-pagerank" }

func (p *PageRank) defaults() {
	if p.Interval == 0 {
		p.Interval = sim.Millisecond
	}
	if p.BurstPackets == 0 {
		p.BurstPackets = 60
	}
	if p.PacketSize == 0 {
		p.PacketSize = 1000
	}
	if p.PacketGap == 0 {
		p.PacketGap = sim.Microsecond
	}
	if p.Jitter == 0 {
		p.Jitter = 20 * sim.Microsecond
	}
	if p.r == nil {
		p.r = p.Net.Engine().NewRand()
	}
}

// Start implements App.
func (p *PageRank) Start() {
	p.defaults()
	p.stopped = false
	p.ticker = p.Net.Engine().NewTicker(p.Interval, p.superstep)
}

// Stop implements App.
func (p *PageRank) Stop() {
	p.stopped = true
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

func (p *PageRank) superstep() {
	if p.stopped {
		return
	}
	for _, src := range p.Workers {
		src := src
		start := sim.Duration(p.r.Int63n(int64(p.Jitter) + 1))
		p.Net.Engine().After(start, func() {
			if p.stopped {
				return
			}
			for _, dst := range p.Workers {
				if dst == src {
					continue
				}
				srcPort := uint16(30000 + uint16(src)*64 + uint16(dst))
				// Each pair's update volume differs per iteration
				// (vertices converge at different rates), so each burst
				// draws its own pacing.
				gap := sim.Duration(float64(p.PacketGap) * (0.7 + 0.9*p.r.Float64()))
				SendFlow(p.Net, src, dst, srcPort, 7077,
					p.BurstPackets, p.PacketSize, gap, &p.stopped)
			}
		})
	}
}

// Memcache models an mc-crusher style multi-get workload: a client
// fans small requests out to every server, each on a fresh connection,
// and servers answer with small values.
type Memcache struct {
	Net     *emunet.Network
	Clients []topology.HostID
	Servers []topology.HostID

	r       *rand.Rand
	tickers []*sim.Ticker
	stopped bool
	nextSrc uint16
}

// A memcache client sends a multi-get every memcacheInterval, one
// memcacheRequest-byte request to every server (a 50-key multi-get
// spread over the cluster), each answered with memcacheResponse bytes.
const (
	memcacheInterval = 20 * sim.Microsecond
	memcacheRequest  = 100
	memcacheResponse = 500
)

// Name implements App.
func (m *Memcache) Name() string { return "memcache" }

// Start implements App.
func (m *Memcache) Start() {
	if m.r == nil {
		m.r = m.Net.Engine().NewRand()
	}
	m.stopped = false
	for _, c := range m.Clients {
		c := c
		tk := m.Net.Engine().NewTicker(memcacheInterval, func() { m.multiGet(c) })
		m.tickers = append(m.tickers, tk)
	}
}

// Stop implements App.
func (m *Memcache) Stop() {
	m.stopped = true
	for _, tk := range m.tickers {
		tk.Stop()
	}
	m.tickers = nil
}

func (m *Memcache) multiGet(client topology.HostID) {
	if m.stopped {
		return
	}
	// Every server, in random order. The per-key requests are staggered
	// across the interval rather than fired as one wave: a loaded client
	// pipelines continuously, which is what makes the resulting load
	// genuinely smooth and balanced.
	for _, si := range m.r.Perm(len(m.Servers)) {
		srv := m.Servers[si]
		m.nextSrc++
		srcPort := 40000 + m.nextSrc%20000
		stagger := sim.Duration(m.r.Int63n(int64(memcacheInterval)))
		sp := srcPort
		m.Net.Engine().After(stagger, func() {
			if m.stopped {
				return
			}
			m.Net.InjectFromHost(client, &packet.Packet{
				DstHost: uint32(srv),
				SrcPort: sp,
				DstPort: 11211,
				Proto:   6,
				Size:    memcacheRequest,
			})
		})
		// Response, after the request and a small service delay.
		m.Net.Engine().After(stagger+5*sim.Microsecond, func() {
			if m.stopped {
				return
			}
			m.Net.InjectFromHost(srv, &packet.Packet{
				DstHost: uint32(client),
				SrcPort: 11211,
				DstPort: sp,
				Proto:   6,
				Size:    memcacheResponse,
			})
		})
	}
}

// Uniform is a simple constant-rate all-to-all generator, useful as
// background traffic in tests and synchronization experiments.
type Uniform struct {
	Net   *emunet.Network
	Hosts []topology.HostID
	// Interval is the per-host send period (default 10 µs).
	Interval sim.Duration
	// PacketSize defaults to 1000 bytes.
	PacketSize uint32

	r       *rand.Rand
	tickers []*sim.Ticker
	stopped bool
	nextSrc uint16
}

// Name implements App.
func (u *Uniform) Name() string { return "uniform" }

// Start implements App.
func (u *Uniform) Start() {
	if u.Interval == 0 {
		u.Interval = 10 * sim.Microsecond
	}
	if u.PacketSize == 0 {
		u.PacketSize = 1000
	}
	if u.r == nil {
		u.r = u.Net.Engine().NewRand()
	}
	u.stopped = false
	for _, h := range u.Hosts {
		h := h
		tk := u.Net.Engine().NewTicker(u.Interval, func() {
			if u.stopped {
				return
			}
			dst := u.Hosts[u.r.Intn(len(u.Hosts))]
			if dst == h {
				return
			}
			// A fresh source port per packet: many short flows, so
			// ECMP spreads the background load over every path.
			u.nextSrc++
			u.Net.InjectFromHost(h, &packet.Packet{
				DstHost: uint32(dst),
				SrcPort: 1000 + u.nextSrc%40000,
				DstPort: 9000,
				Proto:   6,
				Size:    u.PacketSize,
			})
		})
		u.tickers = append(u.tickers, tk)
	}
}

// Stop implements App.
func (u *Uniform) Stop() {
	u.stopped = true
	for _, tk := range u.tickers {
		tk.Stop()
	}
	u.tickers = nil
}
