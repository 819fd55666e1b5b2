package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// maxDatagram bounds received message size.
const maxDatagram = 512

// Config parameterizes a UDP deployment.
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology

	// Snapshot protocol parameters (defaults: MaxID 256, wraparound on,
	// channel state off).
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// Metrics builds each unit's snapshot target; nil defaults to
	// packet counters.
	Metrics func(id dataplane.UnitID) core.Metric

	// RetryEvery drives the observer's recovery loop. Default 50 ms.
	RetryEvery time.Duration

	// OnDeliver observes packets delivered to hosts. Called from the
	// deployment's host-sink goroutine.
	OnDeliver func(pkt *packet.Packet, host topology.HostID)

	// Journal, when set, records every protocol event into per-switch
	// flight-recorder rings. The rings are lock-free and safe for the
	// deployment's concurrent goroutines. Nil disables journaling.
	Journal *journal.Set
	// OnAnomaly receives a flight-recorder dump (the last 512 journal
	// events) whenever a snapshot finalizes inconsistent or with
	// excluded devices. Called with the collector's lock held; must not
	// call back into the deployment.
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)
}

// switchNode is one switch bound to a UDP socket, and the node.Host of
// that switch. A single goroutine owns the data plane and control
// plane, preserving unit linearizability; the socket provides
// per-sender FIFO on loopback.
type switchNode struct {
	sw   *node.Switch
	spec *topology.Switch
	conn *net.UDPConn
	// addrs is the socket behind each egress port, resolved at
	// deployment time: the neighbor switch's, the host sink's for a
	// host port, nil for an unwired one.
	addrs []*net.UDPAddr
	obs   *net.UDPAddr

	channelState bool
	started      time.Time
	// scratch is the node's reusable encode buffer. The switch
	// goroutine is the only sender on this connection (results
	// included: OnResult fires inside its handle loop), and every
	// encoded frame is written out before the next encode, so one
	// buffer per node suffices and steady-state sends allocate nothing.
	scratch []byte
	// pkt is the one packet data frames decode into: the step encodes
	// and sends it (or drops it) before the goroutine reads the next
	// datagram, and nothing downstream of a switch keeps a packet.
	pkt packet.Packet
}

// Now returns wall time since deployment as protocol time.
func (s *switchNode) Now() sim.Time {
	return sim.Time(time.Since(s.started).Nanoseconds())
}

// run is the switch's receive loop.
func (s *switchNode) run(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed: shutdown
		}
		s.handle(buf[:n])
	}
}

// handle runs one datagram through the switch. A data frame allocates
// nothing on the way.
//
//speedlight:hotpath
func (s *switchNode) handle(data []byte) {
	typ, err := msgTypeOf(data)
	if err != nil {
		return // garbage datagram; a real device would count and drop
	}
	switch typ {
	case msgData:
		port, err := decodeData(data, &s.pkt)
		if err != nil || port >= len(s.addrs) {
			return
		}
		s.sw.Packet(&s.pkt, port)
	case msgInitiate:
		id, err := decodeInitiate(data)
		if err != nil {
			return
		}
		// Every initiation floods markers in channel-state mode: UDP
		// deployments may have idle channels.
		s.sw.Initiate(id, s.channelState)
	case msgPoll:
		s.sw.Poll()
	}
}

// Forward sends an egressed packet over the wire: to the neighbor
// switch, or to the host sink.
//
//speedlight:hotpath
func (s *switchNode) Forward(port int, pkt *packet.Packet) {
	switch peer := s.spec.Ports[port]; peer.Kind {
	case topology.PeerSwitch:
		// The sender encodes the neighbor's ingress port.
		s.scratch = appendData(s.scratch[:0], peer.Port, pkt)
	case topology.PeerHost:
		s.scratch = appendHostDeliver(s.scratch[:0], peer.Host, pkt)
	default:
		return
	}
	s.conn.WriteToUDP(s.scratch, s.addrs[port])
}

// Deployment is a running UDP deployment: one socket per switch, one
// observer socket, and one host-sink socket.
type Deployment struct {
	cfg      Config
	topo     *topology.Topology
	switches map[topology.NodeID]*switchNode

	col      *node.Collector
	obsConn  *net.UDPConn
	obsAddrs map[topology.NodeID]*net.UDPAddr

	sinkConn *net.UDPConn
	hostConn *net.UDPConn // source socket for host injections
	hostTo   map[topology.HostID]attachment

	started time.Time
	wg      sync.WaitGroup
	stopped sync.Once
	closeCh chan struct{}
}

// attachment is where a host plugs in: its edge switch's socket and the
// ingress port there.
type attachment struct {
	addr *net.UDPAddr
	port int
}

// Deploy binds all sockets on loopback and starts the node goroutines.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("wire: nil topology")
	}
	if cfg.MaxID == 0 {
		cfg.MaxID = 256
	}
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = 50 * time.Millisecond
	}
	fibs, err := routing.ComputeFIBs(cfg.Topo)
	if err != nil {
		return nil, err
	}
	utilized := routing.UtilizedPairs(cfg.Topo, fibs)

	d := &Deployment{
		cfg:      cfg,
		topo:     cfg.Topo,
		switches: make(map[topology.NodeID]*switchNode),
		obsAddrs: make(map[topology.NodeID]*net.UDPAddr),
		hostTo:   make(map[topology.HostID]attachment),
		started:  time.Now(),
		closeCh:  make(chan struct{}),
	}

	bind := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	if d.obsConn, err = bind(); err != nil {
		return nil, err
	}
	if d.sinkConn, err = bind(); err != nil {
		d.obsConn.Close()
		return nil, err
	}
	if d.hostConn, err = bind(); err != nil {
		d.obsConn.Close()
		d.sinkConn.Close()
		return nil, err
	}

	if cfg.Journal != nil {
		cfg.Journal.Observer().Append(journal.Config(uint64(cfg.MaxID), cfg.WrapAround, cfg.ChannelState))
	}
	d.col, err = node.NewCollector(observer.Config{
		MaxID:      cfg.MaxID,
		WrapAround: cfg.WrapAround,
		RetryAfter: sim.Duration(cfg.RetryEvery.Nanoseconds()),
		Journal:    cfg.Journal.Observer(),
	}, &node.Sink{Journal: cfg.Journal, OnAnomaly: cfg.OnAnomaly})
	if err != nil {
		d.closeSockets()
		return nil, err
	}

	// Build and bind every switch.
	for _, spec := range cfg.Topo.Switches {
		sn, err := d.buildSwitch(spec, fibs[spec.ID], utilized[spec.ID])
		if err != nil {
			d.Close()
			return nil, err
		}
		d.switches[spec.ID] = sn
		d.obsAddrs[spec.ID] = sn.conn.LocalAddr().(*net.UDPAddr)
		d.col.Register(sn.sw)
	}
	// Resolve neighbor addresses now that everything is bound.
	for _, spec := range cfg.Topo.Switches {
		sn := d.switches[spec.ID]
		for p, peer := range spec.Ports {
			switch peer.Kind {
			case topology.PeerSwitch:
				sn.addrs[p] = d.obsAddrs[peer.Node]
			case topology.PeerHost:
				sn.addrs[p] = d.sinkConn.LocalAddr().(*net.UDPAddr)
				d.hostTo[peer.Host] = attachment{d.obsAddrs[spec.ID], p}
			}
		}
	}

	// Launch goroutines.
	for _, sn := range d.switches {
		d.wg.Add(1)
		go sn.run(&d.wg)
	}
	d.wg.Add(2)
	go d.runObserver()
	go d.runSink()
	d.wg.Add(1)
	go d.runRetries()
	return d, nil
}

func (d *Deployment) buildSwitch(spec *topology.Switch, fib *routing.FIB, utilized map[[2]int]bool) (*switchNode, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	sn := &switchNode{
		channelState: d.cfg.ChannelState,
		spec:         spec,
		conn:         conn,
		addrs:        make([]*net.UDPAddr, len(spec.Ports)),
		obs:          d.obsConn.LocalAddr().(*net.UDPAddr),
		started:      d.started,
		scratch:      make([]byte, 0, maxMsgLen),
	}
	sn.sw, err = node.New(node.Config{
		Spec: spec,
		DP: dataplane.Config{
			MaxID:        d.cfg.MaxID,
			WrapAround:   d.cfg.WrapAround,
			ChannelState: d.cfg.ChannelState,
			Metrics:      d.cfg.Metrics,
			FIB:          fib,
			Journal:      d.cfg.Journal.For(int(spec.ID)),
		},
		Utilized: utilized,
		OnResult: func(res control.Result) {
			// Ship over the wire to the observer. Runs on the switch
			// goroutine (inside handle), so the scratch is free.
			sn.scratch = appendResult(sn.scratch[:0], res)
			sn.conn.WriteToUDP(sn.scratch, sn.obs)
		},
	}, sn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return sn, nil
}

// runObserver receives results on the observer socket.
func (d *Deployment) runObserver() {
	defer d.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.obsConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		typ, err := msgTypeOf(buf[:n])
		if err != nil || typ != msgResult {
			continue
		}
		res, err := decodeResult(buf[:n])
		if err != nil {
			continue
		}
		d.col.Result(res, d.now())
	}
}

// runSink receives host deliveries.
func (d *Deployment) runSink() {
	defer d.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.sinkConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		typ, err := msgTypeOf(buf[:n])
		if err != nil || typ != msgHostDeliver {
			continue
		}
		host, pkt, err := decodeHostDeliver(buf[:n])
		if err != nil {
			continue
		}
		if d.cfg.OnDeliver != nil {
			d.cfg.OnDeliver(pkt, host)
		}
	}
}

// runRetries drives the observer's recovery loop.
func (d *Deployment) runRetries() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.RetryEvery)
	defer t.Stop()
	scratch := make([]byte, 0, maxMsgLen) // goroutine-local encode buffer
	for {
		select {
		case <-d.closeCh:
			return
		case <-t.C:
			for _, act := range d.col.Timeouts(d.now()) {
				for _, dev := range act.Retry {
					addr := d.obsAddrs[dev]
					scratch = appendInitiate(scratch[:0], act.SnapshotID)
					d.obsConn.WriteToUDP(scratch, addr)
					d.obsConn.WriteToUDP(pollMsg[:], addr)
				}
			}
		}
	}
}

func (d *Deployment) now() sim.Time {
	return sim.Time(time.Since(d.started).Nanoseconds())
}

// Inject sends a packet from a host into its edge switch, over UDP.
func (d *Deployment) Inject(host topology.HostID, pkt *packet.Packet) error {
	dst, ok := d.hostTo[host]
	if !ok {
		return fmt.Errorf("wire: unknown host %d", host)
	}
	pkt.SrcHost = uint32(host)
	// Inject is public API reachable from any goroutine, so it encodes
	// into a fresh buffer rather than sharing a scratch.
	data := appendData(make([]byte, 0, maxMsgLen), dst.port, pkt)
	_, err := d.hostConn.WriteToUDP(data, dst.addr)
	return err
}

// TakeSnapshot begins a snapshot, broadcasts initiations over UDP, and
// returns a channel yielding the assembled global snapshot.
func (d *Deployment) TakeSnapshot() (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	id, sub, err := d.col.Begin(d.now())
	if err != nil {
		return 0, nil, err
	}
	msg := appendInitiate(make([]byte, 0, maxMsgLen), id)
	for _, addr := range d.obsAddrs {
		d.obsConn.WriteToUDP(msg, addr)
	}
	return id, sub, nil
}

// Switch returns one switch, for inspection: its goroutine owns
// everything about it that changes after Deploy.
func (d *Deployment) Switch(id topology.NodeID) *node.Switch { return d.switches[id].sw }

// Journal returns the flight-recorder set, or nil when journaling is
// disabled.
func (d *Deployment) Journal() *journal.Set { return d.cfg.Journal }

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Nil when journaling is disabled.
func (d *Deployment) Audit() *audit.Report {
	return audit.Replay(d.cfg.Journal, d.cfg.MaxID, d.cfg.WrapAround, d.cfg.ChannelState)
}

// Snapshots returns the snapshots completed so far.
func (d *Deployment) Snapshots() []*observer.GlobalSnapshot { return d.col.Snapshots() }

func (d *Deployment) closeSockets() {
	d.obsConn.Close()
	d.sinkConn.Close()
	d.hostConn.Close()
	for _, sn := range d.switches {
		sn.conn.Close()
	}
}

// Close shuts the deployment down and waits for its goroutines.
func (d *Deployment) Close() {
	d.stopped.Do(func() {
		close(d.closeCh)
		d.closeSockets()
	})
	d.wg.Wait()
}
