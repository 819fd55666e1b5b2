package wire

import (
	"net"
	"syscall"

	"speedlight/internal/control"
	"speedlight/internal/live"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// maxDatagram bounds a datagram, sent or received: under loopback's and
// Ethernet's MTU, so a train is never fragmented.
const maxDatagram = 1400

// freeCap bounds the free list of packets Inject has encoded and no
// longer needs, which the host sink decodes deliveries into.
const freeCap = 256

// burstCap is how many datagrams a switch takes from its socket before
// it flushes what they made it stage. It bounds how long a staged frame
// waits behind a socket that never runs dry; nothing else holds a frame.
const burstCap = 32

// Config parameterizes a UDP deployment: it is live.Config, the one
// wall-clock configuration, passed to the Runtime whole.
type Config = live.Config

// staging is the train a switch is building for one destination socket.
type staging struct {
	addr *net.UDPAddr
	buf  []byte // capacity maxDatagram, never grown
}

// switchNode is one switch bound to a UDP socket: the live.Device, and
// so the node.Host, of that switch. A single goroutine owns the data
// plane and control plane, preserving unit linearizability; the socket
// provides per-sender FIFO on loopback.
type switchNode struct {
	d    *Deployment
	sw   *node.Switch
	spec *topology.Switch
	conn *net.UDPConn
	addr *net.UDPAddr // conn's: where the switch's frames go
	// outs holds one staging buffer per socket this switch sends to,
	// resolved at deployment time: each neighbor switch's, the host
	// sink's, the observer's. Only the switch goroutine touches them
	// (results included: OnResult fires inside its handle loop), so
	// steady-state sends allocate nothing. Everything bound for one
	// socket goes through its one buffer and buffers are written out
	// whole, in order, so every channel stays FIFO.
	outs []*staging
	// ports is the staging buffer behind each egress port (a leaf's
	// host ports share the sink's; nil for an unwired port).
	ports []*staging
	obs   *staging

	// rc, read and buf are Burst's: the socket's raw connection, the
	// callback it runs (made once, so a burst allocates nothing) and the
	// datagram buffer.
	rc   syscall.RawConn
	read func(fd uintptr) bool
	buf  []byte
	// Stamp is the switch's time: taken once per datagram read (see
	// readBurst). pkt is the one packet data frames decode into: the
	// step encodes it into a staging buffer (or drops it) before the
	// goroutine decodes the next frame, and nothing downstream of a
	// switch keeps a packet. They are the only fields written after
	// Deploy, and the pad keeps them off the cache line of whatever
	// switchNode follows in memory, whose head Inject and Control read
	// from other goroutines (sharing that line cost wire_udp 4-8 % of
	// ops_per_s on a 2-CPU box).
	live.Stamp
	pkt packet.Packet
	_   [64]byte
}

// Burst takes the socket's backlog — up to burstCap datagrams, read
// without blocking — through the switch; the runtime then Flushes every
// train that made it stage. So a frame waits for nothing but the
// datagrams already queued at this socket: the goroutine parks, in the
// netpoller, only with every staging buffer empty, an idle network sees
// bursts of one datagram and trains of one frame, and a loaded one
// coalesces in proportion to its backlog. A closed socket is shutdown.
func (s *switchNode) Burst() bool {
	return s.rc.Read(s.read) == nil
}

// readBurst is the read Burst hands the raw connection; false (nothing
// read) parks until the socket is readable. Each datagram is stamped as
// it is read, not once per burst: one read late in the burst may have
// been sent after the burst began, by a sender that had stamped later.
func (s *switchNode) readBurst(fd uintptr) bool {
	took := 0
	for took < burstCap {
		n, err := syscall.Read(int(fd), s.buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			break // EAGAIN: the backlog is taken
		}
		s.Take()
		s.handle(s.buf[:n])
		took++
	}
	return took > 0
}

// handle steps one datagram's frames through the switch, in order. A
// data frame allocates nothing on the way; a frame the switch cannot
// use is skipped (a real device would count and drop).
//
//speedlight:hotpath
func (s *switchNode) handle(data []byte) {
	for frame, rest := next(data); frame != nil; frame, rest = next(rest) {
		var ev live.Event
		switch frame[0] {
		case msgData:
			port, err := decodeData(frame, &s.pkt)
			if err != nil || port >= len(s.ports) {
				continue
			}
			ev = live.Event{Kind: live.EvPacket, Pkt: &s.pkt, Port: port}
		case msgInitiate:
			// Every initiation floods markers in channel-state mode: UDP
			// deployments may have idle channels. (The runtime asks for a
			// flood on retries only; the frame does not carry the ask.)
			id, err := decodeInitiate(frame)
			if err != nil {
				continue
			}
			ev = live.Event{Kind: live.EvInitiate, ID: id, Markers: s.d.cfg.ChannelState}
		case msgPoll:
			ev.Kind = live.EvPoll
		default:
			continue
		}
		ev.Step(s.sw)
	}
}

// Forward stages an egressed packet for the wire: toward the neighbor
// switch, or the host sink.
//
//speedlight:hotpath
func (s *switchNode) Forward(port int, pkt *packet.Packet) {
	to := s.ports[port]
	switch peer := s.spec.Ports[port]; peer.Kind {
	case topology.PeerSwitch:
		// The sender encodes the neighbor's ingress port.
		to.buf = appendData(s.room(to), peer.Port, pkt)
	case topology.PeerHost:
		to.buf = appendHostDeliver(s.room(to), peer.Host, pkt)
	}
}

// room returns to's buffer with space for any one frame, writing the
// train out first if the next frame might not fit in the datagram.
//
//speedlight:hotpath
func (s *switchNode) room(to *staging) []byte {
	if len(to.buf)+maxMsgLen > maxDatagram {
		s.emit(to)
	}
	return to.buf
}

// emit writes to's train out as one datagram. A send error loses the
// train as a full socket buffer would; recovery is the protocol's.
//
//speedlight:hotpath
func (s *switchNode) emit(to *staging) {
	if len(to.buf) > 0 {
		s.conn.WriteToUDP(to.buf, to.addr)
		to.buf = to.buf[:0]
	}
}

// Flush writes out every staged train.
//
//speedlight:hotpath
func (s *switchNode) Flush() {
	for _, to := range s.outs {
		s.emit(to)
	}
}

// Control sends the switch an initiation from the observer's socket, and
// a poll behind it in the same train: both arrive, in order, or neither
// does. The frame carries no flood request (see handle).
func (s *switchNode) Control(id packet.SeqID, _, poll bool) {
	msg := appendInitiate(make([]byte, 0, 10), id)
	if poll {
		msg = append(msg, pollMsg[:]...)
	}
	s.d.obsConn.WriteToUDP(msg, s.addr)
}

// Inject sends a host's packet to port from the hosts' socket. Inject is
// public API reachable from any goroutine, so it encodes into a fresh
// buffer rather than sharing a scratch. A sent packet is the
// deployment's (live.Runtime.Inject): it goes on the free list, for the
// sink to decode a later delivery into. A caller whose send failed keeps
// its packet.
func (s *switchNode) Inject(port int, pkt *packet.Packet) error {
	if _, err := s.d.hostConn.WriteToUDP(appendData(make([]byte, 0, maxMsgLen), port, pkt), s.addr); err != nil {
		return err
	}
	s.d.recycle(pkt)
	return nil
}

// stagingFor returns the staging buffer for the socket at addr, made on
// first request: deployment-time only. Sockets are told apart by the
// one *net.UDPAddr Deploy resolves for each.
func (s *switchNode) stagingFor(addr *net.UDPAddr) *staging {
	for _, to := range s.outs {
		if to.addr == addr {
			return to
		}
	}
	to := &staging{addr: addr, buf: make([]byte, 0, maxDatagram)}
	s.outs = append(s.outs, to)
	return to
}

// Deployment is a running UDP deployment: one socket per switch, one
// observer socket, one host-sink socket, and the one the hosts send
// from.
type Deployment struct {
	// Runtime is the deployment and its goroutines: the switches the
	// sockets feed and the Fabric the observer socket reports to. It
	// brings Switch, Journal, Audit, Snapshots, CompletedEpochs, Inject
	// and the observability surface (Registry, Health, MetricsAddr).
	*live.Runtime
	cfg      Config
	switches []*switchNode // by NodeID
	// free holds packets nobody else holds any more — what Inject has
	// sent — for deliver to decode into; any goroutine may fill it.
	free chan *packet.Packet

	obsConn, sinkConn, hostConn *net.UDPConn
}

// bind opens one loopback socket on a port of the kernel's choosing.
func bind() (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// Deploy binds all sockets on loopback and starts the node goroutines,
// and the observability server when MetricsAddr is set.
func Deploy(cfg Config) (*Deployment, error) {
	d := &Deployment{cfg: cfg}
	if err := d.build(); err != nil {
		d.closeSockets()
		return nil, err
	}
	d.Start(d.runObserver, d.runSink)
	return d, nil
}

// build binds the observer's, the sink's and the hosts' sockets, makes
// the runtime — a bound socket under every switch — and then, with
// everything bound, resolves each port's destination socket. It starts
// nothing.
func (d *Deployment) build() (err error) {
	d.free = make(chan *packet.Packet, freeCap)
	for _, c := range []**net.UDPConn{&d.obsConn, &d.sinkConn, &d.hostConn} {
		if *c, err = bind(); err != nil {
			return err
		}
	}
	if d.Runtime, err = live.NewRuntime(d.cfg, d.attach); err != nil {
		return err
	}
	toHosts := d.sinkConn.LocalAddr().(*net.UDPAddr)
	for id, sn := range d.switches {
		sn.sw = d.Switch(topology.NodeID(id))
		for p, peer := range sn.spec.Ports {
			switch peer.Kind {
			case topology.PeerSwitch:
				sn.ports[p] = sn.stagingFor(d.switches[peer.Node].addr)
			case topology.PeerHost:
				sn.ports[p] = sn.stagingFor(toHosts)
			}
		}
	}
	return nil
}

// attach binds spec's socket (topology IDs are dense, in order) and
// returns the switch's device and its results' way to the observer.
func (d *Deployment) attach(spec *topology.Switch, stamp live.Stamp) (live.Device, func(control.Result), error) {
	conn, err := bind()
	if err != nil {
		return nil, nil, err
	}
	sn := &switchNode{
		Stamp: stamp,
		d:     d,
		spec:  spec,
		conn:  conn,
		addr:  conn.LocalAddr().(*net.UDPAddr),
		ports: make([]*staging, len(spec.Ports)),
		buf:   make([]byte, maxDatagram),
	}
	sn.rc, _ = conn.SyscallConn() // fails on a closed conn only
	sn.read = sn.readBurst
	sn.obs = sn.stagingFor(d.obsConn.LocalAddr().(*net.UDPAddr))
	d.switches = append(d.switches, sn)
	// Ship over the wire to the observer. Runs on the switch goroutine
	// (inside handle), which owns the staging.
	return sn, func(res control.Result) { sn.obs.buf = appendResult(sn.room(sn.obs), res) }, nil
}

// runObserver receives results on the observer socket, the results of
// one datagram at the instant it was read.
func (d *Deployment) runObserver() {
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.obsConn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		now := d.Now()
		for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
			if frame[0] != msgResult {
				continue
			}
			if res, err := decodeResult(frame); err == nil {
				d.Result(res, now)
			}
		}
	}
}

// runSink receives host deliveries.
func (d *Deployment) runSink() {
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.sinkConn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if d.cfg.OnDeliver != nil {
			d.deliver(buf[:n])
		}
	}
}

// deliver hands each host-deliver frame of one sink datagram to
// OnDeliver, decoded into a packet off the free list: the callee owns
// it, so each delivery gets its own. Only a dry list allocates; a frame
// that does not decode leaves its packet to the collector.
//
//speedlight:hotpath
func (d *Deployment) deliver(data []byte) {
	for frame, rest := next(data); frame != nil; frame, rest = next(rest) {
		if frame[0] != msgHostDeliver {
			continue
		}
		var pkt *packet.Packet
		select {
		case pkt = <-d.free:
		default:
			pkt = fresh()
		}
		if host, err := decodeHostDeliver(frame, pkt); err == nil {
			d.cfg.OnDeliver(pkt, host)
		}
	}
}

// fresh is deliver's cold path, a packet when the free list is dry:
// kept out of deliver so hotalloc can bless it.
func fresh() *packet.Packet { return new(packet.Packet) }

// recycle puts a packet nobody holds any more on the free list; a full
// list leaves it to the collector.
func (d *Deployment) recycle(pkt *packet.Packet) {
	select {
	case d.free <- pkt:
	default:
	}
}

// TakeSnapshot begins a snapshot, sends every switch its initiation, and
// returns a channel yielding the assembled global snapshot.
func (d *Deployment) TakeSnapshot() (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	return d.Runtime.TakeSnapshot(0)
}

// closeSockets closes every socket bound so far (closing a nil or closed
// one is a no-op error): what wakes each goroutine to its end.
func (d *Deployment) closeSockets() {
	d.obsConn.Close()
	d.sinkConn.Close()
	d.hostConn.Close()
	for id := range d.switches {
		d.CloseSwitch(topology.NodeID(id))
	}
}

// CloseSwitch closes one switch's socket, as when the device dies: its
// goroutine ends, whatever is sent to it is lost, and the rest of the
// deployment runs on — the observer excludes it from every snapshot it
// no longer answers.
func (d *Deployment) CloseSwitch(id topology.NodeID) { d.switches[id].conn.Close() }

// Close shuts the deployment down, waits for its goroutines and closes
// the metrics server. It is idempotent.
func (d *Deployment) Close() {
	d.closeSockets()
	d.Stop()
}
