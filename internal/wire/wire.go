package wire

import (
	"net"
	"os"
	"sync"
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

// hostQueueCap bounds the bytes of frames Inject queues for one switch
// socket: a full queue goes out as about one burst, burstCap datagrams,
// what the switch takes per wake-up. Inject waits while its queue is
// full (hostTx.put).
const hostQueueCap = burstCap * maxDatagram

// Config parameterizes a UDP deployment: it is live.Config, the one
// wall-clock configuration, passed to the Runtime whole.
type Config = live.Config

// staging is the train a sender is building for one destination socket,
// and the socket it goes out from.
type staging struct {
	conn *net.UDPConn
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
		to.buf = appendData(to.room(), peer.Port, pkt)
	case topology.PeerHost:
		to.buf = appendHostDeliver(to.room(), peer.Host, pkt)
	}
}

// room returns the buffer with space for any one frame, writing the
// train out first if the next frame might not fit in the datagram.
//
//speedlight:hotpath
func (to *staging) room() []byte {
	if len(to.buf)+maxMsgLen > maxDatagram {
		to.emit()
	}
	return to.buf
}

// emit writes the train out as one datagram. A send error loses the
// train as a full socket buffer would; recovery is the protocol's.
//
//speedlight:hotpath
func (to *staging) emit() {
	if len(to.buf) > 0 {
		to.conn.WriteToUDP(to.buf, to.addr)
		to.buf = to.buf[:0]
	}
}

// Flush writes out every staged train.
//
//speedlight:hotpath
func (s *switchNode) Flush() {
	for _, to := range s.outs {
		to.emit()
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

// Inject queues a host's packet, as the data frame its switch takes in
// at port, for the host-transmit goroutine to send (hostTx), and returns
// without a syscall. A queued packet is the deployment's
// (live.Runtime.Inject): it goes on the free list, for the sink to
// decode a later delivery into. A full queue makes Inject wait for room;
// after Close it refuses, and the caller keeps its packet.
//
//speedlight:hotpath
func (s *switchNode) Inject(port int, pkt *packet.Packet) error {
	if err := s.d.tx.put(s.spec.ID, port, pkt); err != nil {
		return err
	}
	s.d.recycle(pkt)
	return nil
}

// hostTx is the hosts' transmit path: per switch socket, a queue of the
// data frames Inject encoded and nobody has sent yet. Inject appends
// under mu; one goroutine (runHosts) swaps every queue out at once and
// writes each from the hosts' socket as trains, so a host's packets
// leave in the order they were queued. An idle host sends trains of one
// frame, the datagram a lone Inject always sent; a loaded one coalesces
// in proportion to its backlog. Nothing is sent, and no syscall made,
// under mu.
type hostTx struct {
	mu     sync.Mutex
	q      [][]byte // by NodeID; capacity hostQueueCap + maxMsgLen, never grown
	queued bool     // some queue is not empty
	closed bool     // Close has begun: nothing is queued from here on
	// changed is what runHosts parks on while nothing is queued, and an
	// Inject whose queue is full while it is. One condition serves both:
	// while a put waits, something is queued, so runHosts does not.
	changed sync.Cond
	// spare, the queues transmit took last, written out and emptied, and
	// trains, one per switch socket, are runHosts' alone.
	spare  [][]byte
	trains []*staging
}

// put appends pkt's data frame to switch id's queue, waiting while the
// queue is full, and refuses once Close has begun. It wakes runHosts
// after it unlocks.
//
//speedlight:hotpath
func (tx *hostTx) put(id topology.NodeID, port int, pkt *packet.Packet) error {
	tx.mu.Lock()
	defer tx.changed.Broadcast()
	defer tx.mu.Unlock()
	for !tx.closed && len(tx.q[id]) >= hostQueueCap {
		tx.changed.Wait()
	}
	if tx.closed {
		return net.ErrClosed
	}
	tx.q[id], tx.queued = appendData(tx.q[id], port, pkt), true
	return nil
}

// transmit waits until something is queued or Close has begun, takes
// every queue, wakes the puts waiting for room, and writes each queue
// out as trains of at most maxDatagram bytes, cut at frame boundaries.
// False means Close has begun.
//
//speedlight:hotpath
func (tx *hostTx) transmit() (open bool) {
	tx.mu.Lock()
	for !tx.queued && !tx.closed {
		tx.changed.Wait()
	}
	tx.q, tx.spare = tx.spare, tx.q
	tx.queued, open = false, !tx.closed
	tx.mu.Unlock()
	tx.changed.Broadcast()
	for id, frames := range tx.spare {
		to := tx.trains[id]
		for frame, rest := next(frames); frame != nil; frame, rest = next(rest) {
			to.buf = append(to.room(), frame...)
		}
		to.emit()
		tx.spare[id] = frames[:0]
	}
	return open
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
	to := &staging{conn: s.conn, addr: addr, buf: make([]byte, 0, maxDatagram)}
	s.outs = append(s.outs, to)
	return to
}

// Deployment is a running UDP deployment: one socket per switch, one
// observer socket, one host-sink socket, and the one the hosts send
// from, with the host-transmit queue behind it.
type Deployment struct {
	// Runtime is the deployment and its goroutines: the switches the
	// sockets feed and the Fabric the observer socket reports to. It
	// brings Switch, Journal, Audit, Snapshots, CompletedEpochs, Inject
	// and the observability surface (Registry, Health, MetricsAddr).
	*live.Runtime
	cfg      Config
	switches []*switchNode // by NodeID
	// free holds packets nobody else holds any more — what Inject has
	// encoded into a queue — for deliver to decode into; any goroutine
	// may fill it.
	free chan *packet.Packet
	tx   hostTx

	obsConn, sinkConn, hostConn *net.UDPConn
}

// testHookObserverStall runs on the observer host before each datagram
// it takes: a test seam, a no-op outside tests.
var testHookObserverStall = func() {}

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
	d.Start(d.runObserver, d.runSink, d.runHosts)
	return d, nil
}

// build binds the observer's, the sink's and the hosts' sockets, makes
// the runtime — a bound socket under every switch — and then, with
// everything bound, resolves each port's destination socket and makes
// the hosts' queue and train toward each switch. It starts nothing.
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
	d.tx.changed.L = &d.tx.mu
	for id, sn := range d.switches {
		d.tx.q = append(d.tx.q, make([]byte, 0, hostQueueCap+maxMsgLen))
		d.tx.spare = append(d.tx.spare, make([]byte, 0, hostQueueCap+maxMsgLen))
		d.tx.trains = append(d.tx.trains, &staging{conn: d.hostConn, addr: sn.addr, buf: make([]byte, 0, maxDatagram)})
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
	return sn, func(res control.Result) { sn.obs.buf = appendResult(sn.obs.room(), res) }, nil
}

// runObserver is the observer host. It takes its socket's backlog
// without blocking, as a switch does (readBurst), the results of each
// datagram at the instant it was read; once a read would block, it runs
// the recovery check (Timers), and parks with a read deadline at the
// next one. Closing the socket ends it.
func (d *Deployment) runObserver() {
	buf := make([]byte, maxDatagram)
	read := func(fd uintptr) bool {
		for {
			n, err := syscall.Read(int(fd), buf)
			if err == syscall.EINTR {
				continue
			}
			if err != nil { // EAGAIN: the backlog is taken
				d.obsConn.SetReadDeadline(d.Timers())
				return false
			}
			testHookObserverStall()
			now := d.Now()
			for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
				if res, err := decodeResult(frame); err == nil && frame[0] == msgResult {
					d.Result(res, now)
				}
			}
		}
	}
	rc, _ := d.obsConn.SyscallConn() // fails on a closed conn only
	for os.IsTimeout(rc.Read(read)) {
		d.obsConn.SetReadDeadline(d.Timers())
	}
}

// runHosts is the host-transmit goroutine: it writes out what Inject
// queues until Close.
func (d *Deployment) runHosts() {
	for d.tx.transmit() {
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
// the metrics server. It is idempotent. What the hosts queued and nobody
// sent yet is lost with the sockets.
func (d *Deployment) Close() {
	d.tx.mu.Lock()
	d.tx.closed = true
	d.tx.mu.Unlock()
	d.tx.changed.Broadcast()
	d.closeSockets()
	d.Stop()
}
