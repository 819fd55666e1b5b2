package wire

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// maxDatagram bounds a datagram, sent or received: under loopback's and
// Ethernet's MTU, so a train is never fragmented.
const maxDatagram = 1400

// burstCap is how many datagrams a switch takes from its socket before
// it flushes what they made it stage. It bounds how long a staged frame
// waits behind a socket that never runs dry; nothing else holds a frame.
const burstCap = 32

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

// staging is the train a switch is building for one destination socket.
type staging struct {
	addr *net.UDPAddr
	buf  []byte // capacity maxDatagram, never grown
}

// switchNode is one switch bound to a UDP socket, and the node.Host of
// that switch. A single goroutine owns the data plane and control
// plane, preserving unit linearizability; the socket provides
// per-sender FIFO on loopback.
type switchNode struct {
	sw   *node.Switch
	spec *topology.Switch
	conn *net.UDPConn
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

	channelState bool
	started      time.Time
	// pkt is the one packet data frames decode into: the step encodes
	// it into a staging buffer (or drops it) before the goroutine
	// decodes the next frame, and nothing downstream of a switch keeps
	// a packet.
	pkt packet.Packet
}

// Now returns wall time since deployment as protocol time.
func (s *switchNode) Now() sim.Time {
	return sim.Time(time.Since(s.started).Nanoseconds())
}

// run is the switch's receive loop. Each wake-up takes the socket's
// backlog — up to burstCap datagrams, read without blocking — through
// the switch, then writes out every train that made it stage. So a
// frame waits for nothing but the datagrams already queued at this
// socket: the goroutine parks only with every staging buffer empty,
// an idle network sees bursts of one datagram and trains of one frame,
// and a loaded one coalesces in proportion to its backlog.
func (s *switchNode) run(wg *sync.WaitGroup) {
	defer wg.Done()
	rc, err := s.conn.SyscallConn()
	if err != nil {
		return
	}
	buf := make([]byte, maxDatagram)
	var took int
	burst := func(fd uintptr) bool {
		for took < burstCap {
			n, err := syscall.Read(int(fd), buf)
			if err == syscall.EINTR {
				continue
			}
			if err != nil {
				break // EAGAIN: the backlog is taken
			}
			s.handle(buf[:n])
			took++
		}
		return took > 0 // false parks in the netpoller until the socket is readable
	}
	for {
		took = 0
		if rc.Read(burst) != nil {
			return // socket closed: shutdown
		}
		s.flush()
	}
}

// handle runs one datagram's frames through the switch, in order. A
// data frame allocates nothing on the way; a frame the switch cannot
// use is skipped (a real device would count and drop).
//
//speedlight:hotpath
func (s *switchNode) handle(data []byte) {
	for frame, rest := next(data); frame != nil; frame, rest = next(rest) {
		switch frame[0] {
		case msgData:
			port, err := decodeData(frame, &s.pkt)
			if err == nil && port < len(s.ports) {
				s.sw.Packet(&s.pkt, port)
			}
		case msgInitiate:
			// Every initiation floods markers in channel-state mode: UDP
			// deployments may have idle channels.
			if id, err := decodeInitiate(frame); err == nil {
				s.sw.Initiate(id, s.channelState)
			}
		case msgPoll:
			s.sw.Poll()
		}
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

// flush writes out every staged train.
//
//speedlight:hotpath
func (s *switchNode) flush() {
	for _, to := range s.outs {
		s.emit(to)
	}
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
// observer socket, and one host-sink socket.
type Deployment struct {
	cfg      Config
	switches []*switchNode // by NodeID

	// Fabric is the deployment itself: the switches the sockets feed and
	// the collector the observer socket reports to. It brings Switch,
	// Journal, Audit, Snapshots and CompletedEpochs.
	*node.Fabric
	obsConn  *net.UDPConn
	obsAddrs []*net.UDPAddr // each switch's socket, by NodeID

	sinkConn *net.UDPConn
	hostConn *net.UDPConn // source socket for host injections
	hostTo   []attachment // by HostID

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

// bind opens one loopback socket on a port of the kernel's choosing.
func bind() (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// Deploy binds all sockets on loopback and starts the node goroutines.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = 50 * time.Millisecond
	}
	d := &Deployment{cfg: cfg, started: time.Now(), closeCh: make(chan struct{})}
	var err error
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
	if err = d.build(); err != nil {
		d.Close()
		return nil, err
	}

	// Launch goroutines.
	for _, sn := range d.switches {
		d.wg.Add(1)
		go sn.run(&d.wg)
	}
	d.wg.Add(3)
	go d.runObserver()
	go d.runSink()
	go d.runRetries()
	return d, nil
}

// build makes the fabric — a bound socket under every switch — and then,
// with everything bound, resolves each port's destination socket. It
// needs the observer's and the sink's sockets and starts nothing.
func (d *Deployment) build() (err error) {
	cfg := d.cfg
	sink := &node.Sink{Journal: cfg.Journal, OnAnomaly: cfg.OnAnomaly}
	// The nil is the telemetry registry: wire.Config takes none.
	d.Fabric, err = node.NewFabric(cfg.Topo, dataplane.Config{
		MaxID:        cfg.MaxID,
		WrapAround:   cfg.WrapAround,
		ChannelState: cfg.ChannelState,
		Metrics:      cfg.Metrics,
	}, sim.Duration(cfg.RetryEvery.Nanoseconds()), sink, nil, d.attach)
	if err != nil {
		return err
	}
	d.hostTo = make([]attachment, len(cfg.Topo.Hosts))
	toHosts := d.sinkConn.LocalAddr().(*net.UDPAddr)
	for id, sn := range d.switches {
		sn.sw = d.Switch(topology.NodeID(id))
		for p, peer := range sn.spec.Ports {
			switch peer.Kind {
			case topology.PeerSwitch:
				sn.ports[p] = sn.stagingFor(d.obsAddrs[peer.Node])
			case topology.PeerHost:
				sn.ports[p] = sn.stagingFor(toHosts)
				d.hostTo[peer.Host] = attachment{d.obsAddrs[id], p}
			}
		}
	}
	return nil
}

// attach binds spec's socket (topology IDs are dense, in order) and
// returns the switch's host and its results' way to the observer.
func (d *Deployment) attach(spec *topology.Switch) (node.Host, func(control.Result), error) {
	conn, err := bind()
	if err != nil {
		return nil, nil, err
	}
	sn := &switchNode{
		channelState: d.cfg.ChannelState,
		spec:         spec,
		conn:         conn,
		ports:        make([]*staging, len(spec.Ports)),
		started:      d.started,
	}
	sn.obs = sn.stagingFor(d.obsConn.LocalAddr().(*net.UDPAddr))
	d.switches = append(d.switches, sn)
	d.obsAddrs = append(d.obsAddrs, conn.LocalAddr().(*net.UDPAddr))
	// Ship over the wire to the observer. Runs on the switch goroutine
	// (inside handle), which owns the staging.
	return sn, func(res control.Result) { sn.obs.buf = appendResult(sn.room(sn.obs), res) }, nil
}

// runObserver receives results on the observer socket.
func (d *Deployment) runObserver() {
	defer d.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.obsConn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
			if frame[0] != msgResult {
				continue
			}
			if res, err := decodeResult(frame); err == nil {
				d.Result(res, d.now())
			}
		}
	}
}

// runSink receives host deliveries.
func (d *Deployment) runSink() {
	defer d.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := d.sinkConn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if d.cfg.OnDeliver == nil {
			continue
		}
		// One allocation per train: OnDeliver may keep its packet, so
		// each delivery gets its own element. The edge strips the
		// snapshot header, so the count is exact, and it is never short:
		// no host-deliver frame is smaller than this divisor.
		pkts := make([]packet.Packet, n/(5+packet.PacketBaseLen))
		k := 0
		for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
			if frame[0] != msgHostDeliver {
				continue
			}
			if host, err := decodeHostDeliver(frame, &pkts[k]); err == nil {
				d.cfg.OnDeliver(&pkts[k], host)
				k++
			}
		}
	}
}

// runRetries drives the observer's recovery loop.
func (d *Deployment) runRetries() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.RetryEvery)
	defer t.Stop()
	scratch := make([]byte, 0, maxMsgLen) // goroutine-local encode buffer
	relay := func(dev topology.NodeID, id packet.SeqID) {
		// One train: the poll arrives behind the initiation, or both
		// are lost.
		scratch = append(appendInitiate(scratch[:0], id), pollMsg[:]...)
		d.obsConn.WriteToUDP(scratch, d.obsAddrs[dev])
	}
	for {
		select {
		case <-d.closeCh:
			return
		case <-t.C:
			d.Retries(d.now(), relay)
		}
	}
}

func (d *Deployment) now() sim.Time {
	return sim.Time(time.Since(d.started).Nanoseconds())
}

// Inject sends a packet from a host into its edge switch, over UDP.
func (d *Deployment) Inject(host topology.HostID, pkt *packet.Packet) error {
	if int(host) >= len(d.hostTo) {
		return fmt.Errorf("wire: unknown host %d", host)
	}
	dst := d.hostTo[host]
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
	id, sub, err := d.Begin(d.now())
	if err != nil {
		return 0, nil, err
	}
	msg := appendInitiate(make([]byte, 0, maxMsgLen), id)
	for _, addr := range d.obsAddrs {
		d.obsConn.WriteToUDP(msg, addr)
	}
	return id, sub, nil
}

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
