package emunet

import (
	"fmt"

	"speedlight/internal/packet"
)

// NewPacket returns a zeroed packet from the driver pool, for tests
// that inject from driver or global-domain context. Ownership passes to
// the network at InjectFrom*; the packet is recycled at its terminal
// point (host delivery or any drop).
func (n *Network) NewPacket() *packet.Packet { return n.dpool.Get() }

// LeakCheck verifies pooled-packet leak-freedom: after traffic stops
// and the network drains, every pooled packet — allocated by any pool of
// the network's central exchange — must be back in a free list. A
// nonzero residue means some teardown or drop path lost a packet. Driver
// context only (it reads every switch's pool), after a quiesced drain —
// packets still legitimately in flight count as leaks here.
func (n *Network) LeakCheck() error {
	free := n.central.FreeLen() + n.dpool.FreeLen()
	for _, es := range n.sws {
		free += es.ppool.FreeLen()
	}
	if live := int(n.central.Allocated()) - free; live != 0 {
		return fmt.Errorf("emunet: %d pooled packet(s) still in flight after drain", live)
	}
	return nil
}
