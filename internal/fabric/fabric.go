// Package fabric moves bytes between simulated devices in virtual time.
//
// A transfer is priced by the α–β model of the link class connecting the
// endpoints (topology.Link) and is subject to contention: every link
// instance is a pool of channel units (sim.Resource), transfers carve the
// message into pipeline chunks and re-acquire channels per chunk, so
// concurrent flows share bandwidth adaptively. Intra-node device pairs
// share one pool across both directions (which reproduces the measured
// bidirectional-bandwidth shortfall of Fig 3d); inter-node flows contend on
// per-node egress and ingress NIC pools.
//
// Data really moves: unless NoCopy is set, the destination buffer holds the
// source bytes when Transfer returns. With NoCopy the transfer is priced in
// full and moves nothing; callers that read the source in place afterwards
// (the CCL pipes' direct reads) check Verbatim first.
package fabric

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// castagnoli is the CRC32C polynomial table used for end-to-end payload
// integrity. CRC32C is what real NICs and NVLink offload in hardware, so
// the check itself charges no virtual time.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultChunk is the pipeline chunk size used when Opts.ChunkBytes is zero.
const DefaultChunk = 512 << 10

// Opts tunes one transfer.
type Opts struct {
	// Channels is the maximum channel units the transfer may drive.
	// Zero means 1. The link's DirChannels still caps the grant. CCL
	// backends pass their channel budget; the MPI path uses 1–2.
	Channels int
	// ChunkBytes overrides the pipeline chunk size.
	ChunkBytes int64
	// NoCopy prices the transfer in full but moves no bytes: timing-only
	// probes, and the CCL pipes, whose consumers read the source region in
	// place when the fabric delivers verbatim (see Verbatim).
	NoCopy bool
}

// LinkFault is one active degradation of a route, applied for the whole
// duration of a transfer that starts inside its window. Zero fields leave
// the corresponding parameter unchanged.
type LinkFault struct {
	// BWScale multiplies each channel's bandwidth (0 < s ≤ 1 degrades).
	BWScale float64
	// AlphaScale multiplies the link's per-message latency (> 1 degrades).
	AlphaScale float64
	// ChannelCap bounds the channels one transfer may drive.
	ChannelCap int
}

// Degrader is the link-fault hook (implemented by fault.Plan): the fabric
// consults it per transfer for an active degradation window.
type Degrader interface {
	// DegradedLink reports the degradation for a route of the given class
	// ("intra", "inter", "host") between two nodes at virtual time now.
	DegradedLink(class string, srcNode, dstNode int, now time.Duration) (LinkFault, bool)
	// DegradedNow reports whether any link degradation is active at now —
	// the aggregate signal the dispatch layer reacts to — with the
	// composed fault of all active windows.
	//
	// FailStop (declared separately below) is the sibling hook for
	// fail-stop rank crashes.
	DegradedNow(now time.Duration) (LinkFault, bool)
}

// FailStop is the fail-stop crash hook (implemented by fault.Plan with
// crash rules). The CCL layer probes OpCrash on every call from the calling
// rank so call-counted crashes advance; the watchdog and the ULFM-style
// shrink agreement in internal/core use the pure queries to attribute a
// blocked collective to a dead peer and to compute the survivor set.
type FailStop interface {
	// OpCrash reports whether rank has fail-stopped, counting this call
	// against any call-budgeted crash rule matching (backend, op, rank).
	OpCrash(backend, op string, rank int, now time.Duration) bool
	// RankDead reports whether rank is dead at now without advancing any
	// call budget.
	RankDead(rank int, now time.Duration) bool
	// DeadRanks lists every rank known dead at now, ascending.
	DeadRanks(now time.Duration) []int
}

// Corrupter is the payload-corruption hook (implemented by fault.Plan with
// corrupt rules). The fabric probes it once per data-transfer attempt —
// after the bytes land in the destination buffer — and XORs the returned
// offsets, modeling silent corruption on the wire. Retransmissions probe
// again, so a probabilistic rule can corrupt a retry independently.
type Corrupter interface {
	// CorruptTransfer returns the distinct destination offsets to flip for
	// an n-byte transfer over the route at now, or nil to leave it intact.
	CorruptTransfer(class string, srcNode, dstNode int, n int64, now time.Duration) []int64
}

// Partitioner is the network-partition hook (implemented by fault.Plan
// with partition rules). The fabric consults Severed per non-local transfer
// and control message, failing cross-cut traffic fast with ErrPartitioned —
// a partition is an absence of connectivity, so the failure consumes no
// virtual time. The membership layer in internal/core consumes the pure
// rank/time queries to fence minorities and time rejoins.
type Partitioner interface {
	// Severed reports whether a node-scoped cut separates srcNode from
	// dstNode at virtual time now.
	Severed(srcNode, dstNode int, now time.Duration) bool
	// RanksSevered reports whether a rank-scoped cut separates world ranks
	// a and b at now. The fabric routes by node and never calls this; the
	// membership layer does.
	RanksSevered(a, b int, now time.Duration) bool
	// PartitionedNow reports whether any cut is active at now — a cheap
	// guard before per-pair probes.
	PartitionedNow(now time.Duration) bool
	// PartitionedUntil reports when the cuts active at now have all
	// healed. heals == false means at least one is permanent; no active
	// cut returns (0, true).
	PartitionedUntil(now time.Duration) (until time.Duration, heals bool)
	// HasPartitions reports whether the plan carries any armed partition
	// rule, without consulting the clock.
	HasPartitions() bool
}

// ErrPartitioned is returned by TryTransfer and TryControlMsg when the
// route crosses an active network cut. Like routing errors it consumes no
// virtual time: the packets were never going to arrive, and the caller's
// recovery (abort the schedule, fence, shrink) supplies the time bound.
var ErrPartitioned = errors.New("fabric: route severed by network partition")

// Integrity configures end-to-end CRC32C verification of data transfers.
// When enabled, every non-local transfer checksums source and destination
// after the copy; a mismatch (injected by a Corrupter) triggers a
// retransmission, up to MaxRetries, after which the corrupt payload is
// delivered anyway and counted as unrecovered — erroring out mid-schedule
// would strand the peer ranks of a collective, so the policy layer above
// observes the unrecovered counter instead.
type Integrity struct {
	// Enabled turns on checksumming. Off by default: the CRC path is
	// byte-identical in virtual time when disabled.
	Enabled bool
	// MaxRetries bounds retransmissions per transfer; 0 means none
	// (detect and deliver).
	MaxRetries int
}

// Fabric prices and executes transfers over one system's links.
type Fabric struct {
	k   *sim.Kernel
	sys *topology.System

	intra    map[[2]int]*sim.Resource // unordered device-pair duplex pools
	intraDir map[[2]int]*sim.Resource // ordered device-pair direction caps
	egress   map[int]*sim.Resource    // per-node NIC egress pools
	ingress  map[int]*sim.Resource    // per-node NIC ingress pools
	hostlnk  map[int]*sim.Resource    // per-node host staging pools

	routes map[[2]int]route // memoized per (src.ID, dst.ID) device pair

	faults      any         // attached fault agent (see SetFaults)
	degrader    Degrader    // faults, when it implements Degrader
	failstop    FailStop    // faults, when it implements FailStop
	corrupter   Corrupter   // faults, when it implements Corrupter
	partitioner Partitioner // faults, when it implements Partitioner
	integrity   Integrity
	reg         *metrics.Registry
}

// SetFaults attaches a fault agent (typically a *fault.Plan) to the
// fabric — the one ambient attachment point for a simulated world. The
// fabric itself consults it for link degradation when it implements
// Degrader; the CCL layer picks it up from here (via Faults) when it
// implements ccl.Injector, and the watchdog/shrink machinery (via
// FailStop) when it models fail-stop crashes. Pass nil to detach.
func (f *Fabric) SetFaults(agent any) {
	f.faults = agent
	f.degrader, _ = agent.(Degrader)
	f.failstop, _ = agent.(FailStop)
	f.corrupter, _ = agent.(Corrupter)
	f.partitioner, _ = agent.(Partitioner)
}

// Faults returns the attached fault agent (nil when none).
func (f *Fabric) Faults() any { return f.faults }

// FailStop returns the attached fail-stop detector, or nil when the fault
// agent does not model rank crashes.
func (f *Fabric) FailStop() FailStop { return f.failstop }

// Partitioner returns the attached partition oracle, or nil when the fault
// agent does not model network partitions.
func (f *Fabric) Partitioner() Partitioner { return f.partitioner }

// SetIntegrity configures end-to-end CRC32C checking of data transfers.
func (f *Fabric) SetIntegrity(i Integrity) { f.integrity = i }

// Integrity returns the active integrity configuration.
func (f *Fabric) Integrity() Integrity { return f.integrity }

// Verbatim reports whether every transfer delivers the source bytes
// unchanged: no corrupter is attached and integrity checking is off. Only
// then may a receiver read the source in place of a NoCopy transfer's
// destination; otherwise the bytes must land (and be verified) there.
func (f *Fabric) Verbatim() bool { return f.corrupter == nil && !f.integrity.Enabled }

// SetMetrics wires a registry for fabric-level counters (degraded
// transfers). A nil registry disables them.
func (f *Fabric) SetMetrics(reg *metrics.Registry) { f.reg = reg }

// DegradedNow reports the composed active link degradation at virtual time
// now, or false when no degrader is attached or no window is active.
func (f *Fabric) DegradedNow(now time.Duration) (LinkFault, bool) {
	if f.degrader == nil {
		return LinkFault{}, false
	}
	return f.degrader.DegradedNow(now)
}

// New returns a fabric for the system.
func New(k *sim.Kernel, sys *topology.System) *Fabric {
	return &Fabric{
		k: k, sys: sys,
		intra:    make(map[[2]int]*sim.Resource),
		intraDir: make(map[[2]int]*sim.Resource),
		egress:   make(map[int]*sim.Resource),
		ingress:  make(map[int]*sim.Resource),
		hostlnk:  make(map[int]*sim.Resource),
		routes:   make(map[[2]int]route),
	}
}

// System returns the topology the fabric runs over.
func (f *Fabric) System() *topology.System { return f.sys }

// Kernel returns the simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

func (f *Fabric) intraPool(a, b int) *sim.Resource {
	key := [2]int{a, b}
	if a > b {
		key = [2]int{b, a}
	}
	r, ok := f.intra[key]
	if !ok {
		r = sim.NewResource(f.k, f.sys.Intra.TotalChannels)
		f.intra[key] = r
	}
	return r
}

// intraDirPool caps one direction of a device pair at DirChannels, so
// concurrent same-direction flows cannot exceed the direction's peak even
// though the shared duplex pool is larger.
func (f *Fabric) intraDirPool(a, b int) *sim.Resource {
	key := [2]int{a, b}
	r, ok := f.intraDir[key]
	if !ok {
		r = sim.NewResource(f.k, f.sys.Intra.DirChannels)
		f.intraDir[key] = r
	}
	return r
}

func (f *Fabric) nodePool(m map[int]*sim.Resource, node int, link topology.Link) *sim.Resource {
	r, ok := m[node]
	if !ok {
		r = sim.NewResource(f.k, link.TotalChannels)
		m[node] = r
	}
	return r
}

// route describes the link class and contention pools for one transfer.
type route struct {
	link    topology.Link
	pools   []*sim.Resource // acquired in order per chunk
	local   bool            // same-device copy
	device  *device.Device  // for local copies
	class   string          // "intra", "inter", "host" (empty for local)
	srcNode int
	dstNode int
}

// route resolves the link class and contention pools for a device pair,
// memoized per (src.ID, dst.ID): transfers re-price every pipeline chunk on
// every hop, so the pool lookups and slice build must not recur per call.
func (f *Fabric) route(src, dst *device.Device) (route, error) {
	if src == nil || dst == nil {
		return route{}, fmt.Errorf("fabric: transfer endpoint has no device (use node host buffers, not detached ones)")
	}
	key := [2]int{src.ID, dst.ID}
	if r, ok := f.routes[key]; ok {
		return r, nil
	}
	r, err := f.buildRoute(src, dst)
	if err == nil {
		f.routes[key] = r
	}
	return r, err
}

func (f *Fabric) buildRoute(src, dst *device.Device) (route, error) {
	if src == dst {
		return route{local: true, device: src}, nil
	}
	if src.Node != dst.Node {
		l := f.sys.Inter
		return route{link: l, class: "inter", srcNode: src.Node, dstNode: dst.Node,
			pools: []*sim.Resource{
				f.nodePool(f.egress, src.Node, l),
				f.nodePool(f.ingress, dst.Node, l),
			}}, nil
	}
	if src.Kind == device.Host || dst.Kind == device.Host {
		l := f.sys.HostLink
		return route{link: l, class: "host", srcNode: src.Node, dstNode: dst.Node,
			pools: []*sim.Resource{f.nodePool(f.hostlnk, src.Node, l)}}, nil
	}
	return route{link: f.sys.Intra, class: "intra", srcNode: src.Node, dstNode: dst.Node,
		pools: []*sim.Resource{
			f.intraDirPool(src.ID, dst.ID),
			f.intraPool(src.ID, dst.ID),
		}}, nil
}

// degradedFor reports the active fault on a route at now, counting the
// degraded transfer when one applies.
func (f *Fabric) degradedFor(r route, now time.Duration) (LinkFault, bool) {
	if f.degrader == nil || r.local {
		return LinkFault{}, false
	}
	lf, ok := f.degrader.DegradedLink(r.class, r.srcNode, r.dstNode, now)
	if !ok {
		return LinkFault{}, false
	}
	f.reg.Counter("xccl_degraded_transfers_total",
		"Transfers executed over a degraded link, by link class.",
		metrics.Labels{"link": r.class}).Inc()
	return lf, true
}

// Latency reports the uncontended α of the path between two devices.
func (f *Fabric) Latency(src, dst *device.Device) time.Duration {
	r, err := f.route(src, dst)
	if err != nil || r.local {
		return 0
	}
	return r.link.Alpha
}

// Transfer moves n bytes from src to dst, blocking p for the priced time,
// and returns the elapsed virtual duration. It is the Must-variant of
// TryTransfer: endpoints without a route (detached host buffers, foreign
// devices) are caller bugs and panic. Code that can legitimately hit a
// routing failure — e.g. under an injected topology fault — should call
// TryTransfer and handle the error.
func (f *Fabric) Transfer(p *sim.Proc, dst, src *device.Buffer, n int64, o Opts) time.Duration {
	d, err := f.TryTransfer(p, dst, src, n, o)
	if err != nil {
		panic(err)
	}
	return d
}

// TryTransfer moves n bytes from src to dst, blocking p for the priced
// time, and returns the elapsed virtual duration. It returns an error
// (consuming no virtual time) when the endpoints have no route or the
// length is out of bounds. Any active link-degradation window (SetFaults)
// scales the route's α and per-channel bandwidth and caps the channel
// grant for the whole transfer, as observed at its start time.
func (f *Fabric) TryTransfer(p *sim.Proc, dst, src *device.Buffer, n int64, o Opts) (time.Duration, error) {
	if n < 0 || n > src.Len() || n > dst.Len() {
		return 0, fmt.Errorf("fabric: transfer of %d bytes between %d-byte src and %d-byte dst", n, src.Len(), dst.Len())
	}
	start := p.Now()
	r, err := f.route(src.Device(), dst.Device())
	if err != nil {
		return 0, err
	}
	if r.local {
		p.Sleep(r.device.CopyTime(n))
		if !o.NoCopy {
			dst.CopyFrom(src)
		}
		return p.Now() - start, nil
	}
	if f.partitioner != nil && f.partitioner.Severed(r.srcNode, r.dstNode, start) {
		return 0, ErrPartitioned
	}
	alpha := r.link.Alpha
	bw := r.link.ChannelBW
	maxCh := r.link.DirChannels
	if lf, ok := f.degradedFor(r, start); ok {
		if lf.AlphaScale > 0 {
			alpha = time.Duration(float64(alpha) * lf.AlphaScale)
		}
		if lf.BWScale > 0 {
			bw *= lf.BWScale
		}
		if lf.ChannelCap > 0 && lf.ChannelCap < maxCh {
			maxCh = lf.ChannelCap
		}
	}
	want := o.Channels
	if want < 1 {
		want = 1
	}
	if want > maxCh {
		want = maxCh
	}
	chunk := o.ChunkBytes
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	// xfer pays one full wire attempt: the α, the chunked pipeline, and the
	// byte copy. Retransmissions (integrity retries) replay it under the
	// degradation snapshot taken at the transfer's start.
	xfer := func() {
		p.Sleep(alpha)
		for off := int64(0); off < n || (n == 0 && off == 0); off += chunk {
			sz := chunk
			if off+sz > n {
				sz = n - off
			}
			if sz <= 0 {
				break
			}
			// Acquire adaptively through every pool in order; if a later pool
			// grants less, return the surplus to the earlier ones. This lets
			// opposing flows converge to a fair split of a shared duplex pool
			// instead of alternating full-width.
			granted := r.pools[0].AcquireUpTo(p, want)
			for _, pool := range r.pools[1:] {
				g := pool.AcquireUpTo(p, granted)
				if g < granted {
					for _, prev := range r.pools {
						if prev == pool {
							break
						}
						prev.Release(granted - g)
					}
					granted = g
				}
			}
			p.Sleep(time.Duration(float64(sz) / (float64(granted) * bw) * float64(time.Second)))
			for _, pool := range r.pools {
				pool.Release(granted)
			}
		}
		if !o.NoCopy && n > 0 {
			copy(dst.Bytes()[:n], src.Bytes()[:n])
		}
	}
	xfer()
	if o.NoCopy || n == 0 || (f.corrupter == nil && !f.integrity.Enabled) {
		return p.Now() - start, nil
	}
	for attempt := 0; ; attempt++ {
		if f.corrupter != nil {
			if offs := f.corrupter.CorruptTransfer(r.class, r.srcNode, r.dstNode, n, p.Now()); len(offs) > 0 {
				b := dst.Bytes()
				for _, off := range offs {
					if off >= 0 && off < n {
						b[off] ^= 0xff
					}
				}
				f.reg.Counter("xccl_corruptions_injected_total",
					"Transfers whose payload was corrupted on the wire, by link class.",
					metrics.Labels{"link": r.class}).Inc()
			}
		}
		if !f.integrity.Enabled {
			break
		}
		// CRC32C of source vs destination; NIC-offloaded, so no virtual time.
		if crc32.Checksum(src.Bytes()[:n], castagnoli) == crc32.Checksum(dst.Bytes()[:n], castagnoli) {
			break
		}
		f.reg.Counter("xccl_corruptions_detected_total",
			"Transfers whose CRC32C check caught a payload mismatch, by link class.",
			metrics.Labels{"link": r.class}).Inc()
		if attempt >= f.integrity.MaxRetries {
			// Out of retransmit budget: deliver the corrupt payload rather
			// than strand the collective's peer ranks, and let the policy
			// layer observe the unrecovered counter.
			f.reg.Counter("xccl_corruptions_unrecovered_total",
				"Transfers delivered corrupt after exhausting the retransmit budget, by link class.",
				metrics.Labels{"link": r.class}).Inc()
			break
		}
		f.reg.Counter("xccl_transfer_retransmits_total",
			"Retransmissions triggered by CRC32C mismatches, by link class.",
			metrics.Labels{"link": r.class}).Inc()
		xfer()
	}
	return p.Now() - start, nil
}

// ControlMsg charges the α of one small control message (e.g. an MPI
// rendezvous RTS/CTS envelope) between two devices' owning endpoints. It
// is the Must-variant of TryControlMsg and panics on a routing failure.
func (f *Fabric) ControlMsg(p *sim.Proc, src, dst *device.Device) time.Duration {
	d, err := f.TryControlMsg(p, src, dst)
	if err != nil {
		panic(err)
	}
	return d
}

// TryControlMsg charges the α of one control message, returning an error
// when the endpoints have no route. Active degradation windows scale the
// α like they do for TryTransfer.
func (f *Fabric) TryControlMsg(p *sim.Proc, src, dst *device.Device) (time.Duration, error) {
	r, err := f.route(src, dst)
	if err != nil {
		return 0, err
	}
	if r.local {
		return 0, nil
	}
	if f.partitioner != nil && f.partitioner.Severed(r.srcNode, r.dstNode, p.Now()) {
		return 0, ErrPartitioned
	}
	alpha := r.link.Alpha
	if lf, ok := f.degradedFor(r, p.Now()); ok && lf.AlphaScale > 0 {
		alpha = time.Duration(float64(alpha) * lf.AlphaScale)
	}
	p.Sleep(alpha)
	return alpha, nil
}
