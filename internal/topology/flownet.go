package topology

import (
	"fmt"
	"math"
	"math/bits"

	"mapsched/internal/obs"
	"mapsched/internal/sim"
)

// LinkID identifies a directed link in a FlowNet.
type LinkID int

// flowKind distinguishes how a Flow completes.
type flowKind uint8

const (
	flowNet   flowKind = iota // attached to links, max-min shared
	flowZero                  // zero-byte transfer: completes next event cycle
	flowLocal                 // same-node disk read: fixed rate, no links
)

// Flow is a data transfer in progress. Exposed so callers can cancel
// persistent background flows; regular transfers complete on their own.
//
// Flow objects are pooled — see FlowNet.Release and maybeRecycle.
type Flow struct {
	id         int64    // creation order; makes event scheduling deterministic
	links      []LinkID // owned copy of the path; storage reused across lives
	total      float64  // original size in bytes
	remaining  float64  // bytes left; NaN-free, >= 0
	rate       float64  // max-min share as of the last commit, bytes/second
	lastUpdate sim.Time
	done       func()
	doneEv     sim.Event // embedded completion event, rescheduled in place
	finishFn   func()    // bound once per object; survives pool reuse
	net        *FlowNet
	kind       flowKind
	persistent bool
	finished   bool

	// Pool/emission state.
	inLive       bool // referenced by liveList (tombstoned until compacted)
	released     bool // owner dropped its reference; recycle when safe
	pendingStart bool // flow_start emission deferred to the next flush

	slots  []int   // position of this flow in each path link's flow list
	next   float64 // scratch rate assigned by the current filling pass
	frozen bool    // scratch flag for progressive filling

	// Node endpoints for observability; -1 when the caller did not tag
	// the flow.
	src, dst NodeID
}

// Finished reports whether the flow has completed or been cancelled.
func (f *Flow) Finished() bool { return f.finished }

// link carries its active flows as a slice (swap-remove via Flow.slots):
// enumeration is the recompute hot loop, and slice iteration is several
// times cheaper than ranging a map. Order within the slice is arbitrary
// but immaterial — every consumer either sorts or commutes exactly.
type link struct {
	capacity float64 //lint:epoch-guarded rate shares derive from it; see FlowNet.epoch
	flows    []*Flow
	// share is the rate a new flow would get here, capacity/(f+1) for its
	// f flows: the link's term in a path transmission rate (Section
	// II-B-3). refreshShare rewrites it wherever the flow count or the
	// capacity changes, always beside an epoch bump, so it is
	// exact mid-event and constant between epochs. Capacities are finite
	// and non-negative, so every share is too.
	share float64
}

// FlowNet is a flow-level network simulator: each active flow receives a
// max-min fair share of the capacity of every directed link on its path.
//
// Churn (flow start, finish, cancel or capacity change) updates
// link occupancy, the stored per-link prospective shares and the epoch
// at once, so occupancy-only reads (Cluster.PathRate, UpRate, InRate)
// are exact mid-event. The
// shares themselves are solved once per churning event, in Flush — the
// engine's commit hook, which runs before the clock can move — as a pure
// function of the live-flow set: one progressive fill over every live
// flow in creation order and every loaded link in ascending order. The
// fill is warm-started: it replays the rounds of the previous fill that
// no link churned since could have changed, and scans for bottlenecks
// only from the first round that could differ, so its result is the cold
// fill's bit for bit. The same pass reschedules the completion of every
// flow whose share moved; the event's flow_start emissions follow it. A
// share change emits nothing: the flow_start, flow_finish and link events
// already determine every share.
type FlowNet struct {
	eng   *sim.Engine
	links []link
	// liveList holds in-flight flows in creation-id order (ids are issued
	// monotonically and flows are appended at start), so progressive
	// filling never has to sort it; finished flows are tombstoned and
	// compacted lazily. liveCount is the exact number of live entries.
	liveList  []*Flow
	liveCount int

	// epoch counts churn: any quantity derived from link occupancy and
	// capacity (the stored link shares, hence PathRate) is constant
	// between epochs, which lets higher layers cache derived costs with
	// exact invalidation. Every churn also leaves the shares dirty until the
	// next Flush re-solves them.
	epoch  uint64
	dirty  bool
	passes int64 // solver passes

	// Flows whose flow_start emission is deferred until their first share
	// is known.
	pendingStarts []*Flow

	// freeFlows recycles Flow objects. A flow is recycled only once it is
	// finished, its owner has Released it, no liveList tombstone remains,
	// its completion event is off the queue, and no deferred flow_start
	// emission mentions it — so a stale pointer can never observe or
	// cancel another transfer's state.
	freeFlows []*Flow

	// Reusable scratch state, sized to len(links).
	remCap   []float64
	cnt      []int
	linksBuf []int

	// loaded has bit l set while link l carries a flow; fill seeds its
	// bottleneck scan from the set bits, in ascending order.
	loaded []uint64

	// The warm start (see fill). roundLink and roundShare log the
	// bottleneck link and share of each round of the last fill; churned
	// (a bitmap) and churnList hold the links whose flow set or capacity
	// changed since that fill. replayed and scanned count the fill rounds
	// taken from the log and found by a scan.
	roundLink         []int
	roundShare        []float64
	churned           []uint64
	churnList         []int
	replayed, scanned int64

	// stats
	started   int64
	completed int64
	bytesDone float64

	// obs receives flow_start / flow_finish events when a sink is
	// attached; a nil stream costs one comparison per churn.
	obs *obs.Stream

	// infoChunk and linkChunk are the unused tails of the blocks flow-event
	// payloads are carved from: one allocation per flowInfoChunk events
	// instead of one or two per event. A carved FlowInfo or Links slice is
	// never handed out again, so an observer may retain events for ever.
	infoChunk []obs.FlowInfo
	linkChunk []int
}

// Flow-event payload block sizes, in FlowInfo values and link IDs.
const (
	flowInfoChunk = 128
	flowLinkChunk = 512
)

// NewFlowNet returns an empty network bound to eng. The share solve and
// emission batches ride eng's commit hook, firing at the end of each
// dispatched event.
func NewFlowNet(eng *sim.Engine) *FlowNet {
	n := &FlowNet{eng: eng}
	eng.AddCommitHook(n.Flush)
	return n
}

// SetStream attaches the observability stream flow events are emitted
// on. A nil stream (the default) disables emission entirely.
func (n *FlowNet) SetStream(st *obs.Stream) { n.obs = st }

// flowEvent builds the observation for f. links are included only on
// flow_start (they never change afterwards). The payload is carved from
// the network's chunks; each Links slice is capped at its length, so an
// observer's append copies instead of writing into a neighbour's links.
func (n *FlowNet) flowEvent(t obs.Type, f *Flow, withLinks bool, reason string) obs.Event {
	if len(n.infoChunk) == 0 {
		n.infoChunk = make([]obs.FlowInfo, flowInfoChunk)
	}
	info := &n.infoChunk[0]
	n.infoChunk = n.infoChunk[1:]
	*info = obs.FlowInfo{
		ID:         f.id,
		Src:        int(f.src),
		Dst:        int(f.dst),
		Bytes:      f.total,
		Rate:       f.rate,
		Persistent: f.persistent,
	}
	if withLinks {
		k := len(f.links)
		if len(n.linkChunk) < k {
			n.linkChunk = make([]int, max(flowLinkChunk, k))
		}
		links := n.linkChunk[:k:k]
		n.linkChunk = n.linkChunk[k:]
		for i, l := range f.links {
			links[i] = int(l)
		}
		info.Links = links
	}
	return obs.Event{
		T:      float64(n.eng.Now()),
		Type:   t,
		Node:   int(f.dst),
		Reason: reason,
		Flow:   info,
	}
}

// Epoch returns the churn counter. Between equal epochs no link occupancy
// or capacity has changed, so path-rate observations are guaranteed
// stable; flow shares settle at the commit following each bump.
func (n *FlowNet) Epoch() uint64 { return n.epoch }

// FullRecomputes returns the number of solver passes: at most one per
// committed event that churned.
func (n *FlowNet) FullRecomputes() int64 { return n.passes }

// IncrementalRecomputes is always 0: every solve yields every live flow's
// share, counted by FullRecomputes, even when it replays rounds of the
// previous solve. It remains for callers that report solver counters.
func (n *FlowNet) IncrementalRecomputes() int64 { return 0 }

// AddLink creates a directed link with the given finite, positive
// capacity (bytes/second).
func (n *FlowNet) AddLink(capacity float64) LinkID {
	if !(capacity > 0 && capacity <= math.MaxFloat64) {
		panic(fmt.Sprintf("topology: link capacity %v must be finite and positive", capacity))
	}
	n.links = append(n.links, link{capacity: capacity})
	n.remCap = append(n.remCap, 0)
	n.cnt = append(n.cnt, 0)
	l := LinkID(len(n.links) - 1)
	if int(l)>>6 == len(n.loaded) {
		n.loaded = append(n.loaded, 0)
		n.churned = append(n.churned, 0)
	}
	// A new link carries no flow, so no logged round depends on it: it is
	// not churned.
	n.refreshShare(l)
	return l
}

// SetLinkCapacity replaces a link's capacity (bytes/second) and re-shares
// every flow, bumping the epoch so cost caches invalidate. Unlike AddLink,
// zero is allowed: flows crossing a zero-capacity link stall at rate zero
// (their completion events are parked) until capacity is restored, which
// models a severed link without detaching its flows. Negative, -0 and NaN
// values clamp to zero and +Inf to math.MaxFloat64, keeping every share
// finite and non-negative; setting the current capacity again is a no-op.
func (n *FlowNet) SetLinkCapacity(l LinkID, capacity float64) {
	if !(capacity > 0) {
		capacity = 0
	} else if capacity > math.MaxFloat64 {
		capacity = math.MaxFloat64
	}
	if n.links[l].capacity == capacity {
		return
	}
	n.links[l].capacity = capacity
	n.touch(l)
	n.mark()
}

// refreshShare recomputes link l's stored prospective share from its
// current flow count and capacity.
func (n *FlowNet) refreshShare(l LinkID) {
	n.links[l].share = n.links[l].capacity / float64(len(n.links[l].flows)+1)
}

// touch records that link l's flow set or capacity changed: it refreshes
// the stored share and adds l to the churn set the next fill checks its
// replayed rounds against.
func (n *FlowNet) touch(l LinkID) {
	n.refreshShare(l)
	if !hasBit(n.churned, int(l)) {
		n.churned[l>>6] |= 1 << (l & 63)
		n.churnList = append(n.churnList, int(l))
	}
}

// clearChurn empties the churn set.
func (n *FlowNet) clearChurn() {
	for _, l := range n.churnList {
		n.churned[l>>6] = 0
	}
	n.churnList = n.churnList[:0]
}

// hasBit reports whether bit i of the bitmap b is set.
func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// ActiveFlows returns the number of in-flight flows.
func (n *FlowNet) ActiveFlows() int { return n.liveCount }

// Completed returns the number of flows that finished normally.
func (n *FlowNet) Completed() int64 { return n.completed }

// allocFlow returns a reset Flow (from the pool when possible) with a
// fresh creation id, its completion callback bound, and the path copied
// into owned storage.
func (n *FlowNet) allocFlow(src, dst NodeID, path []LinkID) *Flow {
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{net: n}
		ff := f
		f.finishFn = func() { ff.net.fire(ff) }
	}
	f.id = n.started
	n.started++
	f.links = append(f.links[:0], path...)
	f.lastUpdate = n.eng.Now()
	f.src, f.dst = src, dst
	return f
}

// Release tells the network the caller holds no more references to f and
// will never touch it again: once every other condition clears (flow
// finished, liveList tombstone compacted, completion event off the
// queue) the object is recycled into a future transfer. Calling Release
// on an unfinished flow is a contract violation and is ignored; not
// calling it merely forgoes reuse.
func (n *FlowNet) Release(f *Flow) {
	if f == nil || !f.finished || f.released {
		return
	}
	f.released = true
	n.maybeRecycle(f)
}

// maybeRecycle returns f to the pool when no reference to it can remain:
// the owner released it, it is off the liveList, its completion event is
// not queued, and no deferred flow_start emission mentions it. The
// reset clears every field — a recycled flow must carry nothing of its
// previous life.
func (n *FlowNet) maybeRecycle(f *Flow) {
	if !f.released || !f.finished || f.inLive || f.pendingStart || f.doneEv.Queued() {
		return
	}
	links, slots, finishFn, net := f.links[:0], f.slots[:0], f.finishFn, f.net
	//lint:pooled Flow
	*f = Flow{net: net, links: links, slots: slots, finishFn: finishFn}
	n.freeFlows = append(n.freeFlows, f)
}

// StartFlowBetween begins transferring bytes across the given path and
// calls done (if non-nil) at completion. Zero or negative sizes complete
// immediately via a zero-delay event so callbacks still run in event
// order. The flow is tagged by its source and destination node, so flow
// events carry endpoints the FlowNet itself does not know about.
func (n *FlowNet) StartFlowBetween(src, dst NodeID, path []LinkID, bytes float64, done func()) *Flow {
	if len(path) == 0 {
		panic("topology: StartFlowBetween with empty path; use LocalTransferAt")
	}
	f := n.allocFlow(src, dst, path)
	f.total, f.remaining, f.done = bytes, bytes, done
	if bytes <= 0 {
		f.kind = flowZero
		f.finished = true
		n.completed++
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
		}
		n.eng.Reschedule(&f.doneEv, n.eng.Now(), f.finishFn)
		return f
	}
	f.kind = flowNet
	n.attach(f)
	return f
}

// StartPersistentFlowBetween begins a background flow that never
// completes (until cancelled) and always consumes its fair share on the
// path, tagged with node endpoints for observability.
func (n *FlowNet) StartPersistentFlowBetween(src, dst NodeID, path []LinkID) *Flow {
	f := n.allocFlow(src, dst, path)
	f.kind = flowNet
	f.remaining = math.Inf(1)
	f.persistent = true
	n.attach(f)
	return f
}

// LocalTransferAt models a same-node disk read at the given bandwidth,
// tagged with the node whose disk serves the read; it does not contend
// with network flows.
func (n *FlowNet) LocalTransferAt(node NodeID, bytes, diskBps float64, done func()) *Flow {
	if diskBps <= 0 {
		panic(fmt.Sprintf("topology: disk bandwidth %v must be positive", diskBps))
	}
	if bytes < 0 {
		bytes = 0
	}
	f := n.allocFlow(node, node, nil)
	f.kind = flowLocal
	f.total, f.remaining, f.done = bytes, bytes, done
	f.rate = diskBps
	if n.obs.Enabled() {
		n.obs.Emit(n.flowEvent(obs.FlowStart, f, false, "local"))
	}
	n.eng.Reschedule(&f.doneEv, n.eng.Now()+sim.Time(bytes/diskBps), f.finishFn)
	return f
}

// Cancel removes a flow (typically persistent cross-traffic) from the
// network without invoking its completion callback.
func (n *FlowNet) Cancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	if f.kind == flowLocal {
		// Local reads never touched the shared network: stop the clock and
		// the completion event, nothing to re-share.
		n.settle(f)
		f.finished = true
		n.eng.Remove(&f.doneEv)
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "cancel"))
		}
		n.maybeRecycle(f)
		return
	}
	n.settle(f)
	f.finished = true
	n.detach(f)
	if n.obs.Enabled() {
		// A flow cancelled in its start event has its start emission still
		// deferred; emit it first so the stream stays well-formed.
		if f.pendingStart {
			n.emitPendingStart(f)
		}
		n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "cancel"))
	}
}

// emitPendingStart emits f's deferred flow_start immediately and removes
// it from the pending list. Only used on the rare cancel-in-start-event
// path; normal starts are emitted in batch by Flush.
func (n *FlowNet) emitPendingStart(f *Flow) {
	n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
	f.pendingStart = false
	for i, p := range n.pendingStarts {
		if p == f {
			n.pendingStarts = append(n.pendingStarts[:i], n.pendingStarts[i+1:]...)
			break
		}
	}
}

// attach registers f on every link of its path and in the live list,
// marks the churn, and defers its flow_start to the next flush, when its
// first share is known.
func (n *FlowNet) attach(f *Flow) {
	if cap(f.slots) < len(f.links) {
		f.slots = make([]int, len(f.links))
	} else {
		f.slots = f.slots[:len(f.links)]
	}
	for i, l := range f.links {
		f.slots[i] = len(n.links[l].flows)
		n.links[l].flows = append(n.links[l].flows, f)
		n.loaded[l>>6] |= 1 << (l & 63)
		n.touch(l)
	}
	n.liveList = append(n.liveList, f)
	f.inLive = true
	n.liveCount++
	n.mark()
	f.pendingStart = true
	n.pendingStarts = append(n.pendingStarts, f)
}

// detach removes f from its links (swap-remove, fixing the moved flow's
// slot), drops its pending completion event and marks the churn. The
// live-list entry is tombstoned and reclaimed by the next compaction.
func (n *FlowNet) detach(f *Flow) {
	for i, l := range f.links {
		fl := n.links[l].flows
		last := len(fl) - 1
		if s := f.slots[i]; s != last {
			moved := fl[last]
			fl[s] = moved
			for k, ml := range moved.links {
				if ml == l {
					moved.slots[k] = s
					break
				}
			}
		}
		fl[last] = nil
		n.links[l].flows = fl[:last]
		if last == 0 {
			n.loaded[l>>6] &^= 1 << (l & 63)
		}
		n.touch(l)
	}
	n.liveCount--
	n.eng.Remove(&f.doneEv)
	n.mark()
}

// compactLive drops tombstoned (finished) flows from the live list,
// preserving creation order, and recycles the ones whose owners already
// released them.
func (n *FlowNet) compactLive() {
	w := 0
	for _, f := range n.liveList {
		if !f.finished {
			n.liveList[w] = f
			w++
			continue
		}
		f.inLive = false
		n.maybeRecycle(f)
	}
	for i := w; i < len(n.liveList); i++ {
		n.liveList[i] = nil
	}
	n.liveList = n.liveList[:w]
}

// settle charges progress made at the current rate since the last update.
// The explicit conversion rounds the product before the subtraction, so
// no GOARCH fuses it into a multiply-add.
func (n *FlowNet) settle(f *Flow) {
	now := n.eng.Now()
	if f.persistent {
		f.lastUpdate = now
		return
	}
	elapsed := float64(now - f.lastUpdate)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= float64(f.rate * elapsed)
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

// mark records churn: it bumps the epoch, which occupancy-only reads key
// on, and leaves the share solve to the next Flush.
func (n *FlowNet) mark() {
	n.epoch++
	n.dirty = true
}

// Flush commits the event's churn: one share solve if anything churned,
// then the batch of deferred flow_start emissions. It is the engine's
// commit hook, running at the end of every dispatched event and before
// Run or Step picks the next one, so no simulated time passes at a stale
// share.
func (n *FlowNet) Flush() {
	if n.dirty {
		n.dirty = false
		n.solve()
	}

	// Announce the flows born this event, in creation order, now that
	// their first share is known.
	if len(n.pendingStarts) > 0 {
		emit := n.obs.Enabled()
		for i, f := range n.pendingStarts {
			if emit {
				n.obs.Emit(n.flowEvent(obs.FlowStart, f, true, ""))
			}
			f.pendingStart = false
			n.pendingStarts[i] = nil
			n.maybeRecycle(f)
		}
		n.pendingStarts = n.pendingStarts[:0]
	}
}

// solve recomputes every live flow's max-min share and applies the ones
// that changed: settle progress at the old rate and move (or park) the
// completion event. A flow whose share is unchanged is left alone — its
// pending event already fires at the right absolute time.
// Flows are handled in creation order, so the completion events of one
// commit take fresh FIFO seqs in a deterministic sequence. When the live
// set is empty there is nothing to solve, and the round log and churn set
// are cleared, so the next fill starts cold.
func (n *FlowNet) solve() {
	n.compactLive()
	if n.liveCount == 0 {
		n.roundLink, n.roundShare = n.roundLink[:0], n.roundShare[:0]
		n.clearChurn()
		return
	}
	n.passes++
	n.fill()

	now := n.eng.Now()
	for _, f := range n.liveList {
		if f.next == f.rate {
			continue
		}
		n.settle(f)
		f.rate = f.next
		if f.persistent {
			continue
		}
		if f.rate <= 0 {
			// Park the completion until contention clears.
			n.eng.Remove(&f.doneEv)
			continue
		}
		n.eng.Reschedule(&f.doneEv, now+sim.Time(f.remaining/f.rate), f.finishFn)
	}
}

// fill runs progressive filling (max-min fairness) over the live list,
// writing each flow's share to its scratch next field. Each round takes
// the loaded link with unfrozen flows that minimizes (remCap/cnt, link)
// lexicographically — ascending link order breaks ties — and freezes
// its unfrozen flows at that share. The result depends only on the set
// of live paths: flows are visited in creation-id order, links in
// ascending order, and within a round every crossing of a link subtracts
// the same share, so the order of flows inside a link's slice is
// immaterial. The fill loop allocates nothing.
//
// The fill is warm-started from the previous one's round log. Logged
// round k is replayed, without a scan, while its bottleneck is unchurned
// and no loaded churned link c with unfrozen flows has (remCap[c]/cnt[c],
// c) below (share_k, link_k). Proof sketch, by induction over k: a flow
// born or ended since the last fill crosses churned links only, so an
// unchurned link has the same capacity and the same flows as then. If
// rounds 0..k-1 froze the same flows at the same shares, each unchurned
// link has subtracted the same shares in the same rounds, so it holds
// bit-identical remCap and cnt, and the unchurned links still minimize
// at link_k with share_k. The test rules out every churned link, so the
// scan would pick link_k too, and round k freezes the same flows at the
// same share. At the first round that fails the test, the log is
// truncated there and the scan takes over, appending each round it finds.
func (n *FlowNet) fill() {
	remCap, cnt := n.remCap, n.cnt
	links := n.linksBuf[:0]
	for w, word := range n.loaded {
		for ; word != 0; word &= word - 1 {
			l := w<<6 | bits.TrailingZeros64(word)
			cnt[l] = len(n.links[l].flows)
			remCap[l] = n.links[l].capacity
			links = append(links, l)
		}
	}
	n.linksBuf = links
	flows := n.liveList
	for _, f := range flows {
		f.frozen = false
	}
	unfrozen := len(flows)
	round := 0
	for ; unfrozen > 0 && round < len(n.roundLink) && n.replayable(round); round++ {
		unfrozen -= n.freeze(n.roundLink[round], n.roundShare[round])
	}
	n.replayed += int64(round)
	n.roundLink, n.roundShare = n.roundLink[:round], n.roundShare[:round]
	n.clearChurn()
	for unfrozen > 0 {
		// Find the most constrained link among links carrying unfrozen
		// flows, compacting drained links out of the scan (preserving
		// ascending order so tie-breaks stay deterministic).
		best := -1
		bestShare := math.Inf(1)
		w := 0
		for _, l := range links {
			c := cnt[l]
			if c == 0 {
				continue
			}
			links[w] = l
			w++
			share := remCap[l] / float64(c)
			if share < bestShare {
				bestShare = share
				best = l
			}
		}
		links = links[:w]
		if best < 0 {
			// No unfrozen flow crosses any link (cannot happen: every live
			// flow has a non-empty path), but guard against livelock.
			for _, f := range flows {
				if !f.frozen {
					f.next = 0
					f.frozen = true
				}
			}
			break
		}
		n.roundLink = append(n.roundLink, best)
		n.roundShare = append(n.roundShare, bestShare)
		n.scanned++
		unfrozen -= n.freeze(best, bestShare)
	}
}

// replayable reports whether logged round k is also the next round of
// the current fill: its bottleneck is unchurned, and no loaded churned
// link with unfrozen flows precedes it in (share, link) order. A churned
// link without flows is skipped by the loaded bitmap: its cnt entry was
// not seeded by this fill.
func (n *FlowNet) replayable(k int) bool {
	b, s := n.roundLink[k], n.roundShare[k]
	if hasBit(n.churned, b) {
		return false
	}
	remCap, cnt := n.remCap, n.cnt
	for _, l := range n.churnList {
		if !hasBit(n.loaded, l) || cnt[l] == 0 {
			continue
		}
		if share := remCap[l] / float64(cnt[l]); share < s || share == s && l < b {
			return false
		}
	}
	return true
}

// freeze fixes every unfrozen flow on link b at share s and takes its
// crossings off the links it traverses, returning how many it froze. The
// order of iteration is immaterial: every frozen flow gets the same
// share, and the remCap/cnt updates commute exactly (each round
// subtracts the same s per crossing).
func (n *FlowNet) freeze(b int, s float64) int {
	remCap, cnt := n.remCap, n.cnt
	frozen := 0
	for _, f := range n.links[b].flows {
		if f.frozen {
			continue
		}
		f.next = s
		f.frozen = true
		frozen++
		for _, l := range f.links {
			r := remCap[l] - s
			if r < 0 {
				r = 0 // guard float error
			}
			remCap[l] = r
			cnt[l]--
		}
	}
	return frozen
}

// fire dispatches a flow's completion event according to its kind.
func (n *FlowNet) fire(f *Flow) {
	switch f.kind {
	case flowZero:
		// Counted complete at creation; only the emission and callback
		// were deferred to the next event cycle.
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, ""))
		}
		if f.done != nil {
			f.done()
		}
		n.maybeRecycle(f)
	case flowLocal:
		f.finished = true
		f.remaining = 0
		n.completed++
		n.bytesDone += f.total
		if n.obs.Enabled() {
			n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "local"))
		}
		if f.done != nil {
			f.done()
		}
		n.maybeRecycle(f)
	default:
		n.finish(f)
	}
}

// finish completes a network flow and triggers its callback.
func (n *FlowNet) finish(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.remaining = 0
	n.completed++
	n.bytesDone += f.total
	// Detach before the callback: the occupancy change must be observable
	// to any path-rate reading the callback makes.
	n.detach(f)
	if n.obs.Enabled() {
		n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, ""))
	}
	if f.done != nil {
		f.done()
	}
	n.maybeRecycle(f)
}

// CheckFeasible verifies that no link is oversubscribed: the sum of flow
// rates on each link must not exceed its capacity (within tolerance).
// Shares are solved at commit points, so it must be called at one —
// after Flush, e.g. from a later commit hook or between Run/Step calls;
// between a churn and its commit it reports that instead. Used by
// property tests.
func (n *FlowNet) CheckFeasible() error {
	if n.dirty {
		return fmt.Errorf("topology: CheckFeasible called between a churn and its commit")
	}
	const tol = 1e-6
	for i := range n.links {
		var sum float64
		for _, f := range n.links[i].flows {
			sum += f.rate
		}
		if c := n.links[i].capacity; sum > c*(1+tol) {
			return fmt.Errorf("link %d oversubscribed: %v > %v", i, sum, c)
		}
	}
	return nil
}
