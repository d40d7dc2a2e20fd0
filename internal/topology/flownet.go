package topology

import (
	"fmt"
	"math"
	"slices"

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
	id         int64    // creation order; orders equal-time completions (see solve)
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
	released     bool // owner dropped its reference; recycle when safe
	pendingStart bool // flow_start emission deferred to the next flush

	slots []int // position of this flow in each path link's flow list

	// round is the fill round that froze the flow at its committed share,
	// or, inside a fill, nil while the flow waits to be re-solved.
	round *round

	// Node endpoints for observability; -1 when the caller did not tag
	// the flow.
	src, dst NodeID
}

// Finished reports whether the flow has completed or been cancelled.
func (f *Flow) Finished() bool { return f.finished }

// link carries its active flows as a slice (swap-remove via Flow.slots):
// enumeration is the recompute hot loop, and slice iteration is several
// times cheaper than ranging a map. Order within the slice is arbitrary
// but immaterial — every consumer either orders by flow id or commutes
// exactly.
type link struct {
	capacity float64 //lint:epoch-guarded rate shares derive from it; see FlowNet.epoch
	flows    []*Flow
	// share is the rate a new flow would get here, capacity/(f+1) for its
	// f flows: the link's term in a path transmission rate (Section
	// II-B-3). refreshShare rewrites it wherever the flow count or the
	// capacity changes, always beside an epoch bump, so it is
	// exact mid-instant and constant between epochs. Capacities are finite
	// and non-negative, so every share is too.
	share float64
}

// round is one round of a progressive fill: its bottleneck link and the
// share it froze that link's unfrozen flows at. The flows point at their
// round (Flow.round), so a round that a later fill replays keeps its
// record, and its flows keep their share without being visited. Records
// are pooled (see FlowNet.releaseRound).
type round struct {
	link  int
	share float64
	// gen is the fill that last took the round, by replay or by scan, and
	// pos its index in that fill's log. A flow whose round has an older
	// gen is still waiting for that round in the current fill.
	gen uint64
	pos int
	// subs heads the round's chain in FlowNet.subs: one entry per crossing
	// of a dirty link by one of the round's flows, which a replay of the
	// round debits. 0 is the sentinel, so the zero value has no chain.
	subs int32
}

// sub is one link of a round's subscription chain: the link a replay of
// the round debits, and the index of the chain's next entry.
type sub struct{ link, next int32 }

// FlowNet is a flow-level network simulator: each active flow receives a
// max-min fair share of the capacity of every directed link on its path.
//
// Churn (flow start, finish, cancel or capacity change) updates link
// occupancy, the stored per-link prospective shares and the epoch at
// once, so occupancy-only reads (Cluster.PathRate, UpRate, InRate) are
// exact mid-instant. The shares themselves are solved once per instant
// that churned (the events due at one time), in Flush — the engine's
// commit hook, which runs at the end of the instant, before the clock
// moves — as a pure function of the live-flow set: the progressive fill
// a cold pass over every live flow and every loaded link would run. The fill is
// warm-started: it replays every round of the previous fill whose
// bottleneck no churn has reached, and re-solves only the flows the other
// rounds froze, so its result is the cold fill's bit for bit. The solve
// reschedules the completion of every re-solved flow whose share moved;
// the instant's flow_start emissions follow it. A share change emits
// nothing: the flow_start, flow_finish and link events already determine
// every share.
type FlowNet struct {
	eng   *sim.Engine
	links []link
	// liveCount is the number of in-flight network flows.
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
	// finished, its owner has Released it, its completion event is off
	// the queue, and no deferred flow_start emission mentions it — so a
	// stale pointer can never observe or cancel another transfer's state.
	freeFlows []*Flow

	// The warm-started fill (see fill).
	log, next []*round // the last fill's rounds in order; the log being built
	gen       uint64   // numbers the fills
	// dirtyLinks (a bitmap) and dirtyList hold the dirty links: between
	// fills the ones whose flow set or capacity changed, inside a fill
	// also the ones it has materialized since.
	dirtyLinks []uint64
	dirtyList  []int
	// remCap and cnt, indexed by link, hold the fill's state of dirty
	// links only. scanList holds the dirty links that may still carry
	// unfrozen flows.
	remCap     []float64
	cnt        []int
	scanList   []int
	subs       []sub    // backs the rounds' subscription chains
	resolved   []*Flow  // the flows scanned rounds froze
	past       []int    // scratch: log positions a link's debits come from
	freeRounds []*round // recycled round records
	// replayed and scanned count rounds taken from the log and found by a
	// scan; resolvedFlows counts the flows scans froze.
	replayed, scanned, resolvedFlows int64

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
// instant.
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
// instant that churned.
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
	if int(l)>>6 == len(n.dirtyLinks) {
		n.dirtyLinks = append(n.dirtyLinks, 0)
	}
	// A new link carries no flow, so no logged round depends on it: it is
	// not dirty.
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
// the stored share and marks l dirty, so the next fill re-solves every
// logged round l could change.
func (n *FlowNet) touch(l LinkID) {
	n.refreshShare(l)
	n.setDirty(int(l))
}

// setDirty adds l to the dirty set and reports whether it was clean.
func (n *FlowNet) setDirty(l int) bool {
	if hasBit(n.dirtyLinks, l) {
		return false
	}
	n.dirtyLinks[l>>6] |= 1 << (l & 63)
	n.dirtyList = append(n.dirtyList, l)
	return true
}

// clearDirty empties the dirty set.
func (n *FlowNet) clearDirty() {
	for _, l := range n.dirtyList {
		n.dirtyLinks[l>>6] = 0
	}
	n.dirtyList = n.dirtyList[:0]
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
// finished, completion event off the queue) the object is recycled into
// a future transfer. Calling Release on an unfinished flow is a contract
// violation and is ignored; not calling it merely forgoes reuse.
func (n *FlowNet) Release(f *Flow) {
	if f == nil || !f.finished || f.released {
		return
	}
	f.released = true
	n.maybeRecycle(f)
}

// maybeRecycle returns f to the pool when no reference to it can remain:
// the owner released it, it is finished, its completion event is not
// queued, and no deferred flow_start emission mentions it. The
// reset clears every field — a recycled flow must carry nothing of its
// previous life.
func (n *FlowNet) maybeRecycle(f *Flow) {
	if !f.released || !f.finished || f.pendingStart || f.doneEv.Queued() {
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
		// A flow cancelled in its start instant has its start emission still
		// deferred; emit it first so the stream stays well-formed.
		if f.pendingStart {
			n.emitPendingStart(f)
		}
		n.obs.Emit(n.flowEvent(obs.FlowFinish, f, false, "cancel"))
	}
}

// emitPendingStart emits f's deferred flow_start immediately and removes
// it from the pending list. Only used on the rare cancel-in-start-instant
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

// attach registers f on every link of its path, marks the churn, and
// defers its flow_start to the next flush, when its first share is known.
func (n *FlowNet) attach(f *Flow) {
	if cap(f.slots) < len(f.links) {
		f.slots = make([]int, len(f.links))
	} else {
		f.slots = f.slots[:len(f.links)]
	}
	for i, l := range f.links {
		f.slots[i] = len(n.links[l].flows)
		n.links[l].flows = append(n.links[l].flows, f)
		n.touch(l)
	}
	n.liveCount++
	n.mark()
	f.pendingStart = true
	n.pendingStarts = append(n.pendingStarts, f)
}

// detach removes f from its links (swap-remove, fixing the moved flow's
// slot) and from its round, drops its pending completion event and marks
// the churn.
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
		n.touch(l)
	}
	f.round = nil
	n.liveCount--
	n.eng.Remove(&f.doneEv)
	n.mark()
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

// Flush commits the instant's churn: one share solve if anything
// churned, then the batch of deferred flow_start emissions. It is the
// engine's commit hook, running at the end of every instant, before the
// clock moves, so no simulated time passes at a stale share.
func (n *FlowNet) Flush() {
	if n.dirty {
		n.dirty = false
		n.solve()
	}

	// Announce the flows born this instant, in creation order, now that
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

// solve re-solves the max-min shares and applies the ones that changed:
// it settles progress at the old rate and moves (or parks) the
// completion event. Only a flow that a scanned round of the fill froze
// can change share: a replayed round's flows keep their committed share,
// and their pending events already fire at the right absolute time. The
// completion events of one solve tie in creation order: solve reserves
// one block of engine seqs spanning the re-solved flows' ids, and a
// flow's event takes the seq its id offsets into the block, so no sort is
// needed and unused seqs are gaps. Only a solve over a non-empty live set
// counts as a pass; over an empty one the fill skips every logged round,
// so the next fill starts cold.
func (n *FlowNet) solve() {
	if n.liveCount > 0 {
		n.passes++
	}
	n.fill()

	resolved := n.resolved
	if len(resolved) == 0 {
		return
	}
	n.resolvedFlows += int64(len(resolved))
	lo, hi := resolved[0].id, resolved[0].id
	for _, f := range resolved[1:] {
		lo, hi = min(lo, f.id), max(hi, f.id)
	}
	base := n.eng.ReserveSeqs(uint64(hi-lo) + 1)
	now := n.eng.Now()
	for i, f := range resolved {
		resolved[i] = nil
		share := f.round.share
		if share == f.rate {
			continue
		}
		n.settle(f)
		f.rate = share
		if f.persistent {
			continue
		}
		if f.rate <= 0 {
			// Park the completion until contention clears.
			n.eng.Remove(&f.doneEv)
			continue
		}
		n.eng.RescheduleSeq(&f.doneEv, now+sim.Time(f.remaining/f.rate), f.finishFn, base+uint64(f.id-lo))
	}
	n.resolved = resolved[:0]
}

// fill runs progressive filling (max-min fairness) over the live flows,
// pointing each at the round that freezes it. Each round takes the link
// with unfrozen flows that minimizes (remCap/cnt, link)
// lexicographically and freezes its unfrozen flows at that share. The
// result depends only on the set of live paths: ties go to the lower
// link, and within a round every crossing of a link subtracts the same
// share, so the order of flows inside a link's slice is immaterial. The
// fill allocates nothing once its buffers have grown.
//
// The fill is warm-started from the previous one's round log, and keeps
// a fill state (remCap, cnt) only for dirty links: the churned ones, the
// ones crossed by a flow that a scanned round froze, and the ones crossed
// by a flow of a skipped round. A logged round whose bottleneck is dirty
// is skipped: its flows wait to be re-solved. Any other logged round k is
// replayed, without visiting its flows, when its (share_k, link_k) is
// below the argmin over the dirty links; otherwise a scanned round freezes
// the dirty argmin. Proof sketch, by induction over the rounds: only
// replayed rounds debit a clean link, and they are the old fill's rounds
// in the old order, so a clean link carries the same flows, frozen by
// the same rounds, and holds bit-identical remCap and cnt as the old fill
// did before round k. The old fill's round k took the argmin over every
// link then, so every clean link sits at or above (share_k, link_k), and
// link_k itself is clean. The argmin over all links is therefore the
// lesser of (share_k, link_k) and the dirty argmin, and a replayed round
// freezes the same flows at the same share as a cold scan would. Once the
// log is spent, every clean link is fully frozen, so the dirty links are
// the only ones left to scan.
func (n *FlowNet) fill() {
	n.gen++
	n.subs = append(n.subs[:0], sub{})
	n.scanList = n.scanList[:0]
	for _, l := range n.dirtyList {
		n.materialize(l)
	}
	old := n.log
	k := 0
	for {
		for ; k < len(old) && hasBit(n.dirtyLinks, old[k].link); k++ {
			n.skip(old[k])
			old[k] = nil
		}
		best, bestShare := n.argmin()
		if k < len(old) {
			if r := old[k]; best < 0 || r.share < bestShare || r.share == bestShare && r.link < best {
				n.replay(r)
				old[k] = nil
				k++
				continue
			}
		}
		if best < 0 {
			break
		}
		n.scan(best, bestShare)
	}
	n.log, n.next = n.next, old[:0]
	n.clearDirty()
}

// argmin returns the minimum (remCap/cnt, link) over the dirty links with
// unfrozen flows (link -1 if none), and drops fully frozen links from
// scanList: a link's cnt only falls within a fill.
func (n *FlowNet) argmin() (int, float64) {
	best, bestShare := -1, math.Inf(1)
	w := 0
	for _, l := range n.scanList {
		c := n.cnt[l]
		if c == 0 {
			continue
		}
		n.scanList[w] = l
		w++
		if share := n.remCap[l] / float64(c); share < bestShare || share == bestShare && l < best {
			best, bestShare = l, share
		}
	}
	n.scanList = n.scanList[:w]
	return best, bestShare
}

// markDirty makes a clean link dirty and materializes its fill state.
func (n *FlowNet) markDirty(l int) {
	if n.setDirty(l) {
		n.materialize(l)
	}
}

// materialize computes dirty link l's fill state at the current round.
// remCap is the capacity less one share per flow that a replayed round
// froze, debited in round order as the old fill debited them, and cnt
// counts the flows not frozen yet. Each of those whose logged round is
// still to come subscribes l to that round, so replaying it debits l.
// No flow on l can be frozen by a scanned round yet: freezing it would
// have made l dirty already.
func (n *FlowNet) materialize(l int) {
	past := n.past[:0]
	c := 0
	for _, f := range n.links[l].flows {
		switch r := f.round; {
		case r == nil:
			c++
		case r.gen == n.gen:
			past = append(past, r.pos)
		default:
			c++
			n.subs = append(n.subs, sub{int32(l), r.subs})
			r.subs = int32(len(n.subs) - 1)
		}
	}
	slices.Sort(past)
	rem := n.links[l].capacity
	for _, p := range past {
		rem = debit(rem, n.next[p].share)
	}
	n.past = past
	n.remCap[l], n.cnt[l] = rem, c
	if c > 0 {
		n.scanList = append(n.scanList, l)
	}
}

// skip drops logged round r, whose bottleneck is dirty. Its flows are the
// ones on r's link that still point at it; each waits to be re-solved,
// and every link it crosses turns dirty.
func (n *FlowNet) skip(r *round) {
	for _, f := range n.links[r.link].flows {
		if f.round != r {
			continue
		}
		f.round = nil
		for _, l := range f.links {
			n.markDirty(int(l))
		}
	}
	n.releaseRound(r)
}

// replay appends logged round r to the new log and debits the dirty links
// subscribed to it. Its flows keep pointing at r, so they stay frozen at
// r's share without being visited.
func (n *FlowNet) replay(r *round) {
	r.gen, r.pos = n.gen, len(n.next)
	n.next = append(n.next, r)
	for i := r.subs; i != 0; i = n.subs[i].next {
		l := n.subs[i].link
		n.remCap[l] = debit(n.remCap[l], r.share)
		n.cnt[l]--
	}
	r.subs = 0
	n.replayed++
}

// scan appends a new round freezing the unfrozen flows on dirty link b at
// share s. Each frozen flow makes the links it crosses dirty before it
// takes its crossings off them, and joins the re-solved flows.
func (n *FlowNet) scan(b int, s float64) {
	r := n.newRound()
	r.link, r.share, r.gen, r.pos = b, s, n.gen, len(n.next)
	n.next = append(n.next, r)
	for _, f := range n.links[b].flows {
		if f.round != nil && f.round.gen == n.gen {
			continue
		}
		f.round = nil
		for _, l := range f.links {
			n.markDirty(int(l))
		}
		f.round = r
		for _, l := range f.links {
			n.remCap[l] = debit(n.remCap[l], s)
			n.cnt[l]--
		}
		n.resolved = append(n.resolved, f)
	}
	n.scanned++
}

// debit takes share s off remaining capacity rem, clamping float error at
// zero.
func debit(rem, s float64) float64 {
	r := rem - s
	if r < 0 {
		r = 0
	}
	return r
}

// newRound returns a zeroed round record, from the pool when possible.
func (n *FlowNet) newRound() *round {
	if k := len(n.freeRounds); k > 0 {
		r := n.freeRounds[k-1]
		n.freeRounds[k-1] = nil
		n.freeRounds = n.freeRounds[:k-1]
		return r
	}
	return &round{}
}

// releaseRound recycles a round record no flow points at.
func (n *FlowNet) releaseRound(r *round) {
	//lint:pooled round
	*r = round{}
	n.freeRounds = append(n.freeRounds, r)
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
// after Flush, e.g. from a later commit hook, between Run calls, or
// between Step calls at the end of an instant; between a churn and its
// commit it reports that instead. Used by
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
