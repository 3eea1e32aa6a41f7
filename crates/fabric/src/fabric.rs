//! Packet forwarding with link contention.
//!
//! [`Fabric`] holds one FIFO-contended serializer per directed physical link
//! plus a fixed router traversal delay per hop. The owning event loop drives
//! a message across the network by repeatedly calling [`Fabric::step`]:
//!
//! ```text
//! inject at src ── step(src) ──▶ Forward{next, arrive}
//!                  step(next) ─▶ Forward{...}
//!                  step(dst)  ─▶ Deliver           (hand to the local RMC)
//! ```
//!
//! Each `step` charges the router delay, then queues the message's wire bytes
//! on the outgoing link's serializer (FIFO among all traffic sharing that
//! link) and adds the propagation latency. Because steps happen in global
//! simulated-time order, link FIFO order is exact.
//!
//! ## Decomposition
//!
//! [`Fabric::decompose`] split-borrows the state one routing step needs, so
//! an event loop can step the fabric ([`step_row`]) while it also holds
//! mutable borrows of its own per-node state:
//!
//! * [`FabricShared`] — topology, timing, outage set and the live route
//!   table. Read-only during event execution; mutated only by fault
//!   handling.
//! * [`FabricRow`] — the outgoing links of ONE source router (serializers,
//!   per-link counters and the per-link loss RNG). Only events executing at
//!   that router touch its row.
//! * [`FabricCounters`] — the global delivery counters.
//!
//! Loss draws are per-link (seeded from the link's endpoints), not from one
//! global stream: each link's drop pattern depends only on its own traffic
//! order, so traffic on one link never changes which messages die on
//! another.

use crate::msg::{Message, NodeId, HEADER_BYTES};
use crate::topology::Topology;
use cohfree_sim::queueing::FifoServer;
use cohfree_sim::stats::Counter;
use cohfree_sim::{FastMap, FastSet, SimDuration, SimTime};
use std::collections::VecDeque;

/// Physical-layer timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Fixed switch/router traversal time per hop (FPGA-class by default).
    pub router_delay: SimDuration,
    /// Signal propagation + SerDes latency per link.
    pub link_latency: SimDuration,
    /// Link payload bandwidth in bytes per nanosecond (16-bit HT link
    /// ≈ 8 B/ns per direction at prototype clocks).
    pub bytes_per_ns: f64,
    /// Probability that a link traversal loses the message (bit error /
    /// buffer overrun). 0.0 (default) models the prototype's reliable
    /// board-to-board links; non-zero values drive the reliability study
    /// (`abl_reliability`), with recovery by RMC timeout/retransmission.
    pub loss_rate: f64,
    /// Seed for the deterministic loss process.
    pub loss_seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            router_delay: SimDuration::ns(60),
            link_latency: SimDuration::ns(20),
            bytes_per_ns: 8.0,
            loss_rate: 0.0,
            loss_seed: 0x10551055,
        }
    }
}

impl FabricConfig {
    /// Time to clock `bytes` onto a link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::ns_f64(bytes as f64 / self.bytes_per_ns)
    }
}

/// Outcome of one routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The message has reached its destination router; hand it to the local
    /// endpoint (RMC / OS) at the contained instant.
    Deliver {
        /// Delivery instant at the destination router.
        at: SimTime,
    },
    /// The message leaves on a link; call `step` again at `arrive` with
    /// position `next`.
    Forward {
        /// Router the message travels to.
        next: NodeId,
        /// Arrival instant at that router.
        arrive: SimTime,
    },
    /// The message is gone: the link lost it (non-zero
    /// [`FabricConfig::loss_rate`]), or no live route toward the
    /// destination exists (link/node outage). Recovery is the requester's
    /// problem either way.
    Dropped,
}

/// Per-directed-link state and statistics.
#[derive(Debug, Clone)]
struct Link {
    server: FifoServer,
    messages: Counter,
    bytes: Counter,
    /// Deterministic per-link loss stream. Seeded from the link's endpoints
    /// so a link's drop pattern depends only on its own traffic order, not
    /// on how traffic on other links interleaves with it.
    loss: cohfree_sim::Rng,
}

impl Link {
    fn new(cfg: &FabricConfig, u: NodeId, v: NodeId) -> Link {
        let lane = ((u.get() as u64) << 16) | v.get() as u64;
        let seed = cfg
            .loss_seed
            .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Link {
            server: FifoServer::new(),
            messages: Counter::new(),
            bytes: Counter::new(),
            loss: cohfree_sim::Rng::new(seed),
        }
    }
}

/// The outgoing links of one source router, sorted by destination. Router
/// degree is small (≤ 4 on the mesh), so the per-hop link lookup is a short
/// linear scan instead of a hash, and snapshots enumerate links in
/// `(from, to)` order without sorting.
#[derive(Debug, Clone, Default)]
pub struct FabricRow {
    links: Vec<(NodeId, Link)>,
}

impl FabricRow {
    #[inline]
    fn link(&self, v: NodeId) -> Option<&Link> {
        self.links.iter().find(|&&(n, _)| n == v).map(|(_, l)| l)
    }

    #[inline]
    fn link_mut(&mut self, v: NodeId) -> Option<&mut Link> {
        self.links
            .iter_mut()
            .find(|&&mut (n, _)| n == v)
            .map(|(_, l)| l)
    }

    /// Largest time-to-drain backlog across this router's outgoing links.
    pub fn max_backlog(&self, now: SimTime) -> SimDuration {
        self.links
            .iter()
            .map(|(_, l)| l.server.backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Global delivery counters, separable from the link state so a step can
/// borrow them alongside one router's row ([`Fabric::decompose`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricCounters {
    delivered: Counter,
    total_hops: Counter,
    dropped: Counter,
    rerouted: Counter,
    unroutable: Counter,
}

/// Largest wire size whose serialization time [`FabricShared`] tabulates:
/// an 8 KiB payload plus the header. Larger messages use the formula.
const SER_TABLE_MAX_WIRE: u32 = 8192 + HEADER_BYTES;

/// Topology, timing and routing state: read-only during event execution,
/// mutated only by fault handling.
#[derive(Debug, Clone)]
pub struct FabricShared {
    topo: Topology,
    cfg: FabricConfig,
    /// `cfg.serialization(wire)` for every `wire <= SER_TABLE_MAX_WIRE`,
    /// so a hop does no floating-point division or rounding.
    ser_table: Box<[SimDuration]>,
    /// `topo.coords(n)` by node index on mesh and torus (empty otherwise),
    /// so dimension-order routing needs no division or remainder.
    coords: Box<[(u16, u16)]>,
    /// Directed links administratively down (both directions of a failed
    /// cable appear here; a direction that is not a physical link is
    /// harmless dead weight).
    down_links: FastSet<(NodeId, NodeId)>,
    /// Routers that are down; every incident link is unusable.
    down_nodes: FastSet<NodeId>,
    /// Live next-hop table, rebuilt by BFS whenever the outage set changes.
    /// Empty while the fabric is healthy (dimension-order routing applies).
    routes: FastMap<(NodeId, NodeId), NodeId>,
}

impl FabricShared {
    /// True while any link or node outage is active.
    pub fn degraded(&self) -> bool {
        !self.down_links.is_empty() || !self.down_nodes.is_empty()
    }

    /// A directed link is usable iff it is physically present, not
    /// administratively down, and neither endpoint router is down.
    fn usable(&self, u: NodeId, v: NodeId) -> bool {
        !self.down_links.contains(&(u, v))
            && !self.down_nodes.contains(&u)
            && !self.down_nodes.contains(&v)
    }

    /// The smallest possible time between a send at one router and any
    /// consequence at another: one router traversal plus one link flight
    /// (serialization and queueing only add to it).
    pub fn min_hop_latency(&self) -> SimDuration {
        self.cfg.router_delay + self.cfg.link_latency
    }

    fn new(topo: Topology, cfg: FabricConfig) -> FabricShared {
        let coords = match topo {
            Topology::Mesh2D { .. } | Topology::Torus2D { .. } => (0..topo.num_nodes() as usize)
                .map(|i| topo.coords(NodeId::from_index(i)))
                .collect(),
            Topology::Ring { .. } | Topology::FullyConnected { .. } => Box::default(),
        };
        FabricShared {
            topo,
            cfg,
            ser_table: (0..=SER_TABLE_MAX_WIRE)
                .map(|wire| cfg.serialization(wire))
                .collect(),
            coords,
            down_links: FastSet::default(),
            down_nodes: FastSet::default(),
            routes: FastMap::default(),
        }
    }

    /// [`FabricConfig::serialization`], from the table when `wire` is in it.
    #[inline]
    fn serialization(&self, wire: u32) -> SimDuration {
        match self.ser_table.get(wire as usize) {
            Some(&ser) => ser,
            None => self.cfg.serialization(wire),
        }
    }

    /// [`Topology::next_hop`] (the reference) from the coordinate table:
    /// the same dimension-order step, with the node index moved by ±1 in
    /// X and ±width in Y instead of recomputed from coordinates.
    #[inline]
    fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        debug_assert_ne!(from, to, "next_hop called with from == to");
        let i = from.index();
        let next = match self.topo {
            Topology::Mesh2D { width, .. } => {
                let ((fx, fy), (tx, ty)) = (self.coords[i], self.coords[to.index()]);
                let width = width as usize;
                if fx != tx {
                    if tx > fx {
                        i + 1
                    } else {
                        i - 1
                    }
                } else if ty > fy {
                    i + width
                } else {
                    i - width
                }
            }
            Topology::Torus2D { width, height } => {
                let ((fx, fy), (tx, ty)) = (self.coords[i], self.coords[to.index()]);
                if fx != tx {
                    i - fx as usize + torus_step(fx, tx, width) as usize
                } else {
                    let width = width as usize;
                    i - fy as usize * width + torus_step(fy, ty, height) as usize * width
                }
            }
            Topology::Ring { nodes } => {
                if i + 1 == nodes as usize {
                    0
                } else {
                    i + 1
                }
            }
            Topology::FullyConnected { .. } => return to,
        };
        NodeId::from_index(next)
    }
}

/// One torus step from `f` toward `t != f` in a dimension of extent `n`,
/// taking the shorter way (ties break positive): `Topology::next_hop`'s
/// rule without the remainders.
#[inline]
fn torus_step(f: u16, t: u16, n: u16) -> u16 {
    debug_assert!(f != t && f < n && t < n);
    let fwd = if t > f { t - f } else { t + n - f };
    if fwd <= n - fwd {
        if f + 1 == n {
            0
        } else {
            f + 1
        }
    } else if f == 0 {
        n - 1
    } else {
        f - 1
    }
}

/// The interconnect: topology + contended links.
#[derive(Debug)]
pub struct Fabric {
    shared: FabricShared,
    counters: FabricCounters,
    /// `rows[u]` holds router `u`'s outgoing links (`rows[0]` is an unused
    /// placeholder).
    rows: Vec<FabricRow>,
}

impl Fabric {
    /// Build a fabric over `topo` with physical parameters `cfg`.
    pub fn new(topo: Topology, cfg: FabricConfig) -> Fabric {
        let mut links = topo.links();
        links.sort_unstable_by_key(|&(u, v)| (u.get(), v.get()));
        let max_id = links
            .iter()
            .map(|&(u, v)| u.get().max(v.get()))
            .max()
            .unwrap_or(0) as usize;
        let mut rows: Vec<FabricRow> = (0..=max_id).map(|_| FabricRow::default()).collect();
        for (u, v) in links {
            rows[u.get() as usize]
                .links
                .push((v, Link::new(&cfg, u, v)));
        }
        Fabric {
            shared: FabricShared::new(topo, cfg),
            counters: FabricCounters::default(),
            rows,
        }
    }

    /// Split-borrow the fabric into the three pieces one routing step
    /// needs: the read-only shared state, the counter accumulator, and the
    /// per-router link rows (indexed by node id; index 0 is a placeholder).
    pub fn decompose(&mut self) -> (&FabricShared, &mut FabricCounters, &mut [FabricRow]) {
        (&self.shared, &mut self.counters, &mut self.rows)
    }

    /// Shared state of the directed link `u -> v`, if it physically exists.
    #[inline]
    fn link(&self, u: NodeId, v: NodeId) -> Option<&Link> {
        self.rows.get(u.get() as usize)?.link(v)
    }

    /// All physical directed links in `(from, to)` order.
    fn links_iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &Link)> {
        // Row 0 is the empty placeholder, so `max(1)` never names a link.
        self.rows.iter().enumerate().flat_map(|(u, row)| {
            let u = NodeId::new(u.max(1) as u16);
            row.links.iter().map(move |&(v, ref l)| (u, v, l))
        })
    }

    /// Recompute shortest live routes: one BFS per destination over the
    /// usable reverse adjacency. Neighbor expansion is ordered by `NodeId`
    /// (the adjacency is index-based and built from the sorted physical
    /// link list), so among equal-cost detours the smallest-id next hop
    /// always wins — the table is a pure function of the outage set,
    /// independent of outage arrival order and hash-map iteration order.
    fn rebuild_routes(&mut self) {
        let sh = &mut self.shared;
        sh.routes.clear();
        if !sh.degraded() {
            return; // healthy fabric: dimension-order routing, no table.
        }
        let mut links = sh.topo.links();
        links.sort_unstable_by_key(|&(u, v)| (u.get(), v.get()));
        let n = links
            .iter()
            .map(|&(u, v)| u.get().max(v.get()))
            .max()
            .unwrap_or(0) as usize;
        // Reverse adjacency over usable links: radj[x] = all w with w -> x,
        // ascending by construction (links are sorted source-major).
        let mut radj: Vec<Vec<NodeId>> = vec![Vec::new(); n + 1];
        for &(u, v) in &links {
            if sh.usable(u, v) {
                radj[v.get() as usize].push(u);
            }
        }
        debug_assert!(radj
            .iter()
            .all(|p| p.windows(2).all(|w| w[0].get() < w[1].get())));
        let mut seen = vec![false; n + 1];
        for dst_i in 1..=n {
            let dst = NodeId::new(dst_i as u16);
            seen.iter_mut().for_each(|s| *s = false);
            seen[dst_i] = true;
            let mut q = VecDeque::from([dst]);
            while let Some(x) = q.pop_front() {
                for &w in &radj[x.get() as usize] {
                    if !seen[w.get() as usize] {
                        seen[w.get() as usize] = true;
                        sh.routes.insert((w, dst), x);
                        q.push_back(w);
                    }
                }
            }
        }
    }

    /// Take the bidirectional link between `a` and `b` down; traffic
    /// reroutes over the surviving topology (or drops as unroutable).
    ///
    /// # Panics
    /// Panics if `a -> b` is not a physical link of the topology.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        assert!(
            self.shared.topo.links().contains(&(a, b)),
            "no physical link {a}->{b} to take down"
        );
        self.shared.down_links.insert((a, b));
        self.shared.down_links.insert((b, a));
        self.rebuild_routes();
    }

    /// Restore the bidirectional link between `a` and `b`.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.shared.down_links.remove(&(a, b));
        self.shared.down_links.remove(&(b, a));
        self.rebuild_routes();
    }

    /// Take a router down: every incident link becomes unusable and no
    /// message can be delivered to or forwarded through the node.
    /// Independent link outages are tracked separately and survive a later
    /// [`Fabric::set_node_up`].
    pub fn set_node_down(&mut self, node: NodeId) {
        self.shared.down_nodes.insert(node);
        self.rebuild_routes();
    }

    /// Bring a router back; only links downed via [`Fabric::set_link_down`]
    /// stay down.
    pub fn set_node_up(&mut self, node: NodeId) {
        self.shared.down_nodes.remove(&node);
        self.rebuild_routes();
    }

    /// True if `node`'s router is currently down.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.shared.down_nodes.contains(&node)
    }

    /// Number of bidirectional links currently forced down (node outages
    /// not included).
    pub fn links_down(&self) -> usize {
        self.shared.down_links.len() / 2
    }

    /// The topology this fabric implements.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// The physical configuration.
    pub fn config(&self) -> FabricConfig {
        self.shared.cfg
    }

    /// Smallest cross-router latency; see [`FabricShared::min_hop_latency`].
    pub fn min_hop_latency(&self) -> SimDuration {
        self.shared.min_hop_latency()
    }

    /// Advance `msg`, currently at router `at` at time `now`, by one step.
    ///
    /// With an active outage ([`Fabric::set_link_down`] /
    /// [`Fabric::set_node_down`]) the live BFS route table replaces
    /// dimension-order routing; a destination with no surviving path drops
    /// the message (`unroutable`) without charging any link.
    ///
    /// # Panics
    /// Panics if the route requires a link that does not exist (would
    /// indicate a routing bug — property tests pin this down).
    pub fn step(&mut self, now: SimTime, at: NodeId, msg: &Message) -> Step {
        self.step_traced(now, at, msg).0
    }

    /// [`Fabric::step`] plus the FIFO wait the message spent queued behind
    /// other traffic on the link serializer (zero for `Deliver`/`Dropped`
    /// outcomes and uncontended links). The span tracer uses the wait to
    /// split each hop into its wire and fabric-queue phases.
    pub fn step_traced(&mut self, now: SimTime, at: NodeId, msg: &Message) -> (Step, SimDuration) {
        let row = self
            .rows
            .get_mut(at.get() as usize)
            .unwrap_or_else(|| panic!("router {at} has no link row"));
        step_row(&self.shared, &mut self.counters, row, now, at, msg)
    }

    /// Unloaded end-to-end traversal time for a message of `wire_bytes`
    /// over `hops` hops (no queueing). Used by the analytic model and as a
    /// lower bound in tests.
    pub fn unloaded_latency(&self, wire_bytes: u32, hops: u32) -> SimDuration {
        let per_hop = self.shared.cfg.router_delay
            + self.shared.cfg.serialization(wire_bytes)
            + self.shared.cfg.link_latency;
        per_hop * hops as u64
    }

    /// Messages delivered to their destination so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.get()
    }

    /// Total link traversals (sum of per-message hop counts).
    pub fn total_hops(&self) -> u64 {
        self.counters.total_hops.get()
    }

    /// Messages lost so far (link errors plus unroutable drops).
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.get()
    }

    /// Hops taken that differ from the healthy dimension-order route
    /// (outage-induced detours).
    pub fn rerouted(&self) -> u64 {
        self.counters.rerouted.get()
    }

    /// Messages dropped because no live route to their destination existed.
    pub fn unroutable(&self) -> u64 {
        self.counters.unroutable.get()
    }

    /// Bytes carried by the directed link `u -> v` so far.
    pub fn link_bytes(&self, u: NodeId, v: NodeId) -> u64 {
        self.link(u, v).map_or(0, |l| l.bytes.get())
    }

    /// Messages carried by the directed link `u -> v` so far.
    pub fn link_messages(&self, u: NodeId, v: NodeId) -> u64 {
        self.link(u, v).map_or(0, |l| l.messages.get())
    }

    /// Utilization of the busiest directed link over `[0, horizon]`.
    pub fn max_link_utilization(&self, horizon: SimTime) -> f64 {
        self.links_iter()
            .map(|(_, _, l)| l.server.utilization(horizon))
            .fold(0.0, f64::max)
    }

    /// Largest time-to-drain backlog across links as seen at `now`.
    pub fn max_link_backlog(&self, now: SimTime) -> SimDuration {
        self.rows
            .iter()
            .map(|r| r.max_backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Largest time-to-drain backlog across `node`'s *outgoing* links as
    /// seen at `now` — the recovery manager's fabric-pressure watermark
    /// signal for one router.
    pub fn node_link_backlog(&self, now: SimTime, node: NodeId) -> SimDuration {
        self.rows
            .get(node.get() as usize)
            .map_or(SimDuration::ZERO, |r| r.max_backlog(now))
    }

    /// Per-node isolation map under the current outage set: `out[id]` is
    /// true iff the node is down or every one of its incident links is
    /// unusable (a correlated link partition cut it off). Index 0 is an
    /// unused placeholder, mirroring the row layout.
    pub fn isolated_nodes(&self) -> Vec<bool> {
        let n = self.shared.topo.num_nodes() as usize;
        let mut isolated = vec![true; n + 1];
        isolated[0] = false;
        for (u, v) in self.shared.topo.links() {
            if self.shared.usable(u, v) {
                isolated[u.get() as usize] = false;
                isolated[v.get() as usize] = false;
            }
        }
        for &d in self.shared.down_nodes.iter() {
            if let Some(slot) = isolated.get_mut(d.get() as usize) {
                *slot = true;
            }
        }
        isolated
    }

    /// Mean queueing wait on the directed link `u -> v`.
    pub fn link_mean_wait(&self, u: NodeId, v: NodeId) -> SimDuration {
        self.link(u, v)
            .map_or(SimDuration::ZERO, |l| l.server.mean_wait())
    }

    /// Serializable view of delivery counters and per-link statistics, with
    /// utilization computed against `horizon`. Links are sorted by
    /// `(from, to)` so the output is stable across runs.
    pub fn snapshot(&self, horizon: SimTime) -> cohfree_sim::Json {
        use cohfree_sim::Json;
        let mut max_util = 0.0f64;
        // Rows are in ascending node order and each row is sorted by
        // destination, so this is already (from, to) order.
        let links = self
            .links_iter()
            .map(|(u, v, l)| {
                let util = l.server.utilization(horizon);
                max_util = max_util.max(util);
                Json::obj([
                    ("from", Json::from(u.get() as u64)),
                    ("to", Json::from(v.get() as u64)),
                    ("messages", l.messages.snapshot()),
                    ("bytes", l.bytes.snapshot()),
                    ("utilization", Json::from(util)),
                    ("mean_wait_ns", Json::from(l.server.mean_wait().as_ns_f64())),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("delivered", self.counters.delivered.snapshot()),
            ("total_hops", self.counters.total_hops.snapshot()),
            ("dropped", self.counters.dropped.snapshot()),
            ("rerouted", self.counters.rerouted.snapshot()),
            ("unroutable", self.counters.unroutable.snapshot()),
            ("links_down", Json::from(self.links_down() as u64)),
            (
                "nodes_down",
                Json::from(self.shared.down_nodes.len() as u64),
            ),
            ("max_link_utilization", Json::from(max_util)),
            ("links", Json::Arr(links)),
        ])
    }
}

/// One routing step against decomposed fabric state ([`Fabric::decompose`]):
/// the shared routing view, the delivery counters, and the current router's
/// own link row. [`Fabric::step_traced`] is this function applied to the
/// whole fabric.
pub fn step_row(
    shared: &FabricShared,
    counters: &mut FabricCounters,
    row: &mut FabricRow,
    now: SimTime,
    at: NodeId,
    msg: &Message,
) -> (Step, SimDuration) {
    if at == msg.dst {
        counters.delivered.inc();
        return (Step::Deliver { at: now }, SimDuration::ZERO);
    }
    let next = if shared.degraded() {
        match shared.routes.get(&(at, msg.dst)) {
            Some(&hop) => {
                if hop != shared.next_hop(at, msg.dst) {
                    counters.rerouted.inc();
                }
                hop
            }
            None => {
                counters.unroutable.inc();
                counters.dropped.inc();
                return (Step::Dropped, SimDuration::ZERO);
            }
        }
    } else {
        shared.next_hop(at, msg.dst)
    };
    let wire = msg.wire_bytes();
    let ser = shared.serialization(wire);
    let enq = now + shared.cfg.router_delay;
    let link = row
        .link_mut(next)
        .unwrap_or_else(|| panic!("no physical link {at}->{next}"));
    // Router traversal, then FIFO on the link serializer, then flight time.
    let depart = link.server.accept(enq, ser);
    let queued = depart.saturating_since(enq).saturating_sub(ser);
    link.messages.inc();
    link.bytes.add(wire as u64);
    counters.total_hops.inc();
    if shared.cfg.loss_rate > 0.0 && link.loss.chance(shared.cfg.loss_rate) {
        counters.dropped.inc();
        return (Step::Dropped, queued);
    }
    (
        Step::Forward {
            next,
            arrive: depart + shared.cfg.link_latency,
        },
        queued,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn mk_fabric() -> Fabric {
        Fabric::new(Topology::prototype(), FabricConfig::default())
    }

    /// Walk a message all the way to delivery, returning (delivery time, hops).
    fn walk(f: &mut Fabric, start: SimTime, msg: Message) -> (SimTime, u32) {
        let mut at = msg.src;
        let mut now = start;
        let mut hops = 0;
        loop {
            match f.step(now, at, &msg) {
                Step::Deliver { at: t } => return (t, hops),
                Step::Forward { next, arrive } => {
                    at = next;
                    now = arrive;
                    hops += 1;
                }
                Step::Dropped => panic!("unexpected drop on a lossless fabric"),
            }
        }
    }

    #[test]
    fn delivery_time_matches_unloaded_model_when_idle() {
        let mut f = mk_fabric();
        let msg = Message::new(n(1), n(16), MsgKind::ReadReq { bytes: 64 }, 0);
        let (t, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert_eq!(hops, 6);
        let expected = f.unloaded_latency(msg.wire_bytes(), 6);
        assert_eq!(t, SimTime::ZERO + expected);
        assert_eq!(f.delivered(), 1);
        assert_eq!(f.total_hops(), 6);
    }

    #[test]
    fn latency_grows_with_distance() {
        // Core of the paper's Fig. 6: farther servers -> higher latency.
        let mut prev = SimDuration::ZERO;
        for dst in [2u16, 3, 4, 8, 12, 16] {
            let mut f = mk_fabric();
            let msg = Message::new(n(1), n(dst), MsgKind::ReadReq { bytes: 64 }, 0);
            let (t, _) = walk(&mut f, SimTime::ZERO, msg);
            let lat = t.since(SimTime::ZERO);
            assert!(lat > prev, "dst {dst}: {lat} !> {prev}");
            prev = lat;
        }
    }

    #[test]
    fn contention_on_shared_link_serializes() {
        let mut f = mk_fabric();
        let m1 = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, 1);
        let m2 = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, 2);
        let (t1, _) = walk(&mut f, SimTime::ZERO, m1);
        let (t2, _) = walk(&mut f, SimTime::ZERO, m2);
        // Second message waits for the first's ~513ns serialization.
        let ser = f.config().serialization(m1.wire_bytes());
        assert_eq!(t2.since(t1), ser);
        assert_eq!(f.link_messages(n(1), n(2)), 2);
        assert_eq!(f.link_bytes(n(1), n(2)), 2 * m1.wire_bytes() as u64);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut f = mk_fabric();
        let m1 = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 1);
        let m2 = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, 2);
        let (t1, _) = walk(&mut f, SimTime::ZERO, m1);
        let (t2, _) = walk(&mut f, SimTime::ZERO, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn responses_travel_the_reverse_path() {
        let mut f = mk_fabric();
        let req = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 7);
        let (t_req, _) = walk(&mut f, SimTime::ZERO, req);
        let resp = req.reply(MsgKind::ReadResp { bytes: 64 });
        let (t_resp, hops) = walk(&mut f, t_req, resp);
        assert_eq!(hops, 2);
        assert!(t_resp > t_req);
        // Request used 1->2->3; response uses 3->2->1.
        assert_eq!(f.link_messages(n(1), n(2)), 1);
        assert_eq!(f.link_messages(n(3), n(2)), 1);
        assert_eq!(f.link_messages(n(2), n(1)), 1);
    }

    #[test]
    fn utilization_reflects_traffic() {
        let mut f = mk_fabric();
        let horizon = SimTime::ZERO + SimDuration::us(10);
        for tag in 0..50 {
            let m = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, tag);
            walk(&mut f, SimTime::ZERO, m);
        }
        let u = f.max_link_utilization(horizon);
        assert!(u > 0.1, "utilization {u} unexpectedly low");
        assert!(f.link_mean_wait(n(1), n(2)) > SimDuration::ZERO);
    }

    #[test]
    fn unloaded_latency_is_linear_in_hops() {
        let f = mk_fabric();
        let one = f.unloaded_latency(76, 1);
        let six = f.unloaded_latency(76, 6);
        assert_eq!(six, one * 6);
    }

    #[test]
    fn min_hop_latency_is_a_true_lower_bound() {
        let f = mk_fabric();
        let w = f.min_hop_latency();
        assert_eq!(w, f.config().router_delay + f.config().link_latency);
        // Any real hop (which adds serialization) takes at least W.
        assert!(f.unloaded_latency(1, 1) >= w);
        assert!(w > SimDuration::ZERO);
    }

    #[test]
    fn total_loss_drops_everything() {
        let cfg = FabricConfig {
            loss_rate: 1.0,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(Topology::prototype(), cfg);
        let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped);
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.delivered(), 0);
    }

    #[test]
    fn partial_loss_is_deterministic_and_partial() {
        let run = || {
            let cfg = FabricConfig {
                loss_rate: 0.3,
                ..FabricConfig::default()
            };
            let mut f = Fabric::new(Topology::prototype(), cfg);
            let mut outcomes = Vec::new();
            for tag in 0..200 {
                let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, tag);
                outcomes.push(matches!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped));
            }
            (outcomes, f.dropped())
        };
        let (o1, d1) = run();
        let (o2, d2) = run();
        assert_eq!(o1, o2, "loss process must be deterministic");
        assert_eq!(d1, d2);
        assert!(d1 > 20 && d1 < 120, "drop count {d1} implausible for p=0.3");
    }

    #[test]
    fn loss_streams_are_per_link_and_order_independent() {
        // A link's drop pattern must depend only on its own traffic order,
        // not on global interleaving — otherwise traffic elsewhere would
        // change which messages die. Interleave traffic on a second link
        // and check the first link's pattern is unchanged.
        let cfg = FabricConfig {
            loss_rate: 0.3,
            ..FabricConfig::default()
        };
        let pattern = |interleave: bool| {
            let mut f = Fabric::new(Topology::prototype(), cfg);
            let mut outcomes = Vec::new();
            for tag in 0..100 {
                if interleave {
                    let other = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, tag);
                    let _ = f.step(SimTime::ZERO, n(5), &other);
                }
                let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, tag);
                outcomes.push(matches!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped));
            }
            outcomes
        };
        assert_eq!(pattern(false), pattern(true));
    }

    #[test]
    fn traffic_reroutes_around_a_downed_mesh_link() {
        let mut f = mk_fabric();
        f.set_link_down(n(1), n(2));
        // Healthy route 1->2->3 is cut; the detour still delivers.
        let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 0);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert_eq!(hops, 4, "shortest detour on the mesh is 4 hops");
        assert_eq!(f.delivered(), 1);
        assert!(f.rerouted() > 0, "detour must be counted as rerouted");
        assert_eq!(f.unroutable(), 0);
        assert_eq!(f.links_down(), 1);
        // Restoring the link restores dimension-order routing.
        f.set_link_up(n(1), n(2));
        let msg2 = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 1);
        let before = f.rerouted();
        let (_, hops2) = walk(&mut f, SimTime::ZERO, msg2);
        assert_eq!(hops2, 2);
        assert_eq!(f.rerouted(), before);
        assert_eq!(f.links_down(), 0);
    }

    #[test]
    fn reroute_tie_break_is_deterministic_and_history_independent() {
        // The BFS route table must be a pure function of the outage set:
        // identical whether an outage arrived directly or via a history of
        // other faults, and identical across repeated rebuilds. Downstream
        // timestamps (and byte-identical reports) depend on this.
        let direct = {
            let mut f = mk_fabric();
            f.set_link_down(n(6), n(7));
            f.shared.routes.clone()
        };
        let with_history = {
            let mut f = mk_fabric();
            f.set_node_down(n(11));
            f.set_link_down(n(1), n(2));
            f.set_link_up(n(1), n(2));
            f.set_node_up(n(11));
            f.set_link_down(n(6), n(7));
            f.shared.routes.clone()
        };
        assert_eq!(direct.len(), with_history.len());
        for (k, v) in &direct {
            assert_eq!(with_history.get(k), Some(v), "route {k:?} diverged");
        }
        // Equal-cost detours resolve to the smallest-id neighbor: from 6
        // toward 7 with 6->7 cut, both 2 (up) and 10 (down) give 3-hop
        // detours on the 4x4 mesh; the BFS must pick 2 every time.
        assert_eq!(direct.get(&(n(6), n(7))), Some(&n(2)));
        for _ in 0..5 {
            let mut f = mk_fabric();
            f.set_link_down(n(6), n(7));
            assert_eq!(f.shared.routes, direct);
        }
    }

    #[test]
    fn severed_destination_is_unroutable() {
        // A unidirectional ring has exactly one path; cutting it strands
        // the downstream neighbor.
        let mut f = Fabric::new(Topology::Ring { nodes: 5 }, FabricConfig::default());
        f.set_link_down(n(1), n(2));
        let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped);
        assert_eq!(f.unroutable(), 1);
        assert_eq!(f.dropped(), 1);
        // The rest of the ring still works: 2 -> 1 rides 2->3->4->5->1.
        let msg2 = Message::new(n(2), n(1), MsgKind::ReadReq { bytes: 64 }, 1);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg2);
        assert_eq!(hops, 4);
    }

    #[test]
    fn node_down_blocks_delivery_and_transit_until_restored() {
        let mut f = mk_fabric();
        f.set_node_down(n(2));
        assert!(f.node_is_down(n(2)));
        // Messages *to* the dead router drop as unroutable.
        let to_dead = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &to_dead), Step::Dropped);
        assert!(f.unroutable() > 0);
        // Messages *through* it detour and deliver.
        let through = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 1);
        let (_, hops) = walk(&mut f, SimTime::ZERO, through);
        assert_eq!(hops, 4);
        // Restart heals everything; no residual link outages remain.
        f.set_node_up(n(2));
        assert!(!f.node_is_down(n(2)));
        let again = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 2);
        let (_, hops) = walk(&mut f, SimTime::ZERO, again);
        assert_eq!(hops, 1);
    }

    #[test]
    fn node_restart_preserves_independent_link_outages() {
        let mut f = mk_fabric();
        f.set_link_down(n(5), n(6));
        f.set_node_down(n(2));
        f.set_node_up(n(2));
        // The cable cut predates (and outlives) the node crash.
        assert_eq!(f.links_down(), 1);
        let msg = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, 0);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert!(hops > 1, "5->6 must detour around the cut cable");
    }

    #[test]
    fn reroute_counters_accumulate_across_repeated_link_flaps() {
        let mut f = mk_fabric();
        let mut expected_rerouted = 0;
        for flap in 0..5u64 {
            f.set_link_down(n(1), n(2));
            // Down: 1->3 detours (healthy route is 1->2->3, 4 hops around),
            // and every detour hop that differs from dimension-order counts.
            let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, flap * 2);
            let before = f.rerouted();
            let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
            assert_eq!(hops, 4, "flap {flap}: detour must be 4 hops");
            let gained = f.rerouted() - before;
            assert!(gained > 0, "flap {flap}: detour not counted");
            expected_rerouted += gained;
            assert_eq!(f.links_down(), 1);
            // Up: dimension-order routing returns, counter stays flat.
            f.set_link_up(n(1), n(2));
            let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, flap * 2 + 1);
            let before = f.rerouted();
            let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
            assert_eq!(hops, 2, "flap {flap}: healthy route must return");
            assert_eq!(f.rerouted(), before, "flap {flap}: healthy hop counted");
            assert_eq!(f.links_down(), 0);
        }
        assert_eq!(f.rerouted(), expected_rerouted);
        assert_eq!(f.unroutable(), 0);
        assert_eq!(f.dropped(), 0);
        assert_eq!(f.delivered(), 10);
        // Flapping must not leak route-table state: a healthy fabric keeps
        // an empty table and the same counters as a never-flapped one.
        assert!(!f.shared.degraded());
        assert!(f.shared.routes.is_empty());
    }

    #[test]
    fn decomposed_steps_match_the_whole_fabric_path() {
        // Decomposed stepping (shared + counters + row, as the world's lane
        // executor drives it) must behave exactly like Fabric::step.
        let mut whole = mk_fabric();
        let mut split = mk_fabric();
        let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 9);
        let mut at = n(1);
        let mut now = SimTime::ZERO;
        loop {
            let want = whole.step(now, at, &msg);
            let (shared, counters, rows) = split.decompose();
            let (got, _) = step_row(
                shared,
                counters,
                &mut rows[at.get() as usize],
                now,
                at,
                &msg,
            );
            assert_eq!(got, want);
            match got {
                Step::Deliver { .. } | Step::Dropped => break,
                Step::Forward { next, arrive } => {
                    at = next;
                    now = arrive;
                }
            }
        }
        assert_eq!(split.delivered(), whole.delivered());
        assert_eq!(split.total_hops(), whole.total_hops());
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut f = mk_fabric();
        for tag in 0..100 {
            let msg = Message::new(n(1), n(16), MsgKind::ReadReq { bytes: 64 }, tag);
            walk(&mut f, SimTime::ZERO, msg);
        }
        assert_eq!(f.dropped(), 0);
        assert_eq!(f.delivered(), 100);
    }

    /// The coordinate-table router agrees with the reference
    /// `Topology::next_hop` on every ordered pair of distinct nodes, for
    /// every topology family at several sizes (degenerate rows and
    /// columns, odd and even torus extents, the 256-node serving mesh).
    #[test]
    fn table_next_hop_matches_the_topology_reference() {
        let mut topos = vec![
            Topology::Ring { nodes: 2 },
            Topology::Ring { nodes: 3 },
            Topology::Ring { nodes: 16 },
            Topology::FullyConnected { nodes: 2 },
            Topology::FullyConnected { nodes: 7 },
            Topology::FullyConnected { nodes: 16 },
        ];
        for (width, height) in [
            (1, 5),
            (5, 1),
            (2, 2),
            (3, 5),
            (4, 4),
            (7, 3),
            (8, 8),
            (16, 16),
        ] {
            topos.push(Topology::Mesh2D { width, height });
            topos.push(Topology::Torus2D { width, height });
        }
        for topo in topos {
            let f = Fabric::new(topo, FabricConfig::default());
            let nodes = topo.num_nodes();
            for a in (1..=nodes).map(n) {
                for b in (1..=nodes).map(n).filter(|&b| b != a) {
                    assert_eq!(
                        f.shared.next_hop(a, b),
                        topo.next_hop(a, b),
                        "{topo:?}: {a} -> {b}"
                    );
                }
            }
        }
    }

    /// The serialization table agrees with `FabricConfig::serialization` at
    /// every wire size it covers and past its end (where the formula
    /// takes over), at the default and at non-default link bandwidths.
    #[test]
    fn serialization_table_matches_the_formula() {
        for bytes_per_ns in [8.0, 3.3, 0.7, 12.5] {
            let cfg = FabricConfig {
                bytes_per_ns,
                ..FabricConfig::default()
            };
            let f = Fabric::new(Topology::prototype(), cfg);
            assert_eq!(f.shared.ser_table.len(), SER_TABLE_MAX_WIRE as usize + 1);
            let past_end = [65_536, 1 << 20, u32::MAX];
            for wire in (0..=SER_TABLE_MAX_WIRE + 4_096).chain(past_end) {
                assert_eq!(
                    f.shared.serialization(wire),
                    cfg.serialization(wire),
                    "{bytes_per_ns} B/ns, {wire} B"
                );
            }
        }
    }
}
