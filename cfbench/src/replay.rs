//! Traced replays of the two b-tree backends.
//!
//! Each replay re-composes a backend's access path from the public layer
//! types (`PageTable`, `CacheHierarchy`, `SparseStore`, `PageCache`,
//! `World`) and records a span around every layer call. The self-check in
//! [`crate::btree`] compares a replay's simulated clock and counters with
//! the real backend's after the same operations, so per-layer numbers never
//! come from a replay that models a different program. The timing rules
//! below therefore mirror `RemoteMemorySpace` (cacheable, blocking writes,
//! no prefetcher) and `SwapSpace::remote` over the fabric transport, step
//! for step.

use crate::btree::Backend;
use crate::trace::{Layer, Recorder};
use cohfree_core::backend::AccessStats;
use cohfree_core::{ClusterConfig, MemSpace, MsgKind, NodeId, SimDuration, SimTime, World};
use cohfree_mem::{CacheHierarchy, Level, SparseStore};
use cohfree_os::pagetable::{PageTable, Translation, PAGE_BYTES};
use cohfree_os::swap::{PageCache, SwapStats, Touch};
use cohfree_rmc::addr::RemoteRef;
use cohfree_sim::FastMap;

/// Counters the replays keep beside the span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounters {
    /// `CacheHierarchy::access` calls.
    pub cache_accesses: u64,
    /// `CacheHierarchy::access` outcomes that missed the whole hierarchy.
    pub cache_misses: u64,
    /// Lines the cache handed back for write-back (victims and flushes).
    pub cache_writebacks: u64,
    /// Summed simulated duration of blocking transactions, picoseconds.
    pub tx_sim_ps: u64,
    /// Engine events processed inside blocking transactions.
    pub tx_events: u64,
    /// Largest fabric link backlog seen as a transaction starts, ns.
    pub max_link_backlog_ns: f64,
}

/// Per-layer state shared by both replays: the cluster, the recorder, the
/// layer counters and the zone allocator. Its methods wrap each call into
/// a layer in a span.
pub struct Traced {
    /// The replay's own cluster.
    pub world: World,
    /// Span recorder.
    pub rec: Recorder,
    /// Layer counters.
    pub counters: PathCounters,
    node: NodeId,
    servers: Vec<NodeId>,
    zone_frames: u64,
    server_rr: usize,
    /// (prefixed base, frames, used)
    zone: Option<(u64, u64, u64)>,
    #[cfg(test)]
    pub(crate) drop_walk_charges: u32,
}

impl Traced {
    fn new(
        cfg: ClusterConfig,
        node: NodeId,
        servers: Vec<NodeId>,
        zone_frames: u64,
        sample_every: u64,
    ) -> Traced {
        Traced {
            world: World::new(cfg),
            rec: Recorder::new(sample_every),
            counters: PathCounters::default(),
            node,
            servers,
            zone_frames,
            server_rr: 0,
            zone: None,
            #[cfg(test)]
            drop_walk_charges: 0,
        }
    }

    fn transaction(&mut self, start: SimTime, home: NodeId, kind: MsgKind, addr: u64) -> SimTime {
        let backlog = self.world.fabric().max_link_backlog(start).as_ns_f64();
        self.counters.max_link_backlog_ns = self.counters.max_link_backlog_ns.max(backlog);
        let ev0 = self.world.events_processed();
        self.rec.enter(Layer::WorldTx);
        let done = self
            .world
            .blocking_transaction(start, self.node, home, kind, addr);
        self.rec.exit();
        self.counters.tx_sim_ps += done.saturating_since(start).as_ps();
        self.counters.tx_events += self.world.events_processed() - ev0;
        done
    }

    fn local_access(&mut self, now: SimTime, addr: u64, bytes: u32) -> SimTime {
        self.rec.enter(Layer::WorldLocal);
        let t = self.world.local_access(now, self.node, addr, bytes);
        self.rec.exit();
        t
    }

    /// The next page of the current zone. When the zone is used up, a new
    /// one is reserved from the next server round-robin, and its software
    /// cost is charged to `clock`.
    fn zone_page(&mut self, clock: &mut SimTime, stats: &mut AccessStats) -> u64 {
        if self.zone.is_none_or(|(_, frames, used)| used == frames) {
            let donor = self.servers[self.server_rr % self.servers.len()];
            self.server_rr += 1;
            self.rec.enter(Layer::WorldResv);
            let r = self
                .world
                .reserve_remote(self.node, self.zone_frames, Some(donor));
            self.rec.exit();
            *clock += self.world.config().os.reservation;
            stats.reservations += 1;
            self.zone = Some((r.prefixed_base, r.frames, 0));
        }
        let (base, _, used) = self.zone.as_mut().expect("zone just ensured");
        let page = *base + *used * PAGE_BYTES;
        *used += 1;
        page
    }

    fn translate(&mut self, pt: &mut PageTable, va: u64) -> Translation {
        self.rec.enter(Layer::PageTable);
        let t = pt.translate(va);
        self.rec.exit();
        t
    }

    fn cache_access(
        &mut self,
        cache: &mut CacheHierarchy,
        phys: u64,
        write: bool,
    ) -> cohfree_mem::HierarchyOutcome {
        self.rec.enter(Layer::Cache);
        let out = cache.access(phys, write);
        self.rec.exit();
        self.counters.cache_accesses += 1;
        if out.level == Level::Memory {
            self.counters.cache_misses += 1;
        }
        self.counters.cache_writebacks += out.memory_writebacks.len() as u64;
        out
    }

    /// The TLB-walk charge (tests can drop some to prove the self-check).
    fn walk_charge(&mut self, cfg: &ClusterConfig) -> SimDuration {
        #[cfg(test)]
        if self.drop_walk_charges > 0 {
            self.drop_walk_charges -= 1;
            return SimDuration::ZERO;
        }
        cfg.os.tlb_walk
    }
}

/// What the per-layer report needs from a replay beyond `Backend`.
pub trait Replay: Backend {
    /// Cluster, recorder and layer counters.
    fn traced(&self) -> &Traced;
    /// Pages the functional store holds.
    fn resident_pages(&self) -> usize;
}

/// One MemSpace call: a backend span around the timed line walk and the
/// functional store access.
macro_rules! backend_call {
    ($self:ident, $va:expr, $len:expr, $write:expr, $store:expr) => {{
        $self.t.rec.enter(Layer::Backend);
        let line = $self.cache.line_bytes() as u64;
        let mut a = $va & !(line - 1);
        let end = $va + $len as u64;
        while a < end {
            $self.line_access(a, $write);
            if $write {
                $self.stats.writes += 1;
            } else {
                $self.stats.reads += 1;
            }
            a += line;
        }
        if $write {
            $self.stats.bytes_written += $len as u64;
        } else {
            $self.stats.bytes_read += $len as u64;
        }
        $self.t.rec.enter(Layer::Store);
        $store;
        $self.t.rec.exit();
        $self.t.rec.exit();
    }};
}

/// Traced replay of `RemoteMemorySpace` (`AlwaysRemote`, explicit servers).
pub struct RemoteReplay {
    /// Cluster, recorder and layer counters.
    pub t: Traced,
    cfg: ClusterConfig,
    node: NodeId,
    pt: PageTable,
    cache: CacheHierarchy,
    /// Functional contents.
    store: SparseStore,
    clock: SimTime,
    stats: AccessStats,
    bump_va: u64,
    next_vpn: u64,
}

impl RemoteReplay {
    /// A process on `node` borrowing `zone_frames`-frame zones round-robin
    /// from `servers`; full spans kept for every `sample_every`-th op.
    pub fn new(
        cfg: ClusterConfig,
        node: NodeId,
        servers: Vec<NodeId>,
        zone_frames: u64,
        sample_every: u64,
    ) -> RemoteReplay {
        RemoteReplay {
            t: Traced::new(cfg, node, servers, zone_frames, sample_every),
            cfg,
            node,
            pt: PageTable::new(cfg.tlb),
            cache: CacheHierarchy::new(cfg.l1, cfg.cache),
            store: SparseStore::new(),
            clock: SimTime::ZERO,
            stats: AccessStats::default(),
            bump_va: 0x1000,
            next_vpn: 1,
        }
    }

    fn home_of(&self, phys: u64) -> Option<NodeId> {
        match cohfree_rmc::addr::decode(self.node, phys).expect_no_loopback() {
            RemoteRef::Remote { home, .. } => Some(home),
            RemoteRef::Local { .. } => None,
            RemoteRef::Loopback { .. } => unreachable!("loopback rejected above"),
        }
    }

    fn line_access(&mut self, va: u64, write: bool) {
        let phys = match self.t.translate(&mut self.pt, va) {
            Translation::TlbHit { phys } => phys,
            Translation::Walked { phys } => {
                self.stats.tlb_walks += 1;
                self.clock += self.t.walk_charge(&self.cfg);
                phys
            }
            Translation::MajorFault { .. } => unreachable!("remote-memory pages are pinned"),
            Translation::Unmapped => panic!("access to unallocated VA {va:#x}"),
        };
        let line_bytes = self.cache.line_bytes();
        let home = self.home_of(phys);
        let out = self.t.cache_access(&mut self.cache, phys, write);
        match out.level {
            Level::L1 => {
                self.stats.cache_hits += 1;
                self.clock += self.cfg.os.l1_hit;
            }
            Level::L2 => {
                self.stats.cache_hits += 1;
                self.clock += self.cfg.os.cache_hit;
            }
            Level::Memory => {
                self.stats.cache_misses += 1;
                self.clock += self.cfg.os.cache_hit;
                for &victim in &out.memory_writebacks {
                    match self.home_of(victim) {
                        None => {
                            self.t.local_access(self.clock, victim, line_bytes);
                        }
                        Some(vhome) => {
                            self.stats.remote_writes += 1;
                            self.clock = self.t.transaction(
                                self.clock,
                                vhome,
                                MsgKind::WriteReq { bytes: line_bytes },
                                victim,
                            );
                        }
                    }
                }
                match home {
                    None => self.clock = self.t.local_access(self.clock, phys, line_bytes),
                    Some(h) => {
                        self.stats.remote_reads += 1;
                        self.clock = self.t.transaction(
                            self.clock,
                            h,
                            MsgKind::ReadReq { bytes: line_bytes },
                            phys & !(line_bytes as u64 - 1),
                        );
                    }
                }
            }
        }
    }
}

impl MemSpace for RemoteReplay {
    fn alloc(&mut self, bytes: u64) -> u64 {
        assert!(bytes > 0, "zero-byte allocation");
        self.clock += self.cfg.os.malloc_overhead;
        let va = self.bump_va;
        self.bump_va = (va + bytes + 15) & !15;
        let last_vpn = PageTable::vpn(self.bump_va - 1);
        while self.next_vpn <= last_vpn {
            let frame = self.t.zone_page(&mut self.clock, &mut self.stats);
            self.pt.map(self.next_vpn, frame);
            self.next_vpn += 1;
        }
        self.stats.allocations += 1;
        va
    }

    fn read(&mut self, va: u64, buf: &mut [u8]) {
        backend_call!(self, va, buf.len(), false, self.store.read(va, buf));
    }

    fn write(&mut self, va: u64, data: &[u8]) {
        backend_call!(self, va, data.len(), true, self.store.write(va, data));
    }

    fn compute(&mut self, d: SimDuration) {
        self.clock += d;
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }
}

impl Replay for RemoteReplay {
    fn traced(&self) -> &Traced {
        &self.t
    }

    fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }
}

impl Backend for RemoteReplay {
    fn world(&self) -> &World {
        &self.t.world
    }

    fn begin_op(&mut self, op: u64) {
        self.t.rec.begin_op(op);
    }

    fn end_op(&mut self) {
        self.t.rec.end_op();
    }
}

/// Demand-zero fault cost `SwapSpace` charges per minor fault.
const MINOR_FAULT_COST: SimDuration = SimDuration::us(2);

/// Traced replay of `SwapSpace::remote` with the fabric transport.
pub struct SwapReplay {
    /// Cluster, recorder and layer counters.
    pub t: Traced,
    cfg: ClusterConfig,
    pt: PageTable,
    cache: CacheHierarchy,
    page_cache: PageCache,
    /// vpn -> (backing slot, materialized)
    homes: FastMap<u64, (u64, bool)>,
    frame_of: FastMap<u64, u64>,
    next_frame: u64,
    /// Functional contents.
    store: SparseStore,
    clock: SimTime,
    stats: AccessStats,
    bump_va: u64,
    next_vpn: u64,
}

impl SwapReplay {
    /// A process on `node` with `cache_pages` resident pages, swapping to
    /// `zone_frames`-frame zones borrowed round-robin from `servers`.
    pub fn new(
        cfg: ClusterConfig,
        node: NodeId,
        cache_pages: usize,
        servers: Vec<NodeId>,
        zone_frames: u64,
        sample_every: u64,
    ) -> SwapReplay {
        SwapReplay {
            t: Traced::new(cfg, node, servers, zone_frames, sample_every),
            cfg,
            pt: PageTable::new(cfg.tlb),
            cache: CacheHierarchy::new(cfg.l1, cfg.cache),
            page_cache: PageCache::new(cache_pages),
            homes: FastMap::default(),
            frame_of: FastMap::default(),
            next_frame: 0,
            store: SparseStore::new(),
            clock: SimTime::ZERO,
            stats: AccessStats::default(),
            bump_va: 0x1000,
            next_vpn: 1,
        }
    }

    fn page_move(&mut self, slot: u64, kind: MsgKind) {
        let (prefix, _) = cohfree_rmc::addr::split(slot);
        self.clock = self
            .t
            .transaction(self.clock, NodeId::new(prefix), kind, slot);
    }

    fn touch(&mut self, vpn: u64, write: bool) -> Touch {
        self.t.rec.enter(Layer::PageCache);
        let touch = self.page_cache.touch(vpn, write);
        self.t.rec.exit();
        touch
    }

    fn fault_in(&mut self, vpn: u64, write: bool) {
        self.t.rec.enter(Layer::SwapFault);
        let (slot, materialized) = *self
            .homes
            .get(&vpn)
            .unwrap_or_else(|| panic!("fault on unallocated vpn {vpn:#x}"));
        let frame = match self.touch(vpn, write) {
            Touch::Hit => unreachable!("fault raised for a resident page"),
            Touch::Miss { evicted: Some(e) } => {
                let victim_frame = self
                    .frame_of
                    .remove(&e.vpage)
                    .expect("resident victim must have a frame");
                let victim_slot = self.homes.get(&e.vpage).expect("victim has a home").0;
                self.pt.mark_swapped(e.vpage, victim_slot);
                self.t.rec.enter(Layer::Cache);
                let flushed = self.cache.flush_range(victim_frame, PAGE_BYTES);
                self.t.rec.exit();
                self.t.counters.cache_writebacks += flushed.len() as u64;
                if e.dirty {
                    self.stats.pages_out += 1;
                    self.page_move(
                        victim_slot,
                        MsgKind::PageWrite {
                            bytes: PAGE_BYTES as u32,
                        },
                    );
                }
                victim_frame
            }
            Touch::Miss { evicted: None } => {
                let f = self.next_frame;
                self.next_frame += PAGE_BYTES;
                f
            }
        };
        if materialized {
            self.stats.major_faults += 1;
            self.clock += self.cfg.os.fault_overhead;
            self.stats.pages_in += 1;
            self.page_move(
                slot,
                MsgKind::PageReq {
                    bytes: PAGE_BYTES as u32,
                },
            );
        } else {
            self.stats.minor_faults += 1;
            self.clock += MINOR_FAULT_COST;
            self.homes.get_mut(&vpn).expect("checked above").1 = true;
        }
        self.frame_of.insert(vpn, frame);
        self.pt.map(vpn, frame);
        self.t.rec.exit();
    }

    fn line_access(&mut self, va: u64, write: bool) {
        let vpn = PageTable::vpn(va);
        let phys = loop {
            match self.t.translate(&mut self.pt, va) {
                Translation::TlbHit { phys } => break phys,
                Translation::Walked { phys } => {
                    self.stats.tlb_walks += 1;
                    self.clock += self.t.walk_charge(&self.cfg);
                    break phys;
                }
                Translation::MajorFault { .. } => self.fault_in(vpn, write),
                Translation::Unmapped => panic!("access to unallocated VA {va:#x}"),
            }
        };
        if matches!(self.touch(vpn, write), Touch::Miss { .. }) {
            unreachable!("page translated as present but not resident");
        }
        let line_bytes = self.cache.line_bytes();
        let out = self.t.cache_access(&mut self.cache, phys, write);
        match out.level {
            Level::L1 => {
                self.stats.cache_hits += 1;
                self.clock += self.cfg.os.l1_hit;
            }
            Level::L2 => {
                self.stats.cache_hits += 1;
                self.clock += self.cfg.os.cache_hit;
            }
            Level::Memory => {
                self.stats.cache_misses += 1;
                self.clock += self.cfg.os.cache_hit;
                self.clock = self.t.local_access(self.clock, phys, line_bytes);
            }
        }
        for victim in out.memory_writebacks {
            self.t.local_access(self.clock, victim, line_bytes);
        }
    }
}

impl MemSpace for SwapReplay {
    fn alloc(&mut self, bytes: u64) -> u64 {
        assert!(bytes > 0, "zero-byte allocation");
        self.clock += self.cfg.os.malloc_overhead;
        let va = self.bump_va;
        self.bump_va = (va + bytes + 15) & !15;
        let last_vpn = PageTable::vpn(self.bump_va - 1);
        while self.next_vpn <= last_vpn {
            let slot = self.t.zone_page(&mut self.clock, &mut self.stats);
            self.homes.insert(self.next_vpn, (slot, false));
            self.pt.mark_swapped(self.next_vpn, slot);
            self.next_vpn += 1;
        }
        self.stats.allocations += 1;
        va
    }

    fn read(&mut self, va: u64, buf: &mut [u8]) {
        backend_call!(self, va, buf.len(), false, self.store.read(va, buf));
    }

    fn write(&mut self, va: u64, data: &[u8]) {
        backend_call!(self, va, data.len(), true, self.store.write(va, data));
    }

    fn compute(&mut self, d: SimDuration) {
        self.clock += d;
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }
}

impl Replay for SwapReplay {
    fn traced(&self) -> &Traced {
        &self.t
    }

    fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }
}

impl Backend for SwapReplay {
    fn world(&self) -> &World {
        &self.t.world
    }

    fn swap_stats(&self) -> Option<SwapStats> {
        Some(self.page_cache.stats())
    }

    fn begin_op(&mut self, op: u64) {
        self.t.rec.begin_op(op);
    }

    fn end_op(&mut self) {
        self.t.rec.end_op();
    }
}
