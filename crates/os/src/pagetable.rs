//! Per-process virtual memory: page table and TLB.
//!
//! Section III-B of the paper leans on standard x86-64 virtual memory: the
//! OS writes a virtual→physical translation into the page table — where the
//! *physical* address may carry a remote-node prefix — and from then on the
//! hardware TLB/walker path makes loads and stores reach remote memory with
//! no software involved. We model:
//!
//! * a page table mapping virtual page numbers to 48-bit physical addresses
//!   (possibly prefixed) with per-page state,
//! * a fully-associative LRU [`Tlb`] of configurable size,
//! * translation outcomes distinguishing TLB hits, walks, and faults, so the
//!   owning backend can charge the right costs.

use cohfree_sim::FastMap;

/// Page size (matches the frame size).
pub const PAGE_BYTES: u64 = 4096;

/// Per-page state flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFlags {
    /// Mapped to a resident physical frame (local, or remote via prefix).
    Present,
    /// Known to the process but currently swapped out to the given swap
    /// slot (page-cache backends fault it in on access).
    Swapped {
        /// Backing-store slot holding the page contents.
        slot: u64,
    },
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical address of the page frame (page-aligned; may be prefixed).
    pub phys: u64,
    /// Page state.
    pub flags: PageFlags,
}

/// Outcome of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// TLB hit: physical address of the access.
    TlbHit {
        /// Translated physical address.
        phys: u64,
    },
    /// TLB miss but a valid PTE was found by the walker: charge a walk.
    Walked {
        /// Translated physical address.
        phys: u64,
    },
    /// Page is swapped out: major fault; the handler must bring it in and
    /// re-map before retrying.
    MajorFault {
        /// Backing-store slot to fetch the page from.
        slot: u64,
    },
    /// No mapping at all: the access is to unallocated memory.
    Unmapped,
}

/// TLB geometry.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Entries (fully associative, LRU).
    pub entries: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig { entries: 64 }
    }
}

/// Fully-associative LRU TLB.
///
/// Entries live in parallel slot arrays (`vpns`/`phys`/`stamps`) indexed by
/// a `vpn → slot` map: a hit is one map probe, and choosing the LRU victim
/// scans only the `entries`-long `stamps` slice. The clock ticks on every
/// lookup and insert, so stamps are unique and the victim is the unique
/// minimum — slot order never affects which entry is evicted.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// vpn -> slot in the arrays below.
    slots: FastMap<u64, usize>,
    vpns: Vec<u64>,
    phys: Vec<u64>,
    /// LRU stamps: larger = more recently used.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// An empty TLB.
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        Tlb {
            cfg,
            slots: FastMap::default(),
            vpns: Vec::with_capacity(cfg.entries),
            phys: Vec::with_capacity(cfg.entries),
            stamps: Vec::with_capacity(cfg.entries),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a virtual page number; LRU-refresh on hit.
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        self.clock += 1;
        match self.slots.get(&vpn) {
            Some(&slot) => {
                self.stamps[slot] = self.clock;
                self.hits += 1;
                Some(self.phys[slot])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install a translation (evicting the LRU entry if full).
    pub fn insert(&mut self, vpn: u64, phys_page: u64) {
        self.clock += 1;
        if let Some(&slot) = self.slots.get(&vpn) {
            self.phys[slot] = phys_page;
            self.stamps[slot] = self.clock;
            return;
        }
        if self.vpns.len() < self.cfg.entries {
            self.slots.insert(vpn, self.vpns.len());
            self.vpns.push(vpn);
            self.phys.push(phys_page);
            self.stamps.push(self.clock);
            return;
        }
        let victim = self
            .stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(slot, _)| slot)
            .expect("a full TLB has entries");
        self.slots.remove(&self.vpns[victim]);
        self.slots.insert(vpn, victim);
        self.vpns[victim] = vpn;
        self.phys[victim] = phys_page;
        self.stamps[victim] = self.clock;
    }

    /// Drop a translation (on unmap / swap-out).
    pub fn invalidate(&mut self, vpn: u64) {
        let Some(slot) = self.slots.remove(&vpn) else {
            return;
        };
        self.vpns.swap_remove(slot);
        self.phys.swap_remove(slot);
        self.stamps.swap_remove(slot);
        if let Some(&moved) = self.vpns.get(slot) {
            self.slots.insert(moved, slot);
        }
    }

    /// Drop everything (context switch / global shootdown).
    pub fn flush(&mut self) {
        self.slots.clear();
        self.vpns.clear();
        self.phys.clear();
        self.stamps.clear();
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.vpns.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.vpns.is_empty()
    }
}

/// A per-process page table plus its TLB.
#[derive(Debug)]
pub struct PageTable {
    ptes: FastMap<u64, Pte>,
    tlb: Tlb,
    walks: u64,
    major_faults: u64,
}

impl PageTable {
    /// An empty address space.
    pub fn new(tlb: TlbConfig) -> PageTable {
        PageTable {
            ptes: FastMap::default(),
            tlb: Tlb::new(tlb),
            walks: 0,
            major_faults: 0,
        }
    }

    /// Virtual page number of `va`.
    #[inline]
    pub fn vpn(va: u64) -> u64 {
        va / PAGE_BYTES
    }

    /// Map virtual page `vpn` to the page-aligned physical address `phys`
    /// (present). Overwrites any previous mapping and invalidates the TLB
    /// entry.
    pub fn map(&mut self, vpn: u64, phys: u64) {
        debug_assert!(phys.is_multiple_of(PAGE_BYTES), "unaligned frame address");
        self.ptes.insert(
            vpn,
            Pte {
                phys,
                flags: PageFlags::Present,
            },
        );
        self.tlb.invalidate(vpn);
    }

    /// Mark `vpn` swapped out to `slot`.
    pub fn mark_swapped(&mut self, vpn: u64, slot: u64) {
        self.ptes.insert(
            vpn,
            Pte {
                phys: 0,
                flags: PageFlags::Swapped { slot },
            },
        );
        self.tlb.invalidate(vpn);
    }

    /// Remove the mapping entirely.
    pub fn unmap(&mut self, vpn: u64) {
        self.ptes.remove(&vpn);
        self.tlb.invalidate(vpn);
    }

    /// Translate a virtual address.
    pub fn translate(&mut self, va: u64) -> Translation {
        let vpn = Self::vpn(va);
        let off = va % PAGE_BYTES;
        if let Some(page) = self.tlb.lookup(vpn) {
            return Translation::TlbHit { phys: page + off };
        }
        match self.ptes.get(&vpn) {
            Some(Pte {
                phys,
                flags: PageFlags::Present,
            }) => {
                self.walks += 1;
                self.tlb.insert(vpn, *phys);
                Translation::Walked { phys: phys + off }
            }
            Some(Pte {
                flags: PageFlags::Swapped { slot },
                ..
            }) => {
                self.major_faults += 1;
                Translation::MajorFault { slot: *slot }
            }
            None => Translation::Unmapped,
        }
    }

    /// Current PTE for `vpn`, if any.
    pub fn pte(&self, vpn: u64) -> Option<Pte> {
        self.ptes.get(&vpn).copied()
    }

    /// Page walks performed (TLB misses with a valid mapping).
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Major faults raised (swapped pages touched).
    pub fn major_faults(&self) -> u64 {
        self.major_faults
    }

    /// The TLB (for stats / explicit invalidation).
    pub fn tlb(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.ptes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map-scan TLB the slot-array [`Tlb`] replaced, kept as the
    /// reference model for the differential test below.
    struct RefTlb {
        entries: usize,
        /// vpn -> (phys page base, lru stamp)
        map: FastMap<u64, (u64, u64)>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl RefTlb {
        fn new(entries: usize) -> RefTlb {
            RefTlb {
                entries,
                map: FastMap::default(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn lookup(&mut self, vpn: u64) -> Option<u64> {
            self.clock += 1;
            match self.map.get_mut(&vpn) {
                Some((phys, stamp)) => {
                    *stamp = self.clock;
                    self.hits += 1;
                    Some(*phys)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, vpn: u64, phys_page: u64) {
            self.clock += 1;
            if self.map.len() >= self.entries && !self.map.contains_key(&vpn) {
                if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, s))| *s) {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(vpn, (phys_page, self.clock));
        }

        fn entries(&self) -> Vec<(u64, u64, u64)> {
            let mut v: Vec<_> = self.map.iter().map(|(&k, &(p, s))| (k, p, s)).collect();
            v.sort_unstable();
            v
        }
    }

    /// Resident `(vpn, phys, stamp)` triples, sorted, after checking that
    /// the slot index and the slot arrays agree.
    fn entries(t: &Tlb) -> Vec<(u64, u64, u64)> {
        assert_eq!(t.slots.len(), t.vpns.len());
        assert_eq!(t.phys.len(), t.vpns.len());
        assert_eq!(t.stamps.len(), t.vpns.len());
        for (slot, vpn) in t.vpns.iter().enumerate() {
            assert_eq!(t.slots[vpn], slot, "slot index stale for vpn {vpn}");
        }
        let mut v: Vec<_> = (0..t.vpns.len())
            .map(|i| (t.vpns[i], t.phys[i], t.stamps[i]))
            .collect();
        v.sort_unstable();
        v
    }

    /// Seeded random lookup/insert/invalidate/flush streams: the slot-array
    /// TLB returns the same translations, evicts the same victims (same
    /// resident entries and stamps after every op) and counts the same
    /// hits and misses as the map-scan reference.
    #[test]
    fn tlb_matches_the_map_scan_reference() {
        for seed in 0..12u64 {
            let mut rng = cohfree_sim::Rng::new(0x71B0 + seed);
            let size = [1usize, 2, 7, 64][seed as usize % 4];
            let span = size as u64 * 3 + 2;
            let mut tlb = Tlb::new(TlbConfig { entries: size });
            let mut reference = RefTlb::new(size);
            for _ in 0..20_000 {
                let vpn = rng.below(span);
                match rng.below(100) {
                    0..=49 => assert_eq!(tlb.lookup(vpn), reference.lookup(vpn)),
                    50..=84 => {
                        let phys = rng.below(1 << 20) * PAGE_BYTES;
                        tlb.insert(vpn, phys);
                        reference.insert(vpn, phys);
                    }
                    85..=98 => {
                        tlb.invalidate(vpn);
                        reference.map.remove(&vpn);
                    }
                    _ => {
                        tlb.flush();
                        reference.map.clear();
                    }
                }
                assert_eq!(entries(&tlb), reference.entries());
                assert!(tlb.len() <= size);
            }
            assert_eq!(
                (tlb.hits(), tlb.misses()),
                (reference.hits, reference.misses)
            );
        }
    }

    #[test]
    fn unmapped_translation() {
        let mut pt = PageTable::new(TlbConfig::default());
        assert_eq!(pt.translate(0x1000), Translation::Unmapped);
    }

    #[test]
    fn walk_then_tlb_hit() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x8000);
        assert_eq!(pt.translate(0x1123), Translation::Walked { phys: 0x8123 });
        assert_eq!(pt.translate(0x1456), Translation::TlbHit { phys: 0x8456 });
        assert_eq!(pt.walks(), 1);
        assert_eq!(pt.tlb().hits(), 1);
    }

    #[test]
    fn prefixed_physical_addresses_flow_through() {
        // The essence of the paper: the OS writes a *remote* physical
        // address into the page table and translation just works.
        let mut pt = PageTable::new(TlbConfig::default());
        let remote = (3u64 << 34) | 0x4100_0000;
        pt.map(10, remote);
        assert_eq!(
            pt.translate(10 * PAGE_BYTES + 0xB0),
            Translation::Walked {
                phys: remote + 0xB0
            }
        );
    }

    #[test]
    fn swapped_page_faults() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.mark_swapped(5, 77);
        assert_eq!(
            pt.translate(5 * PAGE_BYTES),
            Translation::MajorFault { slot: 77 }
        );
        assert_eq!(pt.major_faults(), 1);
        // Fault handler maps it in; next access walks.
        pt.map(5, 0x2000);
        assert_eq!(
            pt.translate(5 * PAGE_BYTES),
            Translation::Walked { phys: 0x2000 }
        );
    }

    #[test]
    fn remap_invalidates_tlb() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(0x1000); // loads TLB
        pt.map(1, 0x9000);
        assert_eq!(pt.translate(0x1000), Translation::Walked { phys: 0x9000 });
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(0x1000);
        pt.unmap(1);
        assert_eq!(pt.translate(0x1000), Translation::Unmapped);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut pt = PageTable::new(TlbConfig { entries: 2 });
        pt.map(1, 0x1000);
        pt.map(2, 0x2000);
        pt.map(3, 0x3000);
        pt.translate(PAGE_BYTES); // vpn 1 -> TLB
        pt.translate(2 * PAGE_BYTES); // vpn 2 -> TLB
        pt.translate(PAGE_BYTES); // refresh vpn 1
        pt.translate(3 * PAGE_BYTES); // evicts vpn 2
        assert!(matches!(
            pt.translate(PAGE_BYTES),
            Translation::TlbHit { .. }
        ));
        assert!(matches!(
            pt.translate(2 * PAGE_BYTES),
            Translation::Walked { .. }
        ));
    }

    #[test]
    fn tlb_flush() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(PAGE_BYTES);
        pt.tlb().flush();
        assert!(pt.tlb().is_empty());
        assert!(matches!(
            pt.translate(PAGE_BYTES),
            Translation::Walked { .. }
        ));
    }

    #[test]
    fn mark_swapped_after_present_invalidates() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(4, 0x4000);
        pt.translate(4 * PAGE_BYTES);
        pt.mark_swapped(4, 9);
        assert_eq!(
            pt.translate(4 * PAGE_BYTES),
            Translation::MajorFault { slot: 9 }
        );
    }
}
