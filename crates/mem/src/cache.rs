//! Set-associative write-back cache (timing filter).
//!
//! One cache instance models the cache hierarchy a single application core
//! sees (the prototype binds memory-hungry processes to one core). It caches
//! *physical* lines — both local DRAM and RMC-mapped remote ranges, because
//! the prototype configures remote memory write-back cacheable. It tracks
//! tags, dirtiness and LRU order only; data lives in the functional store
//! (see the crate docs for why that is exact here).
//!
//! The owner asks `access(addr, write)` and receives hit/miss plus any
//! victim writeback it must perform; `flush*` returns the dirty lines that a
//! read-only parallel phase must push out before other cores may share the
//! region (Section IV-B of the paper).

use cohfree_sim::stats::Counter;
use cohfree_sim::FastMap;

/// Log2 of the residency-group size in lines: groups of 64 lines (one 4 KiB
/// page at 64 B lines) get a `u64` bitmask of resident lines (bit
/// `line index & 63`) so range flushes visit only lines that are cached.
const GROUP_SHIFT: u32 = 6;

/// Cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 2 MiB, 16-way, 64 B lines — an Opteron-era L2/L3 aggregate.
        CacheConfig {
            line_bytes: 64,
            sets: 2048,
            ways: 16,
        }
    }
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_bytes as u64 * self.sets as u64 * self.ways as u64
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; it has been filled. If a dirty victim was displaced, its
    /// line-aligned address is returned and the caller must write it back.
    Miss {
        /// Line-aligned address of a displaced dirty victim the caller
        /// must write back, if any.
        victim_writeback: Option<u64>,
    },
}

/// A set-associative write-back cache over physical addresses.
///
/// Tags, LRU stamps and dirty bits are flat `sets × ways` arrays, set-major;
/// a set's live lines are its first `fill[set]` slots. The clock ticks on
/// every touch, so LRU stamps are unique and the victim is the unique
/// minimum — slot order within a set never affects any outcome.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    /// log2(line_bytes): address → line index.
    line_shift: u32,
    /// log2(sets): line index → tag.
    set_shift: u32,
    tags: Vec<u64>,
    /// LRU stamps: larger = more recently used.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    /// Live lines per set.
    fill: Vec<u32>,
    /// Bitmask of resident lines per 64-line group (key: line index >>
    /// GROUP_SHIFT; bit: line index & 63). Lets `flush_range` visit only
    /// resident lines and skip empty groups with one probe — the dominant
    /// case when the swap path flushes a cold victim page on every
    /// page-cache eviction.
    group_lines: FastMap<u64, u64>,
    clock: u64,
    hits: Counter,
    misses: Counter,
    writebacks: Counter,
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    /// Panics unless `line_bytes` and `sets` are powers of two and `ways ≥ 1`.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(cfg.ways >= 1, "cache needs at least one way");
        let slots = cfg.sets as usize * cfg.ways as usize;
        Cache {
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
            tags: vec![0; slots],
            lru: vec![0; slots],
            dirty: vec![false; slots],
            fill: vec![0; cfg.sets as usize],
            group_lines: FastMap::default(),
            cfg,
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            writebacks: Counter::new(),
        }
    }

    /// The geometry in force.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line index (address / line size) of `addr`.
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, li: u64) -> usize {
        (li & (self.cfg.sets as u64 - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, li: u64) -> u64 {
        li >> self.set_shift
    }

    /// Line index of the line in `slot` of `set`.
    #[inline]
    fn line_in(&self, set: usize, slot: usize) -> u64 {
        (self.tags[slot] << self.set_shift) | set as u64
    }

    /// Slot holding line `li`, if resident.
    #[inline]
    fn find(&self, li: u64) -> Option<usize> {
        let set = self.set_of(li);
        let base = set * self.ways;
        let tag = self.tag_of(li);
        self.tags[base..base + self.fill[set] as usize]
            .iter()
            .position(|&t| t == tag)
            .map(|i| base + i)
    }

    /// Fill line `li` (known absent), evicting the set's LRU line when the
    /// set is full. Returns the evicted line's index and dirtiness.
    fn fill_line(&mut self, li: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_of(li);
        let base = set * self.ways;
        let n = self.fill[set] as usize;
        let (slot, evicted) = if n < self.ways {
            self.fill[set] += 1;
            (base + n, None)
        } else {
            let slot = base
                + self.lru[base..base + self.ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &s)| s)
                    .map(|(i, _)| i)
                    .expect("a set has at least one way");
            (slot, Some((self.line_in(set, slot), self.dirty[slot])))
        };
        self.tags[slot] = self.tag_of(li);
        self.lru[slot] = self.clock;
        self.dirty[slot] = dirty;
        *self.group_lines.entry(li >> GROUP_SHIFT).or_insert(0) |= 1 << (li & 63);
        if let Some((victim, _)) = evicted {
            let g = victim >> GROUP_SHIFT;
            let mask = self
                .group_lines
                .get_mut(&g)
                .expect("a resident line's group is tracked");
            *mask &= !(1 << (victim & 63));
            if *mask == 0 {
                self.group_lines.remove(&g);
            }
        }
        evicted
    }

    /// Look up the line containing `addr`; fill on miss. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        let li = self.line_of(addr);
        if let Some(slot) = self.find(li) {
            self.lru[slot] = self.clock;
            self.dirty[slot] |= write;
            self.hits.inc();
            return CacheOutcome::Hit;
        }
        self.misses.inc();
        let victim_writeback = match self.fill_line(li, write) {
            Some((victim, true)) => {
                self.writebacks.inc();
                Some(victim << self.line_shift)
            }
            _ => None,
        };
        CacheOutcome::Miss { victim_writeback }
    }

    /// Install the line containing `addr` as dirty *without* counting a
    /// demand access — the path a lower cache level uses to absorb an upper
    /// level's dirty victim. Returns a displaced dirty victim, if any.
    pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        let li = self.line_of(addr);
        if let Some(slot) = self.find(li) {
            self.lru[slot] = self.clock;
            self.dirty[slot] = true;
            return None;
        }
        match self.fill_line(li, true) {
            Some((victim, true)) => {
                self.writebacks.inc();
                Some(victim << self.line_shift)
            }
            _ => None,
        }
    }

    /// True if the line containing `addr` is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        self.find(self.line_of(addr)).is_some()
    }

    /// Drop every line, returning the addresses of dirty ones (the caller
    /// must write them back). Models the explicit flush before a read-only
    /// parallel phase.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in 0..self.fill.len() {
            let base = set * self.ways;
            for slot in base..base + self.fill[set] as usize {
                if self.dirty[slot] {
                    dirty.push(self.line_in(set, slot) << self.line_shift);
                }
            }
            self.fill[set] = 0;
        }
        self.group_lines.clear();
        self.writebacks.add(dirty.len() as u64);
        dirty.sort_unstable();
        dirty
    }

    /// Drop all lines within `[base, base+len)`, returning dirty addresses.
    pub fn flush_range(&mut self, base: u64, len: u64) -> Vec<u64> {
        let mut dirty = Vec::new();
        let lb = self.cfg.line_bytes as u64;
        // Lines whose first byte lies in the range, one residency group at
        // a time; only the resident lines a group's bitmask names are
        // visited, in ascending order, so `dirty` comes out sorted.
        let first_line = base.div_ceil(lb);
        let end_line = (base + len).div_ceil(lb);
        if end_line <= first_line {
            return dirty;
        }
        for g in first_line >> GROUP_SHIFT..=(end_line - 1) >> GROUP_SHIFT {
            let Some(&mask) = self.group_lines.get(&g) else {
                continue;
            };
            // Bits [lo, hi) of this group's mask lie in the range.
            let lo = first_line.max(g << GROUP_SHIFT) - (g << GROUP_SHIFT);
            let hi = end_line.min((g + 1) << GROUP_SHIFT) - (g << GROUP_SHIFT);
            let in_range = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
            let mut victims = mask & in_range;
            if victims == 0 {
                continue;
            }
            if mask & !in_range == 0 {
                self.group_lines.remove(&g);
            } else {
                self.group_lines.insert(g, mask & !in_range);
            }
            dirty.reserve(victims.count_ones() as usize);
            while victims != 0 {
                let li = (g << GROUP_SHIFT) | u64::from(victims.trailing_zeros());
                victims &= victims - 1;
                let slot = self.find(li).expect("a masked line is resident");
                if self.dirty[slot] {
                    dirty.push(li << self.line_shift);
                }
                // Move the set's last live line into the hole.
                let set = self.set_of(li);
                self.fill[set] -= 1;
                let last = set * self.ways + self.fill[set] as usize;
                self.tags[slot] = self.tags[last];
                self.lru[slot] = self.lru[last];
                self.dirty[slot] = self.dirty[last];
            }
        }
        self.writebacks.add(dirty.len() as u64);
        dirty
    }

    /// Lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Dirty-victim writebacks so far (including flushes).
    pub fn writebacks(&self) -> u64 {
        self.writebacks.get()
    }

    /// Hit ratio over all accesses (0 when untouched).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B — easy to reason about.
        Cache::new(CacheConfig {
            line_bytes: 64,
            sets: 4,
            ways: 2,
        })
    }

    /// Resident `(line index, dirty, lru stamp)` triples, sorted.
    fn lines(c: &Cache) -> Vec<(u64, bool, u64)> {
        let mut v = Vec::new();
        for set in 0..c.fill.len() {
            let base = set * c.ways;
            for slot in base..base + c.fill[set] as usize {
                v.push((c.line_in(set, slot), c.dirty[slot], c.lru[slot]));
            }
        }
        v.sort_unstable();
        v
    }

    /// The group residency bitmasks must mirror the tag arrays exactly
    /// through any access/install/flush interleaving, and flush_range must
    /// leave no line of its range behind.
    #[test]
    fn group_residency_tracks_sets_through_random_ops() {
        let mut rng = cohfree_sim::Rng::new(77);
        let mut c = Cache::new(CacheConfig {
            line_bytes: 64,
            sets: 16,
            ways: 2,
        });
        for _ in 0..20_000 {
            match rng.below(100) {
                0..=79 => {
                    let addr = rng.below(1 << 14);
                    c.access(addr, rng.below(2) == 0);
                }
                80..=89 => {
                    c.install_dirty(rng.below(1 << 14));
                }
                90..=97 => {
                    let base = rng.below(1 << 14) & !4095;
                    let dirty = c.flush_range(base, 4096);
                    for addr in dirty {
                        assert!(addr >= base && addr < base + 4096);
                    }
                    for (li, _, _) in lines(&c) {
                        let addr = li * 64;
                        assert!(addr < base || addr >= base + 4096, "line survived flush");
                    }
                }
                _ => {
                    c.flush_all();
                    assert_eq!(c.resident_lines(), 0);
                }
            }
            // Rebuild the residency bitmasks from the tag arrays and compare.
            let mut expect: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for (li, _, _) in lines(&c) {
                *expect.entry(li >> GROUP_SHIFT).or_insert(0) |= 1 << (li & 63);
            }
            let got: std::collections::HashMap<u64, u64> =
                c.group_lines.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect);
        }
    }

    /// The `Vec<Vec<Line>>` cache with per-group line counts that the flat
    /// tag arrays replaced, kept as the reference model for the
    /// differential test below.
    mod reference {
        use cohfree_sim::FastMap;

        const GROUP_SHIFT: u32 = 6;

        #[derive(Debug, Clone, Copy)]
        pub struct Line {
            pub tag: u64,
            pub dirty: bool,
            pub lru: u64,
        }

        pub struct RefCache {
            line_bytes: u64,
            nsets: u64,
            ways: usize,
            pub sets: Vec<Vec<Line>>,
            group_lines: FastMap<u64, u32>,
            clock: u64,
            pub hits: u64,
            pub misses: u64,
            pub writebacks: u64,
        }

        impl RefCache {
            pub fn new(line_bytes: u64, nsets: u64, ways: usize) -> RefCache {
                RefCache {
                    line_bytes,
                    nsets,
                    ways,
                    sets: (0..nsets).map(|_| Vec::with_capacity(ways)).collect(),
                    group_lines: FastMap::default(),
                    clock: 0,
                    hits: 0,
                    misses: 0,
                    writebacks: 0,
                }
            }

            /// `(line address, set, tag)` of `addr`.
            fn locate(&self, addr: u64) -> (u64, usize, u64) {
                let la = addr & !(self.line_bytes - 1);
                let set = ((la / self.line_bytes) & (self.nsets - 1)) as usize;
                (la, set, la / self.line_bytes / self.nsets)
            }

            fn addr_of(&self, set: usize, tag: u64) -> u64 {
                (tag * self.nsets + set as u64) * self.line_bytes
            }

            fn note_fill(&mut self, li: u64) {
                *self.group_lines.entry(li >> GROUP_SHIFT).or_insert(0) += 1;
            }

            fn note_evict(&mut self, li: u64) {
                let g = li >> GROUP_SHIFT;
                match self.group_lines.get_mut(&g) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.group_lines.remove(&g);
                    }
                    None => panic!("evicting a line from an untracked group"),
                }
            }

            /// `(hit, victim_writeback)`.
            pub fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
                self.clock += 1;
                let (la, set_idx, tag) = self.locate(addr);
                let clock = self.clock;
                if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
                    line.lru = clock;
                    line.dirty |= write;
                    self.hits += 1;
                    return (true, None);
                }
                self.misses += 1;
                (false, self.fill(la, set_idx, tag, write))
            }

            pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
                self.clock += 1;
                let (la, set_idx, tag) = self.locate(addr);
                let clock = self.clock;
                if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
                    line.lru = clock;
                    line.dirty = true;
                    return None;
                }
                self.fill(la, set_idx, tag, true)
            }

            fn fill(&mut self, la: u64, set_idx: usize, tag: u64, dirty: bool) -> Option<u64> {
                let new = Line {
                    tag,
                    dirty,
                    lru: self.clock,
                };
                let set = &mut self.sets[set_idx];
                let victim = if set.len() < self.ways {
                    set.push(new);
                    None
                } else {
                    let (vi, _) = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.lru)
                        .expect("non-empty set");
                    Some(std::mem::replace(&mut set[vi], new))
                };
                self.note_fill(la / self.line_bytes);
                let victim = victim?;
                self.note_evict(victim.tag * self.nsets + set_idx as u64);
                victim.dirty.then(|| {
                    self.writebacks += 1;
                    self.addr_of(set_idx, victim.tag)
                })
            }

            pub fn flush_all(&mut self) -> Vec<u64> {
                let mut dirty = Vec::new();
                for set_idx in 0..self.sets.len() {
                    for line in std::mem::take(&mut self.sets[set_idx]) {
                        if line.dirty {
                            dirty.push(self.addr_of(set_idx, line.tag));
                        }
                    }
                }
                self.group_lines.clear();
                self.writebacks += dirty.len() as u64;
                dirty.sort_unstable();
                dirty
            }

            pub fn flush_range(&mut self, base: u64, len: u64) -> Vec<u64> {
                let mut dirty = Vec::new();
                let lb = self.line_bytes;
                let set_shift = self.nsets.trailing_zeros();
                let first_line = base.div_ceil(lb);
                let end_line = (base + len).div_ceil(lb).max(first_line);
                let first_group = first_line >> GROUP_SHIFT;
                let last_group = if end_line == first_line {
                    first_group
                } else {
                    ((end_line - 1) >> GROUP_SHIFT) + 1
                };
                for g in first_group..last_group {
                    let Some(&count) = self.group_lines.get(&g) else {
                        continue;
                    };
                    let lo = (g << GROUP_SHIFT).max(first_line);
                    let hi = ((g + 1) << GROUP_SHIFT).min(end_line);
                    let whole_group = hi - lo == 1 << GROUP_SHIFT;
                    let mut removed = 0u32;
                    for li in lo..hi {
                        if whole_group && removed == count {
                            break;
                        }
                        let set = &mut self.sets[(li & (self.nsets - 1)) as usize];
                        if let Some(pos) = set.iter().position(|l| l.tag == li >> set_shift) {
                            if set.swap_remove(pos).dirty {
                                dirty.push(li * lb);
                            }
                            removed += 1;
                        }
                    }
                    if removed == count {
                        self.group_lines.remove(&g);
                    } else if removed > 0 {
                        *self.group_lines.get_mut(&g).expect("group tracked") -= removed;
                    }
                }
                self.writebacks += dirty.len() as u64;
                dirty.sort_unstable();
                dirty
            }

            /// Resident `(line index, dirty, lru stamp)` triples, sorted.
            pub fn lines(&self) -> Vec<(u64, bool, u64)> {
                let mut v: Vec<_> = self
                    .sets
                    .iter()
                    .enumerate()
                    .flat_map(|(set, lines)| {
                        lines
                            .iter()
                            .map(move |l| (l.tag * self.nsets + set as u64, l.dirty, l.lru))
                    })
                    .collect();
                v.sort_unstable();
                v
            }
        }
    }

    /// Seeded random access/install_dirty/probe/flush_range/flush_all
    /// streams over several geometries: the flat tag-array cache returns
    /// the same outcomes, victims and write-back lists, keeps the same
    /// resident lines (tags, dirtiness, stamps) and counts the same hits,
    /// misses and writebacks as the `Vec<Vec<Line>>` reference.
    #[test]
    fn cache_matches_the_nested_vec_reference() {
        for (seed, (sets, ways)) in [(1u32, 1u32), (4, 2), (16, 4), (64, 16), (2, 3)]
            .into_iter()
            .enumerate()
        {
            let mut rng = cohfree_sim::Rng::new(0xCAC4E0 + seed as u64);
            let mut c = Cache::new(CacheConfig {
                line_bytes: 64,
                sets,
                ways,
            });
            let mut r = reference::RefCache::new(64, sets as u64, ways as usize);
            // Addresses span a few times the capacity, so sets stay full.
            let span = 64 * sets as u64 * ways as u64 * 4 + 4096;
            for _ in 0..20_000 {
                let addr = rng.below(span);
                match rng.below(100) {
                    0..=69 => {
                        let write = rng.below(3) == 0;
                        let want = match r.access(addr, write) {
                            (true, _) => CacheOutcome::Hit,
                            (false, victim_writeback) => CacheOutcome::Miss { victim_writeback },
                        };
                        assert_eq!(c.access(addr, write), want);
                    }
                    70..=81 => assert_eq!(c.install_dirty(addr), r.install_dirty(addr)),
                    82..=87 => {
                        let resident = r.lines().iter().any(|&(li, _, _)| li == addr / 64);
                        assert_eq!(c.probe(addr), resident);
                    }
                    88..=98 => {
                        // Whole pages, plus unaligned bases and lengths from
                        // empty to several groups.
                        let len = match rng.below(3) {
                            0 => 4096,
                            1 => rng.below(200),
                            _ => rng.below(3 * 4096),
                        };
                        let base = if rng.below(2) == 0 {
                            addr & !4095
                        } else {
                            addr
                        };
                        assert_eq!(c.flush_range(base, len), r.flush_range(base, len));
                    }
                    _ => assert_eq!(c.flush_all(), r.flush_all()),
                }
                assert_eq!(lines(&c), r.lines());
            }
            assert_eq!(
                (c.hits(), c.misses(), c.writebacks()),
                (r.hits, r.misses, r.writebacks)
            );
            let resident: usize = r.sets.iter().map(Vec::len).sum();
            assert_eq!(c.resident_lines(), resident);
        }
    }

    #[test]
    fn geometry_round_trips() {
        let c = tiny();
        for addr in [0u64, 64, 4096, 123_456, 1 << 40] {
            let li = c.line_of(addr);
            let (set, tag) = (c.set_of(li), c.tag_of(li));
            assert_eq!(
                ((tag << c.set_shift) | set as u64) << c.line_shift,
                addr & !63,
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(
            c.access(100, false),
            CacheOutcome::Miss {
                victim_writeback: None
            }
        );
        assert_eq!(c.access(100, false), CacheOutcome::Hit);
        assert_eq!(c.access(127, false), CacheOutcome::Hit, "same line");
        assert_eq!(
            c.access(128, false),
            CacheOutcome::Miss {
                victim_writeback: None
            }
        );
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses 0, 256, 512 (stride = sets*line).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh 0; 256 is now LRU
        match c.access(512, false) {
            CacheOutcome::Miss {
                victim_writeback: None,
            } => {}
            other => panic!("clean victim expected, got {other:?}"),
        }
        assert!(c.probe(0), "refreshed line survives");
        assert!(!c.probe(256), "LRU line evicted");
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_victim_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts line 0 (LRU, dirty)
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: Some(0)
            }
        );
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit-for-write dirties the line
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: Some(0)
            }
        );
    }

    #[test]
    fn flush_all_returns_exactly_dirty_lines() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let dirty = c.flush_all();
        assert_eq!(dirty, vec![0, 128]);
        assert_eq!(c.resident_lines(), 0);
        // After flush, everything misses again.
        assert!(matches!(c.access(64, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn flush_range_is_selective() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, true);
        c.access(128, true);
        let dirty = c.flush_range(64, 64);
        assert_eq!(dirty, vec![64]);
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn hit_ratio() {
        let mut c = tiny();
        assert_eq!(c.hit_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn capacity() {
        assert_eq!(CacheConfig::default().capacity_bytes(), 2 << 20);
        assert_eq!(tiny().config().capacity_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig {
            line_bytes: 48,
            sets: 4,
            ways: 1,
        });
    }
}
