//! Byte-identity guard for the blocking `MemSpace` access path.
//!
//! A small seeded Fig. 10-shaped b-tree (168 children, bulk load plus a
//! closed loop of ~10% inserts and searches) runs on the paper's remote
//! memory and on remote swap over the fabric. The TLB, cache tag arrays
//! and range flushes on that path are rewritten for speed from time to
//! time; every such rewrite must leave the simulated outcome untouched.
//! The constants below were recorded once and pin the end clock, the
//! backend counters, the page-cache counters, the engine's event count
//! and an FNV-1a digest of the cluster's whole snapshot document (fabric,
//! RMC, DRAM and directory counters).
//!
//! The geometry is shrunk so that every mechanism fires at this size: the
//! cache is smaller than the tree (capacity evictions and dirty
//! write-backs), the remote run has an L1 (L2 absorbs L1 victims), both
//! the tree's 213 pages and the 128-page swap resident set exceed the
//! 64-entry TLB (TLB evictions), and that resident set is below the
//! footprint (major faults, page-outs and range flushes).

use cohfree::core::backend::{AccessStats, RemoteOptions, SwapConfig, SwapTransport};
use cohfree::mem::cache::CacheConfig;
use cohfree::os::swap::SwapStats;
use cohfree::workloads::BTree;
use cohfree::{
    AllocPolicy, ClusterConfig, MemSpace, NodeId, RemoteMemorySpace, Rng, SwapSpace, World,
};
use std::collections::BTreeSet;

const CHILDREN: usize = 168;
const KEYS: usize = 30_000;
const OPS: u64 = 3_000;
const SEED: u64 = 0x0F16_0010;
const DONORS: [u16; 4] = [2, 5, 9, 13];
const ZONE_FRAMES: u64 = 256;
const RESIDENT_PAGES: usize = 128;

/// End state of one run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    now_ps: u64,
    stats: AccessStats,
    swap: Option<SwapStats>,
    events: u64,
    snapshot: u64,
}

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::prototype();
    // 256 KiB: well below the ~500 KiB tree.
    cfg.cache = CacheConfig {
        line_bytes: 64,
        sets: 256,
        ways: 16,
    };
    cfg
}

fn donors() -> Vec<NodeId> {
    DONORS.iter().map(|&d| NodeId::new(d)).collect()
}

/// Bulk-load the tree and run the op stream, checking every answer.
fn drive<M: MemSpace>(mem: &mut M) {
    let mut rng = Rng::new(SEED);
    let mut keys: Vec<u64> = (0..KEYS + KEYS / 8).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(KEYS);
    let mut reference: BTreeSet<u64> = keys.iter().copied().collect();
    let mut tree = BTree::bulk_load(mem, &keys, CHILDREN - 1);
    for _ in 0..OPS {
        if rng.below(10) == 0 {
            let k = rng.next_u64();
            assert_eq!(tree.insert(mem, k), reference.insert(k), "insert {k}");
        } else {
            let k = if rng.below(2) == 0 {
                keys[rng.below(keys.len() as u64) as usize]
            } else {
                rng.next_u64()
            };
            assert_eq!(
                tree.search(mem, k).found,
                reference.contains(&k),
                "search {k}"
            );
        }
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |d, b| {
        (d ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

fn outcome<M: MemSpace>(mem: &M, world: &World, swap: Option<SwapStats>) -> Outcome {
    Outcome {
        now_ps: mem.now().as_ps(),
        stats: mem.stats(),
        swap,
        events: world.events_processed(),
        snapshot: fnv1a(world.snapshot().doc.to_string().into_bytes()),
    }
}

#[test]
fn remote_memory_btree_outcome_is_pinned() {
    let mut mem = RemoteMemorySpace::with_options(
        config().with_l1(),
        NodeId::new(1),
        AllocPolicy::AlwaysRemote,
        RemoteOptions {
            servers: Some(donors()),
            zone_frames: ZONE_FRAMES,
            ..RemoteOptions::default()
        },
    );
    drive(&mut mem);
    let got = outcome(&mem, mem.world(), None);
    assert!(got.stats.tlb_walks > 213, "TLB evictions must occur");
    assert_eq!(
        got,
        Outcome {
            now_ps: 10_732_000_000,
            stats: AccessStats {
                reads: 108_457,
                writes: 70_777,
                bytes_read: 867_656,
                bytes_written: 566_216,
                cache_hits: 171_845,
                cache_misses: 7_389,
                tlb_walks: 2_239,
                remote_reads: 7_389,
                remote_writes: 3_011,
                allocations: 322,
                reservations: 1,
                ..AccessStats::default()
            },
            swap: None,
            events: 52_000,
            snapshot: 0x27F0_1F0C_D500_F4E8,
        }
    );
}

#[test]
fn remote_swap_btree_outcome_is_pinned() {
    let mut mem = SwapSpace::remote(
        config(),
        NodeId::new(1),
        SwapConfig {
            cache_pages: RESIDENT_PAGES,
            servers: Some(donors()),
            zone_frames: ZONE_FRAMES,
            transport: SwapTransport::Fabric,
        },
    );
    drive(&mut mem);
    let world = mem.world().expect("fabric-transport swap has a cluster");
    let got = outcome(&mem, world, Some(mem.swap_stats()));
    assert!(
        got.stats.tlb_walks > got.stats.minor_faults + got.stats.major_faults,
        "TLB evictions must occur"
    );
    assert_eq!(
        got,
        Outcome {
            now_ps: 11_458_357_000,
            stats: AccessStats {
                reads: 108_457,
                writes: 70_777,
                bytes_read: 867_656,
                bytes_written: 566_216,
                cache_hits: 166_121,
                cache_misses: 13_113,
                tlb_walks: 2_241,
                minor_faults: 213,
                major_faults: 785,
                pages_in: 785,
                pages_out: 381,
                allocations: 322,
                reservations: 1,
                ..AccessStats::default()
            },
            swap: Some(SwapStats {
                hits: 179_234,
                major_faults: 998,
                writebacks: 381,
                clean_evictions: 489,
            }),
            events: 5_830,
            snapshot: 0x579C_E145_E41C_4C95,
        }
    );
}
