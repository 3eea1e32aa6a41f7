//! Byte-identity guard for the `World`'s per-event path.
//!
//! Every `World` event passes through the calendar event queue, one
//! scheduler and the `World`'s handlers and, for message hops, through
//! `Fabric::step`. All of them are rewritten for speed or simplicity from
//! time to time; every such rewrite must leave the simulated outcome
//! untouched. Small seeded worlds drive that path, and the constants
//! below were recorded once and pin the end clock, the engine's event
//! count, every thread's outcome counters and every latency histogram.
//!
//! * **Open-loop serving**: four tenants on an 8×8 mesh (Zipf point-KV and
//!   columnar scans, four lanes each). Dozens of events are pending at
//!   once, with content-keyed ties at shared instants, far-future arrival
//!   wakes and ring-to-front refills.
//! * **Closed-loop threads**: six threads on a 4×4 torus with a lossy
//!   fabric (far-future loss timers, retransmissions), a link outage and
//!   its repair (degraded routing), and periodic sampling probes.
//! * **Coherent DSM**: coherent-read threads whose every miss makes the
//!   home snoop a six-node domain (probe requests and responses, the
//!   wait for DRAM and all snoops), next to a plain non-coherent thread,
//!   traced in Full mode.
//! * **Sequential scans**: threads streaming zones of different sizes
//!   end to end, with sampling.
//! * **Donor crash**: the recovery manager on, a donor crashing under
//!   load (evacuation, aborted accesses re-aimed at the new home), and
//!   blocking and posted transactions before and after the threads, the
//!   later ones aimed at the dead donor so the failure declaration sweeps
//!   them up. Traced in Full mode.
//!
//!
//! Five more worlds drive the blocking and posted drivers alone, the way
//! the `MemSpace` backends do. A blocking transaction that finds nothing
//! else pending runs as a direct chain of the handlers; these worlds pin
//! the cases that must keep the queue, and one that must not:
//!
//! * **Lossy drivers**: a lossy fabric, so every transaction arms a
//!   loss-recovery timer and retransmits now and then.
//! * **Sampled drivers**: a sampling probe is always pending.
//! * **Posted b-tree**: a b-tree on remote memory with posted writes,
//!   settled by `quiesce`, so reads find writes in flight or an idle
//!   world by turns.
//! * **NACKed drivers**: posted writes fill the client's request slots,
//!   so the blocking read behind them is NACKed and pumps the queue.
//! * **Traced drivers**: a Full-trace world of blocking and posted
//!   drivers, which also pins a digest of its Chrome span export.
//!
//! The coherent, sequential-scan and donor-crash worlds and all five
//! driver worlds also pin an FNV-1a digest of the whole snapshot document
//! (which embeds the trace summary when tracing is on).

use cohfree::core::backend::{AccessStats, RemoteOptions};
use cohfree::core::world::ThreadSpec;
use cohfree::core::{AccessOutcome, FaultEvent, FaultPlan, ManagerConfig, TraceConfig};
use cohfree::mem::cache::CacheConfig;
use cohfree::sim::stats::LatencyHistogram;
use cohfree::workloads::serving::{self, ArrivalSpec, RequestMix, TenantSpec};
use cohfree::workloads::BTree;
use cohfree::{
    AllocPolicy, ClusterConfig, MemSpace, MsgKind, NodeId, RemoteMemorySpace, Rng, SimDuration,
    SimTime, Topology, World,
};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// One thread's outcome: `(elapsed_ps, completed, failed, shed, nacks,
/// evacuated_retries, latency)`, where `latency` is the histogram's
/// `(count, FNV-1a digest of its bucket counts)` for serving threads.
type ThreadOutcome = (u64, u64, u64, u64, u64, u64, Option<(u64, u64)>);

/// End state of one run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    now_ps: u64,
    events: u64,
    /// Fabric `(delivered, total_hops, dropped, rerouted)`.
    fabric: (u64, u64, u64, u64),
    threads: Vec<ThreadOutcome>,
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |d, b| {
        (d ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

fn bucket_digest(h: &LatencyHistogram) -> u64 {
    fnv1a(h.bucket_counts().iter().flat_map(|c| c.to_le_bytes()))
}

/// One driver call's result: `(outcome, node, instant in ps)`, where
/// outcome is `'C'`ompleted, `'F'`ailed, `'S'`hed or `'P'` for a posted
/// write's release instant (node 0).
type Driven = (char, u16, u64);

fn driven(o: AccessOutcome) -> Driven {
    match o {
        AccessOutcome::Completed { at } => ('C', 0, at.as_ps()),
        AccessOutcome::Failed { node, at } => ('F', node.get(), at.as_ps()),
        AccessOutcome::Shed { node, at } => ('S', node.get(), at.as_ps()),
    }
}

fn done_at(o: AccessOutcome) -> SimTime {
    match o {
        AccessOutcome::Completed { at } => at,
        other => panic!("healthy blocking read did not complete: {other:?}"),
    }
}

fn posted(at: SimTime) -> Driven {
    ('P', 0, at.as_ps())
}

/// Digest of the world's whole snapshot document.
fn snapshot_digest(w: &World) -> u64 {
    fnv1a(w.snapshot().doc.to_string().into_bytes())
}

/// Spawn a closed-loop thread on `node` over `zones`.
fn spec(
    node: u16,
    zones: Vec<(u64, u64)>,
    accesses: u64,
    write_fraction: f64,
    seed: u64,
) -> ThreadSpec {
    ThreadSpec {
        node: n(node),
        zones,
        accesses,
        bytes: 64,
        write_fraction,
        think: SimDuration::ns(10),
        seed,
    }
}

fn outcome(w: &World) -> Outcome {
    Outcome {
        now_ps: w.now().as_ps(),
        events: w.events_processed(),
        fabric: (
            w.fabric().delivered(),
            w.fabric().total_hops(),
            w.fabric().dropped(),
            w.fabric().rerouted(),
        ),
        threads: (0..w.threads_spawned())
            .map(|id| {
                (
                    w.thread_elapsed(id).as_ps(),
                    w.thread_completed(id),
                    w.thread_failed(id),
                    w.thread_shed(id),
                    w.thread_nacks(id),
                    w.thread_evacuated_retries(id),
                    w.thread_latency(id).map(|h| (h.count(), bucket_digest(h))),
                )
            })
            .collect(),
    }
}

#[test]
fn open_loop_serving_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::Mesh2D {
        width: 8,
        height: 8,
    };
    let mut w = World::new(cfg);
    let specs: Vec<TenantSpec> = (0..4u16)
        .map(|k| TenantSpec {
            name: format!("t{k}"),
            client: n(k * 16 + 1),
            donors: vec![n(64 - k * 16)],
            frames_per_donor: 64,
            lanes: 4,
            requests: 600,
            mix: if k % 2 == 0 {
                RequestMix::PointKv {
                    zipf_s: 0.9,
                    value_bytes: 64,
                }
            } else {
                RequestMix::ColumnarScan { chunk_bytes: 1024 }
            },
            arrivals: ArrivalSpec {
                users: 250_000,
                rate_per_user_hz: 4.0,
                diurnal: None,
                seed: 0xE7E7_0014 ^ k as u64,
            },
            write_fraction: 0.1,
            think: SimDuration::ns(5),
            start: SimTime::ZERO,
        })
        .collect();
    let tenants = serving::install(&mut w, &specs);
    w.run();
    assert!(tenants.iter().all(|t| t.conserved(&w)));
    assert_eq!(outcome(&w), pinned_serving());
}

#[test]
fn closed_loop_threads_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::Torus2D {
        width: 4,
        height: 4,
    };
    cfg.fabric.loss_rate = 2e-3;
    cfg.recovery.max_retries = 6;
    let at = |us| SimTime::ZERO + SimDuration::us(us);
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::LinkDown {
            at: at(5),
            a: n(6),
            b: n(7),
        })
        .with(FaultEvent::LinkUp {
            at: at(25),
            a: n(6),
            b: n(7),
        });
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(10));
    for (i, &(node, donor)) in [(1, 11), (2, 16), (5, 8), (6, 15), (12, 3), (14, 4)]
        .iter()
        .enumerate()
    {
        let resv = w.reserve_remote(n(node), 64, Some(n(donor)));
        w.spawn_thread(
            ThreadSpec {
                node: n(node),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 400,
                bytes: if i % 3 == 0 { 1024 } else { 64 },
                write_fraction: 0.3,
                think: SimDuration::ns(10),
                seed: 0x7B0_0000 + i as u64,
            },
            SimTime::ZERO,
        );
    }
    w.run();
    assert_eq!(outcome(&w), pinned_threads());
}

#[test]
fn coherent_dsm_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    let mut w = World::new(cfg);
    w.set_coherent_domain((1..=6).map(n).collect()).unwrap();
    let a = w.reserve_remote(n(1), 64, Some(n(2)));
    let b = w.reserve_remote(n(3), 64, Some(n(6)));
    let c = w.reserve_remote(n(9), 64, Some(n(2)));
    w.spawn_coherent_thread(
        spec(
            1,
            vec![(a.prefixed_base, a.frames * 4096)],
            150,
            0.0,
            0xC0_0001,
        ),
        SimTime::ZERO,
    );
    w.spawn_coherent_thread(
        spec(
            3,
            vec![(b.prefixed_base, b.frames * 4096)],
            150,
            0.0,
            0xC0_0002,
        ),
        SimTime::ZERO + SimDuration::ns(300),
    );
    w.spawn_thread(
        spec(
            9,
            vec![(c.prefixed_base, c.frames * 4096)],
            150,
            0.3,
            0xC0_0003,
        ),
        SimTime::ZERO,
    );
    w.run();
    assert_eq!(
        (outcome(&w), snapshot_digest(&w)),
        (pinned_coherent(), 0x16FF_495E_580F_2CD4)
    );
}

#[test]
fn sequential_scan_outcome_is_pinned() {
    let mut w = World::new(ClusterConfig::prototype());
    w.enable_sampling(SimDuration::us(5));
    let big = w.reserve_remote(n(1), 3, Some(n(8)));
    let small = w.reserve_remote(n(1), 1, Some(n(13)));
    let far = w.reserve_remote(n(16), 2, Some(n(1)));
    let zones = vec![
        (big.prefixed_base, big.frames * 4096),
        (small.prefixed_base, small.frames * 4096 / 2),
    ];
    w.spawn_sequential_thread(spec(1, zones.clone(), 500, 0.2, 0x5E_0001), SimTime::ZERO);
    w.spawn_sequential_thread(spec(1, zones, 300, 0.0, 0x5E_0002), SimTime::ZERO);
    w.spawn_sequential_thread(
        spec(
            16,
            vec![(far.prefixed_base, far.frames * 4096)],
            400,
            0.5,
            0x5E_0003,
        ),
        SimTime::ZERO + SimDuration::us(1),
    );
    w.run();
    assert_eq!(
        (outcome(&w), snapshot_digest(&w)),
        (pinned_sequential(), 0xD5D0_4DE3_11AA_59C0)
    );
}

#[test]
fn donor_crash_with_recovery_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    cfg.manager = ManagerConfig::enabled();
    cfg.recovery.max_retries = 4;
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: SimTime::ZERO + SimDuration::us(30),
        node: n(7),
    });
    let mut w = World::new(cfg);
    let z1 = w.reserve_remote(n(1), 64, Some(n(7)));
    let z1b = w.reserve_remote(n(1), 64, Some(n(11)));
    let z5 = w.reserve_remote(n(5), 64, Some(n(7)));
    let z12 = w.reserve_remote(n(12), 64, Some(n(16)));
    let z3 = w.reserve_remote(n(3), 16, Some(n(7)));
    let read = MsgKind::ReadReq { bytes: 64 };
    let write = MsgKind::WriteReq { bytes: 64 };
    // Drivers before the threads: blocking reads, posted writes.
    let mut drivers = Vec::new();
    let mut t = SimTime::ZERO;
    for k in 0..3 {
        let addr = z1.prefixed_base + k * 64;
        let done = w.try_blocking_transaction(t, n(1), n(7), read, addr);
        drivers.push(driven(done));
        t = done_at(done);
    }
    for k in 0..4 {
        t = w.posted_transaction(t, n(1), n(7), write, z1.prefixed_base + 4096 + k * 64);
        drivers.push(posted(t));
    }
    t = w.posted_transaction(t, n(2), n(11), write, z1b.prefixed_base);
    drivers.push(posted(t));
    // Threads: two of them lean on the donor that crashes.
    w.spawn_thread(
        spec(
            1,
            vec![
                (z1.prefixed_base, z1.frames * 4096),
                (z1b.prefixed_base, z1b.frames * 4096),
            ],
            300,
            0.3,
            0xD0_0001,
        ),
        t,
    );
    w.spawn_thread(
        spec(
            5,
            vec![(z5.prefixed_base, z5.frames * 4096)],
            300,
            0.1,
            0xD0_0002,
        ),
        t,
    );
    w.spawn_thread(
        spec(
            12,
            vec![(z12.prefixed_base, z12.frames * 4096)],
            300,
            0.5,
            0xD0_0003,
        ),
        t,
    );
    w.run();
    // Drivers after the threads. Node 3 never talked to the dead donor, so
    // its blocking read exhausts the retry budget and the declaration
    // sweeps it up; the posted writes behind it are swept up the same way.
    let t = w.now();
    drivers.push(driven(w.try_blocking_transaction(
        t,
        n(3),
        n(7),
        read,
        z3.prefixed_base,
    )));
    drivers.push(driven(w.try_blocking_transaction(
        t,
        n(1),
        n(7),
        read,
        z1.prefixed_base,
    )));
    let mut t = w.now();
    for k in 0..2 {
        t = w.posted_transaction(t, n(5), n(7), write, z5.prefixed_base + k * 64);
        drivers.push(posted(t));
    }
    t = w.posted_transaction(t, n(12), n(16), write, z12.prefixed_base);
    drivers.push(posted(t));
    drivers.push(posted(w.drain_background()));
    drivers.push(driven(w.try_blocking_transaction(
        w.now(),
        n(12),
        n(16),
        read,
        z12.prefixed_base,
    )));
    assert_eq!(w.pending_count(), 0);
    assert_eq!(
        (outcome(&w), snapshot_digest(&w), drivers),
        (
            pinned_crash(),
            0xC220_40E0_A2EA_BE08,
            pinned_crash_drivers()
        )
    );
}

/// Zones node 1 borrows from homes one, three and six hops away on the
/// prototype's 4×4 mesh: `(home, prefixed base)`, 64 frames each.
fn driver_zones(w: &mut World) -> Vec<(NodeId, u64)> {
    [2, 7, 16]
        .iter()
        .map(|&d| (n(d), w.reserve_remote(n(1), 64, Some(n(d))).prefixed_base))
        .collect()
}

/// `rounds` driver calls from node 1 into `zones`, each starting where the
/// last returned: blocking reads and writes of 64 B to 4 KiB, and every
/// fifth call or so a posted write.
fn drive_mixed(w: &mut World, zones: &[(NodeId, u64)], rounds: u64, seed: u64) -> Vec<Driven> {
    let mut rng = Rng::new(seed);
    let mut t = w.now();
    let mut out = Vec::new();
    for _ in 0..rounds {
        let (home, base) = zones[rng.below(zones.len() as u64) as usize];
        let bytes = [64, 64, 256, 4096][rng.below(4) as usize];
        let addr = base + rng.below(64) * 4096;
        match rng.below(10) {
            0..=1 => {
                t = w.posted_transaction(t, n(1), home, MsgKind::WriteReq { bytes }, addr);
                out.push(posted(t));
            }
            k => {
                let kind = if k < 5 {
                    MsgKind::WriteReq { bytes }
                } else {
                    MsgKind::ReadReq { bytes }
                };
                let o = w.try_blocking_transaction(t, n(1), home, kind, addr);
                t = done_at(o);
                out.push(driven(o));
            }
        }
    }
    out
}

/// `(count, FNV-1a digest)` of a driver-result list.
fn drivers_digest(d: &[Driven]) -> (usize, u64) {
    let bytes = d.iter().flat_map(|&(c, node, at)| {
        [c as u8]
            .into_iter()
            .chain(node.to_le_bytes())
            .chain(at.to_le_bytes())
    });
    (d.len(), fnv1a(bytes))
}

#[test]
fn lossy_blocking_drivers_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.fabric.loss_rate = 5e-3;
    cfg.recovery.max_retries = 12;
    let mut w = World::new(cfg);
    let zones = driver_zones(&mut w);
    let drivers = drive_mixed(&mut w, &zones, 600, 0x1055_0001);
    w.drain_background();
    assert!(w.fabric().dropped() > 0, "the fabric must lose messages");
    assert_eq!(
        (outcome(&w), snapshot_digest(&w), drivers_digest(&drivers)),
        (
            Outcome {
                now_ps: 1_853_973_653,
                events: 6_499,
                fabric: (1_214, 4_046, 25, 0),
                threads: vec![],
            },
            0xFB48_BAF4_FBE6_066D,
            (600, 0xD597_711D_FE2B_54E8)
        )
    );
}

#[test]
fn sampled_blocking_drivers_outcome_is_pinned() {
    let mut w = World::new(ClusterConfig::prototype());
    w.enable_sampling(SimDuration::us(2));
    let zones = driver_zones(&mut w);
    let drivers = drive_mixed(&mut w, &zones, 400, 0x5A3F_0002);
    w.drain_background();
    assert!(w.samples().len() > 10, "the probe must keep sampling");
    assert_eq!(
        (outcome(&w), snapshot_digest(&w), drivers_digest(&drivers)),
        (
            Outcome {
                now_ps: 688_000_000,
                events: 4_404,
                fabric: (800, 2_860, 0, 0),
                threads: vec![],
            },
            0xAD80_9684_7816_01BE,
            (400, 0xB5C9_21D2_FB7B_26CA)
        )
    );
}

#[test]
fn posted_write_btree_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.cache = CacheConfig {
        line_bytes: 64,
        sets: 64,
        ways: 8,
    };
    let mut mem = RemoteMemorySpace::with_options(
        cfg,
        n(1),
        AllocPolicy::AlwaysRemote,
        RemoteOptions {
            posted_writes: true,
            servers: Some(vec![n(3), n(12)]),
            zone_frames: 64,
            ..RemoteOptions::default()
        },
    );
    let mut rng = Rng::new(0xB7EE_0003);
    let mut keys: Vec<u64> = (0..6_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut tree = BTree::bulk_load(&mut mem, &keys, 31);
    let mut found = 0u64;
    for i in 0..1_500u64 {
        if i % 4 == 0 {
            tree.insert(&mut mem, rng.next_u64());
        } else if tree
            .search(&mut mem, keys[rng.below(keys.len() as u64) as usize])
            .found
        {
            found += 1;
        }
        if i % 500 == 499 {
            mem.quiesce();
        }
    }
    mem.quiesce();
    let w = mem.world();
    assert_eq!(w.pending_count(), 0);
    assert_eq!(
        (
            mem.now().as_ps(),
            mem.stats(),
            found,
            outcome(w),
            snapshot_digest(w)
        ),
        (
            6_167_579_000,
            AccessStats {
                reads: 39_477,
                writes: 17_139,
                bytes_read: 315_816,
                bytes_written: 137_112,
                cache_hits: 52_352,
                cache_misses: 4_264,
                tlb_walks: 46,
                remote_reads: 4_264,
                remote_writes: 2_118,
                allocations: 355,
                reservations: 1,
                ..AccessStats::default()
            },
            1_125,
            Outcome {
                now_ps: 6_167_261_000,
                events: 44_674,
                fabric: (12_764, 25_528, 0, 0),
                threads: vec![],
            },
            0xE0F6_ED13_EAAB_37CC
        )
    );
}

#[test]
fn nacked_blocking_drivers_outcome_is_pinned() {
    let mut w = World::new(ClusterConfig::prototype());
    let zones = driver_zones(&mut w);
    let slots = w.config().rmc.request_slots as u64;
    let mut drivers = Vec::new();
    let mut t = w.now();
    for round in 0..60u64 {
        let (home, base) = zones[(round % 3) as usize];
        // Fill every request slot with posted writes issued at one instant,
        // then offer a blocking read behind them.
        for k in 0..slots {
            let addr = base + ((round * slots + k) % 64) * 4096;
            let at = w.posted_transaction(t, n(1), home, MsgKind::WriteReq { bytes: 64 }, addr);
            drivers.push(posted(at));
        }
        let (home, base) = zones[((round + 1) % 3) as usize];
        let o = w.try_blocking_transaction(
            t,
            n(1),
            home,
            MsgKind::ReadReq { bytes: 64 },
            base + (round % 64) * 4096,
        );
        drivers.push(driven(o));
        t = done_at(o);
    }
    w.drain_background();
    assert!(
        w.client(n(1)).nacks() > 0,
        "the blocking reads must be NACKed"
    );
    assert_eq!(
        (outcome(&w), snapshot_digest(&w), drivers_digest(&drivers)),
        (
            Outcome {
                now_ps: 170_196_000,
                events: 2_320,
                fabric: (480, 1_600, 0, 0),
                threads: vec![],
            },
            0x1EAF_ACBE_ED66_5C33,
            (60 * (slots as usize + 1), 0x0C97_8F7B_7FA3_3113)
        )
    );
}

#[test]
fn traced_blocking_drivers_outcome_is_pinned() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    let mut w = World::new(cfg);
    let zones = driver_zones(&mut w);
    let drivers = drive_mixed(&mut w, &zones, 300, 0x7ACE_0005);
    w.drain_background();
    let export = fnv1a(w.trace().chrome_trace().to_string().into_bytes());
    assert_eq!(
        (
            outcome(&w),
            snapshot_digest(&w),
            export,
            drivers_digest(&drivers)
        ),
        (
            Outcome {
                now_ps: 505_847_500,
                events: 2_956,
                fabric: (600, 2_056, 0, 0),
                threads: vec![],
            },
            0x9816_689E_CB10_B530,
            0x6CBE_BB43_D50E_80B9,
            (300, 0x144C_C668_832B_FFAB)
        )
    );
}

/// The serving world's outcome, recorded before the event path's rewrite.
#[rustfmt::skip]
fn pinned_serving() -> Outcome {
    Outcome {
        now_ps: 888_786_771,
        events: 75_482,
        fabric: (4_800, 52_800, 0, 0),
        threads: vec![
            (645_447_702, 150, 0, 0, 800, 0, Some((150, 0x9EFC_2AF8_C7DA_4BE1))),
            (645_805_426, 150, 0, 0, 808, 0, Some((150, 0xFBB0_12A4_04AB_DA59))),
            (646_366_613, 150, 0, 0, 822, 0, Some((150, 0x77B1_1578_1EC7_8039))),
            (646_368_949, 150, 0, 0, 812, 0, Some((150, 0x0B0D_6D01_E61C_D83D))),
            (765_540_000, 150, 0, 0, 1_030, 0, Some((150, 0xCE48_9CAC_8955_2DC1))),
            (766_866_237, 150, 0, 0, 1_044, 0, Some((150, 0x5B72_9B6D_304E_1E85))),
            (768_295_475, 150, 0, 0, 1_043, 0, Some((150, 0x20EB_9EA3_98C4_0C05))),
            (768_621_991, 150, 0, 0, 1_037, 0, Some((150, 0x12AB_9B47_0D96_17C7))),
            (603_772_661, 150, 0, 0, 155, 0, Some((150, 0xF7B0_C9C0_EECC_9C2B))),
            (603_955_645, 150, 0, 0, 187, 0, Some((150, 0x2ED7_0566_81D2_30A3))),
            (599_227_469, 150, 0, 0, 172, 0, Some((150, 0xB361_1D39_FE7F_2793))),
            (597_701_851, 150, 0, 0, 179, 0, Some((150, 0x607D_3F4F_A51B_45DF))),
            (883_121_916, 150, 0, 0, 1_241, 0, Some((150, 0xFC10_0CA3_0410_31D5))),
            (884_109_564, 150, 0, 0, 1_235, 0, Some((150, 0x979D_C564_5950_5AD5))),
            (885_659_059, 150, 0, 0, 1_253, 0, Some((150, 0x4EEC_52A7_D24E_3B59))),
            (886_776_590, 150, 0, 0, 1_264, 0, Some((150, 0xC409_ADAC_C2A3_A3B7))),
        ],
    }
}

/// The closed-loop world's outcome, recorded before the event path's
/// rewrite.
#[rustfmt::skip]
fn pinned_threads() -> Outcome {
    Outcome {
        now_ps: 1_310_000_000,
        events: 25_932,
        fabric: (4_817, 13_734, 31, 104),
        threads: vec![
            (1_269_503_895, 400, 0, 0, 0, 0, None),
            (620_714_200, 400, 0, 0, 0, 0, None),
            (411_563_461, 400, 0, 0, 0, 0, None),
            (856_614_097, 400, 0, 0, 0, 0, None),
            (689_404_700, 400, 0, 0, 0, 0, None),
            (721_049_700, 400, 0, 0, 0, 0, None),
        ],
    }
}

/// The coherent-DSM world's outcome, recorded before the lane executor
/// was folded into the `World`.
#[rustfmt::skip]
fn pinned_coherent() -> Outcome {
    Outcome {
        now_ps: 246_415_000,
        events: 9_900,
        fabric: (3_300, 5_700, 0, 0),
        threads: vec![
            (203_760_000, 150, 0, 0, 0, 0, None),
            (246_415_000, 150, 0, 0, 0, 0, None),
            (202_747_000, 150, 0, 0, 0, 0, None),
        ],
    }
}

/// The sequential-scan world's outcome, recorded before the lane executor
/// was folded into the `World`.
#[rustfmt::skip]
fn pinned_sequential() -> Outcome {
    Outcome {
        now_ps: 810_000_000,
        events: 15_970,
        fabric: (2_400, 11_008, 0, 0),
        threads: vec![
            (805_663_000, 500, 0, 0, 0, 0, None),
            (519_287_000, 300, 0, 0, 0, 0, None),
            (720_455_500, 400, 0, 0, 0, 0, None),
        ],
    }
}

/// The donor-crash world's outcome, recorded before the lane executor was
/// folded into the `World`.
#[rustfmt::skip]
fn pinned_crash() -> Outcome {
    Outcome {
        now_ps: 3_862_085_392,
        events: 8_837,
        fabric: (1_822, 3_954, 20, 849),
        threads: vec![
            (364_568_500, 300, 0, 0, 0, 0, None),
            (583_630_000, 300, 0, 0, 0, 1, None),
            (283_790_000, 300, 0, 0, 0, 0, None),
        ],
    }
}

/// What the donor-crash world's blocking and posted drivers returned.
#[rustfmt::skip]
fn pinned_crash_drivers() -> Vec<Driven> {
    vec![
        ('C', 0, 1_278_000),
        ('C', 0, 2_556_000),
        ('C', 0, 3_834_000),
        ('P', 0, 4_134_000),
        ('P', 0, 4_434_000),
        ('P', 0, 4_734_000),
        ('P', 0, 5_412_000),
        ('P', 0, 5_712_000),
        ('F', 7, 1_726_306_920),
        ('F', 7, 2_794_201_992),
        ('P', 0, 2_794_501_992),
        ('P', 0, 2_794_801_992),
        ('P', 0, 2_795_101_992),
        ('P', 0, 3_861_449_392),
        ('C', 0, 3_862_385_392),
    ]
}
