//! Byte-identity guard for the `World`'s per-event path.
//!
//! Every `World` event passes through the calendar event queue and, for
//! message hops, through `fabric::step_row`. Both are rewritten for speed
//! from time to time; every such rewrite must leave the simulated outcome
//! untouched. Two small seeded worlds drive that path, and the constants
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

use cohfree::core::world::ThreadSpec;
use cohfree::core::{FaultEvent, FaultPlan};
use cohfree::sim::stats::LatencyHistogram;
use cohfree::workloads::serving::{self, ArrivalSpec, RequestMix, TenantSpec};
use cohfree::{ClusterConfig, NodeId, SimDuration, SimTime, Topology, World};

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

fn bucket_digest(h: &LatencyHistogram) -> u64 {
    h.bucket_counts()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |d, &c| {
            c.to_le_bytes()
                .iter()
                .fold(d, |d, &b| (d ^ b as u64).wrapping_mul(0x0100_0000_01B3))
        })
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
