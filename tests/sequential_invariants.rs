//! Whole-world invariants of the event engine, asserted through the public
//! API on deliberately hostile worlds (message loss, crashes, link outages,
//! evacuation, the recovery manager, sampling and Full tracing at once):
//!
//! * the self-profiling registry is strictly out-of-band — every observable
//!   byte is identical with metrics off and on;
//! * a run that drains between sampling ticks still closes its time series
//!   with a sample at the final instant;
//! * a same-seed rerun reproduces every observable byte;
//! * open-loop serving requests are conserved across completed, shed and
//!   failed outcomes.

use cohfree::core::world::ThreadSpec;
use cohfree::core::{AccessPattern, FaultEvent, FaultPlan, ManagerConfig, TraceConfig};
use cohfree::sim::metrics;
use cohfree::{ClusterConfig, NodeId, Rng, SimDuration, SimTime, World};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::us(us)
}

/// A compact random thread description (node, donor, workload shape).
struct Spec {
    node: u16,
    donor: u16,
    accesses: u64,
    write_fraction: f64,
    seed: u64,
}

fn arb_specs(rng: &mut Rng, nodes: u16, max_accesses: u64) -> Vec<Spec> {
    let count = rng.range(2, 8) as usize;
    (0..count)
        .map(|_| Spec {
            node: rng.range(1, nodes as u64 + 1) as u16,
            donor: rng.range(1, nodes as u64 + 1) as u16,
            accesses: rng.range(1, max_accesses),
            write_fraction: rng.f64(),
            seed: rng.next_u64(),
        })
        .collect()
}

/// Build a sampled world of closed-loop threads and run it to drain.
fn run_world(cfg: ClusterConfig, specs: &[Spec]) -> World {
    let nodes = cfg.topology.num_nodes();
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(20));
    for s in specs {
        let node = n(s.node);
        let donor = if s.donor == s.node {
            n(s.donor % nodes + 1)
        } else {
            n(s.donor)
        };
        let resv = w.reserve_remote(node, 256, Some(donor));
        w.spawn_thread(
            ThreadSpec {
                node,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: s.accesses,
                bytes: 64,
                write_fraction: s.write_fraction,
                think: SimDuration::ns(5),
                seed: s.seed,
            },
            SimTime::ZERO,
        );
    }
    w.run();
    w
}

/// Every observable byte of a finished world: the snapshot document, the
/// complete span stream, the time series, the fault log and the per-thread
/// outcome counters (plus serving latency histograms).
fn fingerprint(w: &World) -> String {
    let mut out = String::new();
    out.push_str(&w.snapshot().doc.to_string());
    out.push('\n');
    out.push_str(&w.trace().chrome_trace().to_string());
    out.push('\n');
    for s in w.samples() {
        out.push_str(&format!(
            "{} {} {} {}\n",
            s.at.as_ns(),
            s.events_queued,
            s.client_in_flight.iter().sum::<usize>(),
            s.max_link_backlog_ns
        ));
    }
    out.push_str(&format!("{:?}\n", w.fault_log()));
    for id in 0..w.threads_spawned() {
        out.push_str(&format!(
            "t{id}: {} {} {} {} {}",
            w.thread_completed(id),
            w.thread_failed(id),
            w.thread_shed(id),
            w.thread_nacks(id),
            w.thread_evacuated_retries(id)
        ));
        if let Some(h) = w.thread_latency(id) {
            out.push_str(&format!(" lat {} {:?}", h.count(), h.bucket_counts()));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "now={} processed={}",
        w.now(),
        w.events_processed()
    ));
    out
}

/// FNV-1a digest of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |d, &b| {
        (d ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Self-profiling records entirely out-of-band: every observable byte is
/// identical with metrics off or on, through a crash, loss (suspect
/// timers), sampling and Full tracing all at once. Enabling the tier
/// process-wide is safe to leak to concurrently running tests — it is
/// output-invariant by this very contract.
#[test]
fn metrics_enabled_output_is_byte_identical() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    cfg.fabric.loss_rate = 1e-3;
    cfg.recovery.max_retries = 4;
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: t(40),
        node: n(6),
    });
    let specs = arb_specs(&mut Rng::new(0x0B5E), 16, 120);
    let off = fingerprint(&run_world(cfg, &specs));

    metrics::set_enabled(true);
    let on = fingerprint(&run_world(cfg, &specs));
    let snap = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(off, on, "metrics-on run diverged from metrics-off");
    // The probes must actually have been live, not compiled away.
    assert!(snap.counter("cohfree_seq_runs_total") >= 1);
}

/// `World::run` closes the sample series with a sample at the final
/// instant when the run drains between probe ticks, with and without a
/// mid-run crash. A second batch of work after the first drain runs with no
/// probe pending (the probe stops re-arming once it finds the queue empty),
/// so there only the drain-time sample can close the series.
#[test]
fn drain_between_probe_ticks_closes_the_sample_series() {
    let sample_series = |cfg: ClusterConfig, interval_us: u64| {
        let mut w = World::new(cfg);
        w.enable_sampling(SimDuration::us(interval_us));
        let resv = w.reserve_remote(n(1), 256, Some(n(16)));
        for k in 0..3u64 {
            w.spawn_thread(
                ThreadSpec {
                    node: n(1 + (k as u16) * 5),
                    zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                    accesses: 5,
                    bytes: 64,
                    write_fraction: 0.2,
                    think: SimDuration::ns(5),
                    seed: 42 + k,
                },
                SimTime::ZERO,
            );
        }
        w.run();
        let first = (w.samples().last().map(|s| s.at), w.now());
        let again = w.reserve_remote(n(2), 64, Some(n(3)));
        w.spawn_thread(
            ThreadSpec {
                node: n(2),
                zones: vec![(again.prefixed_base, again.frames * 4096)],
                accesses: 5,
                bytes: 64,
                write_fraction: 0.2,
                think: SimDuration::ns(5),
                seed: 45,
            },
            w.now(),
        );
        w.run();
        let series: Vec<(u64, usize)> = w
            .samples()
            .iter()
            .map(|s| (s.at.as_ns(), s.events_queued))
            .collect();
        (first, series, w.now())
    };
    // Probe intervals far coarser than the ~tens-of-µs drain time.
    for crash in [false, true] {
        for interval_us in [100u64, 1000] {
            let mut cfg = ClusterConfig::prototype();
            if crash {
                cfg.fabric.loss_rate = 1e-3;
                cfg.recovery.max_retries = 4;
                cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
                    at: t(3),
                    node: n(16),
                });
            }
            let label = format!("crash={crash} interval={interval_us}us");
            let (first, series, now) = sample_series(cfg, interval_us);
            assert_eq!(first.0, Some(first.1), "{label}: first run's series");
            assert!(now > first.1, "{label}: the second batch must advance time");
            assert_eq!(
                series.last().map(|&(at, _)| at),
                Some(now.as_ns()),
                "{label}: series must close with a drain-time sample"
            );
            assert_eq!(
                sample_series(cfg, interval_us),
                (first, series, now),
                "{label}: same-seed rerun diverged"
            );
        }
    }
}

/// Fault churn with the online recovery manager: crash + restart, a link
/// flap, a server stall, loss and a tight retry budget, so the manager's
/// control loop runs alongside failure detection and evacuation. A
/// same-seed rerun must reproduce every observable byte, and those bytes
/// are pinned by their FNV-1a digest and length.
#[test]
fn fault_churn_manager_world_reruns_byte_identically() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    cfg.manager = ManagerConfig::enabled();
    cfg.fabric.loss_rate = 1e-3;
    cfg.recovery.max_retries = 6;
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: t(40),
            node: n(7),
        })
        .with(FaultEvent::ServerStall {
            at: t(15),
            node: n(10),
            duration: SimDuration::us(40),
        })
        .with(FaultEvent::LinkDown {
            at: t(25),
            a: n(1),
            b: n(5),
        })
        .with(FaultEvent::LinkUp {
            at: t(110),
            a: n(1),
            b: n(5),
        })
        .with(FaultEvent::NodeRestart {
            at: t(220),
            node: n(7),
        });
    let specs = arb_specs(&mut Rng::new(0x3A6E), 16, 150);
    let first = run_world(cfg, &specs);
    assert!(
        first.manager().is_some() && !first.fault_log().is_empty(),
        "the manager and the fault plan must both be live"
    );
    let print = fingerprint(&first);
    assert_eq!(
        print,
        fingerprint(&run_world(cfg, &specs)),
        "same-seed rerun diverged"
    );
    assert_eq!(
        (fnv1a(print.as_bytes()), print.len()),
        (0x9DEC_4469_1FCE_A6BF, 271_071),
        "fingerprint differs from the one recorded before the lane executor was folded into the World"
    );
}

/// Seeded Poisson arrivals for the serving world below.
fn poisson_arrivals(seed: u64, rate_hz: f64, count: usize) -> Vec<SimTime> {
    let mut rng = Rng::new(seed);
    let mut t = SimTime::ZERO;
    (0..count)
        .map(|_| {
            t += SimDuration::ps(((rng.exponential(rate_hz) * 1e12).round() as u64).max(1));
            t
        })
        .collect()
}

/// A zipf point-KV tenant on node 1 (donors 3 and 4) and a sequential-scan
/// tenant on node 2 (donor 5), both open loop, with the recovery manager
/// live and donor 3 crashing mid-run: every generated request must end as
/// exactly one of completed, shed or failed.
#[test]
fn serving_world_conserves_requests_across_outcomes() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceConfig::full();
    cfg.manager = ManagerConfig::enabled();
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: t(40),
        node: n(3),
    });
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(20));
    let kv_zones = {
        let a = w.reserve_remote(n(1), 128, Some(n(3)));
        let b = w.reserve_remote(n(1), 128, Some(n(4)));
        vec![
            (a.prefixed_base, a.frames * 4096),
            (b.prefixed_base, b.frames * 4096),
        ]
    };
    for lane in 0..2u64 {
        let arrivals = poisson_arrivals(0x5E41 + lane, 2.0e6, 300);
        w.spawn_serving_thread(
            ThreadSpec {
                node: n(1),
                zones: kv_zones.clone(),
                accesses: arrivals.len() as u64,
                bytes: 64,
                write_fraction: 0.1,
                think: SimDuration::ns(5),
                seed: 0x5EED + lane,
            },
            arrivals,
            AccessPattern::Zipf(0.9),
        );
    }
    let scan = w.reserve_remote(n(2), 128, Some(n(5)));
    let arrivals = poisson_arrivals(0xC01, 4.0e5, 120);
    w.spawn_serving_thread(
        ThreadSpec {
            node: n(2),
            zones: vec![(scan.prefixed_base, scan.frames * 4096)],
            accesses: arrivals.len() as u64,
            bytes: 4096,
            write_fraction: 0.0,
            think: SimDuration::ns(20),
            seed: 0xA11,
        },
        arrivals,
        AccessPattern::Sequential,
    );
    w.run();
    let (mut completed, mut resolved, mut generated) = (0, 0, 0);
    for id in 0..w.threads_spawned() {
        completed += w.thread_completed(id);
        resolved += w.thread_completed(id) + w.thread_failed(id) + w.thread_shed(id);
        generated += w.thread_accesses(id);
        let h = w
            .thread_latency(id)
            .expect("serving threads have histograms");
        assert_eq!(h.count(), w.thread_completed(id));
    }
    assert_eq!(
        resolved, generated,
        "generated == completed + failed + shed"
    );
    assert!(completed > 0);
}
