//! `serving_open`: the 256-node open-loop multi-tenant serving world.
//!
//! Arrivals are pre-generated from the seed and installed before the run
//! (set-up); the host then runs the whole batch in one `World::run` call,
//! which is the only boundary visible from outside. Per-request host time
//! is therefore amortized over that call.

use crate::digest::Digest;
use crate::trace::ratio;
use crate::{median, Params, Report, WorldCounters};
use cohfree_core::{ClusterConfig, NodeId, SimDuration, SimTime, Topology, World};
use cohfree_sim::stats::LatencyHistogram;
use cohfree_workloads::serving::{self, ArrivalSpec, RequestMix, Tenant, TenantSpec};
use std::time::Instant;

const TENANTS: u64 = 16;
/// Sampling interval of the traced run (link-backlog watermark).
const SAMPLE_INTERVAL: SimDuration = SimDuration::us(10);

/// Build the world and install every tenant's arrival schedule.
pub fn build(requests_per_tenant: u64, seed: u64) -> (World, Vec<Tenant>) {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    let mut w = World::new(cfg);
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|k| TenantSpec {
            name: format!("t{k}"),
            client: NodeId::new((k * 16 + 1) as u16),
            donors: vec![NodeId::new((256 - k * 16) as u16)],
            frames_per_donor: 256,
            lanes: 4,
            requests: requests_per_tenant,
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
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k,
            },
            write_fraction: 0.1,
            think: SimDuration::ns(5),
            start: SimTime::ZERO,
        })
        .collect();
    let tenants = serving::install(&mut w, &specs);
    (w, tenants)
}

/// One set-up and run.
struct Rep {
    world: World,
    tenants: Vec<Tenant>,
    setup_s: f64,
    run_s: f64,
}

impl Rep {
    fn new(p: &Params, sample: bool) -> Rep {
        let t0 = Instant::now();
        let (mut world, tenants) = build(p.size.requests_per_tenant, p.seed);
        let setup_s = t0.elapsed().as_secs_f64();
        if sample {
            world.enable_sampling(SAMPLE_INTERVAL);
        }
        let t0 = Instant::now();
        world.run();
        let run_s = t0.elapsed().as_secs_f64();
        Rep {
            world,
            tenants,
            setup_s,
            run_s,
        }
    }

    fn generated(&self) -> u64 {
        self.tenants.iter().map(|t| t.generated).sum()
    }

    fn sum(&self, f: impl Fn(&Tenant, &World) -> u64) -> u64 {
        self.tenants.iter().map(|t| f(t, &self.world)).sum()
    }

    fn latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.latency(&self.world));
        }
        h
    }

    /// Digest of the request outcomes (per-tenant counts and latency
    /// buckets), which sampling must not change.
    fn outcome_digest(&self) -> u64 {
        let mut d = Digest::default();
        for t in &self.tenants {
            d.word(t.generated)
                .word(t.completed(&self.world))
                .word(t.shed(&self.world))
                .word(t.failed(&self.world))
                .histogram(&t.latency(&self.world));
        }
        d.value()
    }

    /// Digest of every simulated output: end clock, events and outcomes.
    fn digest(&self) -> u64 {
        Digest::default()
            .word(self.world.now().as_ps())
            .word(self.world.events_processed())
            .word(self.outcome_digest())
            .value()
    }

    /// Count the requests that break conservation or did not complete in
    /// this fault-free world.
    fn check(&self, r: &mut Report) {
        r.attempted += self.generated();
        for t in &self.tenants {
            let completed = t.completed(&self.world);
            if !t.conserved(&self.world) || completed != t.generated {
                r.fail(
                    t.generated - completed.min(t.generated),
                    format!(
                        "tenant {}: generated {} completed {} shed {} failed {}",
                        t.name,
                        t.generated,
                        completed,
                        t.shed(&self.world),
                        t.failed(&self.world)
                    ),
                );
            }
        }
    }
}

fn check_digests(p: &Params, digests: &[u64], per_rep: u64, r: &mut Report) {
    let expected = p.recorded_digest().unwrap_or(digests[0]);
    r.note(format!(
        "digest = {:016x} (recorded for this seed: {})",
        digests[0],
        p.recorded_digest()
            .map_or("none".into(), |d| format!("{d:016x}"))
    ));
    for (i, &d) in digests.iter().enumerate() {
        if d != expected {
            r.fail(
                per_rep,
                format!("run {i} digest {d:016x} != expected {expected:016x}"),
            );
        }
    }
}

/// Run `serving_open`.
pub fn run(p: &Params) -> Report {
    if p.trace {
        traced(p)
    } else {
        untraced(p)
    }
}

/// Set up and run repeatedly until the runs reach `seconds` of host time
/// (at least `setup_reps` times). Every run is the same simulation, so runs
/// differ in host time only by interference from the host; the host-time
/// metrics come from the least-disturbed run. `World::run` is one call, so
/// there is no per-request host time visible from outside: both
/// `op_host_*` metrics read that run's host time amortized per request.
fn untraced(p: &Params) -> Report {
    let mut r = Report::default();
    let (mut setup_s, mut run_s, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_latency = None;
    let mut requests = 0;
    while setup_s.len() < p.size.setup_reps || run_s.iter().sum::<f64>() < p.seconds {
        let rep = Rep::new(p, false);
        rep.check(&mut r);
        requests = rep.generated();
        setup_s.push(rep.setup_s);
        run_s.push(rep.run_s);
        digests.push(rep.digest());
        first_latency.get_or_insert_with(|| rep.latency());
    }
    check_digests(p, &digests, requests, &mut r);
    let best_s = run_s.iter().copied().fold(f64::MAX, f64::min);
    let lat = first_latency.expect("at least one run");
    r.metric("setup_s", median(&setup_s));
    r.metric("ops_per_s", requests as f64 / best_s);
    r.metric("op_host_p50_us", best_s * 1e6 / requests as f64);
    r.metric("op_host_p99_us", best_s * 1e6 / requests as f64);
    r.metric("sim_op_mean_us", lat.mean_ns() / 1e3);
    r.metric("sim_op_p50_us", lat.quantile_ns(0.5) / 1e3);
    r.metric("sim_op_p999_us", lat.quantile_ns(0.999) / 1e3);
    r.note(format!(
        "runs = {} x {requests} requests; host-time metrics from the least-disturbed run \
         (median run {:.3} s, best {best_s:.3} s); sim samples = {}",
        run_s.len(),
        median(&run_s),
        lat.count()
    ));
    r
}

/// The traced run: one untraced run, then one with the world's public
/// sampler on (the link-backlog watermark); sampling must leave every
/// request outcome unchanged.
fn traced(p: &Params) -> Report {
    let mut r = Report::default();
    let plain = Rep::new(p, false);
    plain.check(&mut r);
    check_digests(p, &[plain.digest()], plain.generated(), &mut r);
    let sampled = Rep::new(p, true);
    if sampled.outcome_digest() != plain.outcome_digest() {
        r.fail(plain.generated(), "sampling changed request outcomes");
    } else {
        r.note("sampled-run self-check passed: request outcomes match the untraced run");
    }
    let events = plain.world.events_processed();
    r.metric("sim.engine.events", events as f64);
    r.metric("sim.engine.events_per_s", events as f64 / plain.run_s);
    r.metric(
        "sim.engine.host_ns_per_event",
        ratio(plain.run_s * 1e9, events as f64),
    );
    r.metric("workloads.serving.generated", plain.generated() as f64);
    r.metric(
        "workloads.serving.completed",
        plain.sum(Tenant::completed) as f64,
    );
    r.metric("workloads.serving.shed", plain.sum(Tenant::shed) as f64);
    r.metric("workloads.serving.failed", plain.sum(Tenant::failed) as f64);
    let backlog = sampled
        .world
        .samples()
        .iter()
        .map(|s| s.max_link_backlog_ns)
        .fold(0.0, f64::max);
    WorldCounters::report(&plain.world, &WorldCounters::default(), backlog, &mut r);
    r.metric("trace.overhead_ratio", sampled.run_s / plain.run_s);
    r.note(format!(
        "untraced run {:.3} s, sampled run {:.3} s, {} samples",
        plain.run_s,
        sampled.run_s,
        sampled.world.samples().len()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Size, Workload};

    fn params(trace: bool) -> Params {
        Params {
            workload: Workload::ServingOpen,
            seed: 3,
            seconds: 0.0,
            trace,
            size: Size::TINY,
            trace_dir: None,
        }
    }

    #[test]
    fn tiny_serving_conserves_and_repeats() {
        let r = run(&params(false));
        assert!(r.correct(), "{:?}", r.notes);
        assert_eq!(r.attempted, 2 * 16 * Size::TINY.requests_per_tenant);
    }

    #[test]
    fn traced_serving_reports_layers() {
        let r = run(&params(true));
        assert!(r.correct(), "{:?}", r.notes);
        assert!(r.value("sim.engine.events").unwrap() > 0.0);
        assert!(r.value("rmc.server.requests").unwrap() > 0.0);
        assert_eq!(
            r.value("workloads.serving.completed"),
            r.value("workloads.serving.generated")
        );
    }
}
