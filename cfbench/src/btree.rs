//! `btree_remote` and `btree_swap`: Fig. 10's b-tree under a seeded closed
//! loop of searches and inserts, checked op by op against a `BTreeSet`.

use crate::digest::Digest;
use crate::replay::{RemoteReplay, Replay, SwapReplay};
use crate::trace::{ratio, Layer, Totals};
use crate::{median, quantile, Params, Report, Workload, WorldCounters};
use cohfree_core::backend::{
    AccessStats, AllocPolicy, RemoteMemorySpace, RemoteOptions, SwapConfig, SwapSpace,
    SwapTransport,
};
use cohfree_core::{ClusterConfig, MemSpace, NodeId, Rng, SimDuration, World};
use cohfree_os::swap::SwapStats;
use cohfree_sim::stats::LatencyHistogram;
use cohfree_workloads::BTree;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

/// Children per node (Fig. 9's optimum, used by Fig. 10).
pub const CHILDREN: usize = 168;
/// The node the process runs on.
const CLIENT: u16 = 1;
/// Explicit donor servers, borrowed from round-robin.
const DONORS: [u16; 4] = [2, 5, 9, 13];
/// Frames per reservation zone: small enough that the tree spans all four
/// donors.
const ZONE_FRAMES: u64 = 256;
/// The traced run keeps full spans for every this-many-th op.
const SAMPLE_EVERY: u64 = 1_000;
const KEY_SALT: u64 = 0x6B65_7973;
const OP_SALT: u64 = 0x6F70_7321;

/// A memory space the b-tree benchmark can run on and fingerprint.
pub trait Backend: MemSpace {
    /// The cluster the space's transactions run in.
    fn world(&self) -> &World;
    /// Page-cache counters, for swap spaces.
    fn swap_stats(&self) -> Option<SwapStats> {
        None
    }
    /// An op starts (traced replays open its root span).
    fn begin_op(&mut self, _op: u64) {}
    /// The op ended.
    fn end_op(&mut self) {}
}

impl Backend for RemoteMemorySpace {
    fn world(&self) -> &World {
        RemoteMemorySpace::world(self)
    }
}

impl Backend for SwapSpace {
    fn world(&self) -> &World {
        SwapSpace::world(self).expect("fabric-transport swap has a cluster")
    }

    fn swap_stats(&self) -> Option<SwapStats> {
        Some(SwapSpace::swap_stats(self))
    }
}

fn donors() -> Vec<NodeId> {
    DONORS.iter().map(|&d| NodeId::new(d)).collect()
}

/// The real `btree_remote` backend.
pub fn remote_space() -> RemoteMemorySpace {
    RemoteMemorySpace::with_options(
        ClusterConfig::prototype(),
        NodeId::new(CLIENT),
        AllocPolicy::AlwaysRemote,
        RemoteOptions {
            servers: Some(donors()),
            zone_frames: ZONE_FRAMES,
            ..RemoteOptions::default()
        },
    )
}

/// The real `btree_swap` backend: remote swap over the RMC fabric, so page
/// moves are `World` transactions like the remote backend's line moves.
pub fn swap_space(cache_pages: usize) -> SwapSpace {
    SwapSpace::remote(
        ClusterConfig::prototype(),
        NodeId::new(CLIENT),
        SwapConfig {
            cache_pages,
            servers: Some(donors()),
            zone_frames: ZONE_FRAMES,
            transport: SwapTransport::Fabric,
        },
    )
}

/// Traced replay of [`remote_space`].
pub fn remote_replay() -> RemoteReplay {
    RemoteReplay::new(
        ClusterConfig::prototype(),
        NodeId::new(CLIENT),
        donors(),
        ZONE_FRAMES,
        SAMPLE_EVERY,
    )
}

/// Traced replay of [`swap_space`].
pub fn swap_replay(cache_pages: usize) -> SwapReplay {
    SwapReplay::new(
        ClusterConfig::prototype(),
        NodeId::new(CLIENT),
        cache_pages,
        donors(),
        ZONE_FRAMES,
        SAMPLE_EVERY,
    )
}

/// `count` distinct random keys, ascending.
pub fn keys(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ KEY_SALT);
    let mut keys: Vec<u64> = (0..count + count / 8 + 16)
        .map(|_| rng.next_u64())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(count);
    assert_eq!(keys.len(), count, "not enough distinct keys generated");
    keys
}

/// One b-tree operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look a key up.
    Search(u64),
    /// Insert a key.
    Insert(u64),
}

/// The seeded op stream: about a tenth inserts of random keys; the rest
/// searches, half for loaded keys and half for random ones.
pub struct OpGen {
    rng: Rng,
    keys: Rc<[u64]>,
}

impl OpGen {
    /// The stream for `seed` over the loaded `keys`.
    pub fn new(keys: Rc<[u64]>, seed: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed ^ OP_SALT),
            keys,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        if self.rng.below(10) == 0 {
            Op::Insert(self.rng.next_u64())
        } else if self.rng.below(2) == 0 {
            Op::Search(self.keys[self.rng.below(self.keys.len() as u64) as usize])
        } else {
            Op::Search(self.rng.next_u64())
        }
    }
}

/// A loaded tree with its reference model and op stream.
pub struct Session<M> {
    /// The memory space.
    pub mem: M,
    tree: BTree,
    /// Reference model the tree's answers are checked against.
    pub reference: BTreeSet<u64>,
    ops: OpGen,
    done: u64,
    /// Ops whose answer disagreed with the reference.
    pub failed: u64,
    searches: u64,
    nodes_visited: u64,
}

impl<M: Backend> Session<M> {
    /// Build a space with `build` and bulk-load `keys` into it; returns the
    /// session and the host seconds the build and load took.
    pub fn load(build: impl FnOnce() -> M, keys: Rc<[u64]>, seed: u64) -> (Session<M>, f64) {
        let reference: BTreeSet<u64> = keys.iter().copied().collect();
        let t0 = Instant::now();
        let mut mem = build();
        let tree = BTree::bulk_load(&mut mem, &keys, CHILDREN - 1);
        let secs = t0.elapsed().as_secs_f64();
        let session = Session {
            mem,
            tree,
            reference,
            ops: OpGen::new(keys, seed),
            done: 0,
            failed: 0,
            searches: 0,
            nodes_visited: 0,
        };
        (session, secs)
    }

    /// Run `n` ops timed one by one, then check every answer against the
    /// reference; returns the ops' simulated picoseconds. The ops are
    /// generated and checked outside the timed loop, so the benchmark's own
    /// data does not evict the simulator's from the host caches.
    pub fn window(&mut self, n: u64, host_ns: &mut Vec<u64>) -> Vec<u64> {
        let ops: Vec<Op> = (0..n).map(|_| self.ops.next_op()).collect();
        let mut answers = Vec::with_capacity(ops.len());
        let mut sim_ps = Vec::with_capacity(ops.len());
        for &op in &ops {
            let s0 = self.mem.now();
            self.mem.begin_op(self.done);
            let t0 = Instant::now();
            let answer = match op {
                Op::Search(k) => {
                    let o = self.tree.search(&mut self.mem, k);
                    self.searches += 1;
                    self.nodes_visited += u64::from(o.nodes_visited);
                    o.found
                }
                Op::Insert(k) => self.tree.insert(&mut self.mem, k),
            };
            host_ns.push(t0.elapsed().as_nanos() as u64);
            self.mem.end_op();
            self.done += 1;
            answers.push(answer);
            sim_ps.push(self.mem.now().since(s0).as_ps());
        }
        for (op, answer) in ops.into_iter().zip(answers) {
            let want = match op {
                Op::Search(k) => self.reference.contains(&k),
                Op::Insert(k) => self.reference.insert(k),
            };
            if answer != want {
                self.failed += 1;
            }
        }
        sim_ps
    }

    /// Mean tree nodes visited per search so far.
    pub fn nodes_per_search(&self) -> f64 {
        ratio(self.nodes_visited as f64, self.searches as f64)
    }
}

/// Simulated state after a window: what the self-check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Process clock, picoseconds.
    pub now_ps: u64,
    /// Backend access counters.
    pub stats: AccessStats,
    /// Engine events of the backend's cluster.
    pub events: u64,
    /// Page-cache counters (swap only).
    pub swap: Option<SwapStats>,
}

impl Fingerprint {
    /// Read `m`'s fingerprint.
    pub fn of<M: Backend>(m: &M) -> Fingerprint {
        Fingerprint {
            now_ps: m.now().as_ps(),
            stats: m.stats(),
            events: m.world().events_processed(),
            swap: m.swap_stats(),
        }
    }

    /// Digest of the fingerprint and the window's per-op simulated latency
    /// histogram.
    pub fn digest(&self, sim_ps: &[u64]) -> u64 {
        let mut d = Digest::default();
        d.word(self.now_ps)
            .access_stats(&self.stats)
            .word(self.events);
        if let Some(s) = &self.swap {
            d.swap_stats(s);
        }
        d.histogram(&histogram(sim_ps)).value()
    }
}

/// Per-op simulated latencies as the repository's log-linear histogram.
fn histogram(sim_ps: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &ps in sim_ps {
        h.record(SimDuration::ps(ps));
    }
    h
}

/// Run a b-tree workload.
pub fn run(p: &Params) -> Report {
    let pages = p.size.swap_pages;
    match (p.workload, p.trace) {
        (Workload::BtreeRemote, false) => untraced(p, remote_space),
        (Workload::BtreeSwap, false) => untraced(p, || swap_space(pages)),
        (Workload::BtreeRemote, true) => traced(p, remote_space, remote_replay),
        (Workload::BtreeSwap, true) => traced(p, || swap_space(pages), || swap_replay(pages)),
        (Workload::ServingOpen, _) => unreachable!("not a b-tree workload"),
    }
}

/// Compare window digests with the recorded one (default seed) or with
/// each other (any seed); a mismatching window's ops all count as failed.
fn check_digests(p: &Params, digests: &[u64], r: &mut Report) {
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
                p.size.window_ops,
                format!("window {i} digest {d:016x} != expected {expected:016x}"),
            );
        }
    }
}

/// Simulated per-op latency. Quantiles come from the histogram (as in the
/// repository's SLO reports): interpolating within a bucket keeps them
/// moving with the distribution where exact order statistics would sit on
/// one of a few discrete latencies.
fn sim_metrics(sim_ps: &[u64], r: &mut Report) {
    let h = histogram(sim_ps);
    r.metric("sim_op_mean_us", h.mean_ns() / 1e3);
    r.metric("sim_op_p50_us", h.quantile_ns(0.5) / 1e3);
    r.metric("sim_op_p999_us", h.quantile_ns(0.999) / 1e3);
}

/// The untraced run: epochs of one set-up and one checkpoint window each,
/// until the windows' op time reaches `seconds` (at least `setup_reps`
/// epochs). Every epoch runs the same ops on the same tree, so memory and
/// simulated outputs do not depend on how fast the host is, every epoch's
/// digest must agree, and epochs differ in host time only by interference
/// from the host. The host-time metrics therefore come from each op's
/// fastest repetition: op `i`'s host time is the least it took in any
/// epoch, and `ops_per_s`, `op_host_p50_us` and `op_host_p99_us` are taken
/// over those per-op times (see README.md, "Measured spread").
fn untraced<M: Backend>(p: &Params, build: impl Fn() -> M) -> Report {
    let mut r = Report::default();
    let keys: Rc<[u64]> = keys(p.size.keys, p.seed).into();
    let mut setup_s = Vec::new();
    let mut epoch_rate = Vec::new();
    let mut digests = Vec::new();
    let mut first_window = Vec::new();
    let mut host_ns = Vec::with_capacity(p.size.window_ops as usize);
    let mut best_ns = vec![u64::MAX; p.size.window_ops as usize];
    let mut spent_ns = 0u64;
    while setup_s.len() < p.size.setup_reps || (spent_ns as f64) < p.seconds * 1e9 {
        let (mut s, secs) = Session::load(&build, keys.clone(), p.seed);
        setup_s.push(secs);
        host_ns.clear();
        let sim = s.window(p.size.window_ops, &mut host_ns);
        digests.push(Fingerprint::of(&s.mem).digest(&sim));
        r.attempted += s.done;
        r.failed += s.failed;
        for (best, &ns) in best_ns.iter_mut().zip(&host_ns) {
            *best = (*best).min(ns);
        }
        let epoch_ns = host_ns.iter().sum::<u64>().max(1);
        spent_ns += epoch_ns;
        epoch_rate.push(host_ns.len() as f64 / (epoch_ns as f64 / 1e9));
        if first_window.is_empty() {
            first_window = sim;
        }
    }
    if r.failed > 0 {
        let n = std::mem::take(&mut r.failed);
        r.fail(n, "b-tree answers disagreed with the reference BTreeSet");
    }
    check_digests(p, &digests, &mut r);
    let best_total_ns = best_ns.iter().sum::<u64>().max(1);
    let mut best_us: Vec<f64> = best_ns.iter().map(|&n| n as f64 / 1e3).collect();
    best_us.sort_by(f64::total_cmp);
    r.metric("setup_s", median(&setup_s));
    r.metric(
        "ops_per_s",
        best_ns.len() as f64 / (best_total_ns as f64 / 1e9),
    );
    r.metric("op_host_p50_us", quantile(&best_us, 0.5));
    r.metric("op_host_p99_us", quantile(&best_us, 0.99));
    sim_metrics(&first_window, &mut r);
    r.note(format!(
        "epochs = {} x {} ops; op_host samples = {} ops, each at its fastest of the {} epochs; \
         whole-epoch ops_per_s: median {:.0}, best {:.0}",
        setup_s.len(),
        p.size.window_ops,
        best_ns.len(),
        setup_s.len(),
        median(&epoch_rate),
        epoch_rate.iter().copied().fold(0.0, f64::max)
    ));
    r
}

/// Layer totals, counters and cluster state when the op phase starts.
struct Before {
    totals: [Totals; Layer::COUNT],
    counters: crate::replay::PathCounters,
    stats: AccessStats,
    swap: SwapStats,
    events: u64,
    world: WorldCounters,
}

/// The traced run: the checkpoint window on the real backend (untraced,
/// timed), then on the traced replay; the replay must reproduce the real
/// run's simulated state exactly.
fn traced<M: Backend, R: Replay>(
    p: &Params,
    build: impl Fn() -> M,
    build_replay: impl Fn() -> R,
) -> Report {
    let mut r = Report::default();
    let keys: Rc<[u64]> = keys(p.size.keys, p.seed).into();
    let n = p.size.window_ops;

    let (mut real, _) = Session::load(&build, keys.clone(), p.seed);
    let mut host_ns = Vec::new();
    let t0 = Instant::now();
    let sim = real.window(n, &mut host_ns);
    let untraced_s = t0.elapsed().as_secs_f64();
    let real_fp = Fingerprint::of(&real.mem);
    let real_digest = real_fp.digest(&sim);
    r.attempted += n;
    if real.failed > 0 {
        r.fail(
            real.failed,
            "b-tree answers disagreed with the reference BTreeSet",
        );
    }
    check_digests(p, &[real_digest], &mut r);
    drop(real);

    let (mut rep, _) = Session::load(&build_replay, keys, p.seed);
    let tr = rep.mem.traced();
    let before = Before {
        totals: tr.rec.snapshot(),
        counters: tr.counters,
        stats: rep.mem.stats(),
        swap: rep.mem.swap_stats().unwrap_or_default(),
        events: tr.world.events_processed(),
        world: WorldCounters::read(&tr.world),
    };
    let t0 = Instant::now();
    let sim = rep.window(n, &mut host_ns);
    let traced_s = t0.elapsed().as_secs_f64();
    let fp = Fingerprint::of(&rep.mem);
    if fp != real_fp || fp.digest(&sim) != real_digest {
        r.fail(
            n,
            format!("replay self-check: replay {fp:?} != real backend {real_fp:?}"),
        );
    } else {
        r.note("replay self-check passed: end clock, AccessStats, events and swap stats match the real backend");
    }
    layer_metrics(&rep, &before, &mut r);
    r.metric("trace.overhead_ratio", traced_s / untraced_s);
    r.note(format!(
        "traced window = {n} ops: untraced {untraced_s:.3} s, traced {traced_s:.3} s; {} sampled spans",
        rep.mem.traced().rec.span_count()
    ));
    if let Some(dir) = &p.trace_dir {
        let path = dir.join(format!("{}-seed{}.json", p.workload.name(), p.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, rep.mem.traced().rec.chrome_trace()))
        {
            Ok(()) => r.note(format!("sampled spans written to {}", path.display())),
            Err(e) => r.note(format!("could not write {}: {e}", path.display())),
        }
    }
    r.metric("workloads.btree.nodes_per_search", rep.nodes_per_search());
    r
}

fn layer_metrics<R: Replay>(s: &Session<R>, b: &Before, r: &mut Report) {
    let t = s.mem.traced();
    let d = |l: Layer| t.rec.totals(l).since(&b.totals[l as usize]);
    let c = &t.counters;
    let stats = s.mem.stats();

    let backend = d(Layer::Backend);
    r.metric("core.backend.accesses", backend.calls as f64);
    r.metric(
        "core.backend.host_ns_per_access",
        backend.incl_ns_per_call(),
    );

    let pt = d(Layer::PageTable);
    r.metric("os.pagetable.translations", pt.calls as f64);
    r.metric(
        "os.pagetable.tlb_walks",
        (stats.tlb_walks - b.stats.tlb_walks) as f64,
    );
    r.metric("os.pagetable.self_ns_per_call", pt.self_ns_per_call());

    let accesses = c.cache_accesses - b.counters.cache_accesses;
    let misses = c.cache_misses - b.counters.cache_misses;
    r.metric("mem.cache.accesses", accesses as f64);
    r.metric("mem.cache.misses", misses as f64);
    r.metric(
        "mem.cache.hit_ratio",
        1.0 - ratio(misses as f64, accesses as f64),
    );
    r.metric(
        "mem.cache.writebacks",
        (c.cache_writebacks - b.counters.cache_writebacks) as f64,
    );
    r.metric(
        "mem.cache.self_ns_per_call",
        d(Layer::Cache).self_ns_per_call(),
    );

    let store = d(Layer::Store);
    r.metric("mem.store.calls", store.calls as f64);
    r.metric("mem.store.resident_pages", s.mem.resident_pages() as f64);
    r.metric("mem.store.self_ns_per_call", store.self_ns_per_call());

    let tx = d(Layer::WorldTx);
    let events = t.world.events_processed() - b.events;
    r.metric("core.world.transactions", tx.calls as f64);
    r.metric("core.world.tx_self_ns", tx.self_ns_per_call());
    r.metric(
        "core.world.tx_sim_ns_mean",
        ratio(
            (c.tx_sim_ps - b.counters.tx_sim_ps) as f64 / 1e3,
            tx.calls as f64,
        ),
    );
    r.metric(
        "core.world.events_per_tx",
        ratio((c.tx_events - b.counters.tx_events) as f64, tx.calls as f64),
    );
    r.metric("sim.engine.events", events as f64);
    r.metric(
        "sim.engine.events_per_s",
        ratio(events as f64, tx.incl_ns as f64 / 1e9),
    );
    r.metric(
        "sim.engine.host_ns_per_event",
        ratio(tx.incl_ns as f64, events as f64),
    );

    if let Some(sw) = s.mem.swap_stats() {
        let hits = sw.hits - b.swap.hits;
        let pc_misses = sw.major_faults - b.swap.major_faults;
        let fault = d(Layer::SwapFault);
        r.metric(
            "os.swap.major_faults",
            (stats.major_faults - b.stats.major_faults) as f64,
        );
        r.metric(
            "os.swap.minor_faults",
            (stats.minor_faults - b.stats.minor_faults) as f64,
        );
        r.metric(
            "os.swap.pages_out",
            (stats.pages_out - b.stats.pages_out) as f64,
        );
        r.metric(
            "os.swap.page_cache_hit_ratio",
            ratio(hits as f64, (hits + pc_misses) as f64),
        );
        r.metric("os.swap.fault_self_ns", fault.self_ns_per_call());
    }
    WorldCounters::report(&t.world, &b.world, c.max_link_backlog_ns, r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Size;

    fn params(w: Workload, trace: bool) -> Params {
        Params {
            workload: w,
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::TINY,
            trace_dir: None,
        }
    }

    #[test]
    fn a_wrong_reference_result_is_counted_as_failed() {
        let k: Rc<[u64]> = keys(Size::TINY.keys, 7).into();
        let (mut s, _) = Session::load(remote_space, k.clone(), 7);
        let mut ops = OpGen::new(k, 7);
        // Drop from the reference the first loaded key the stream searches.
        let victim = std::iter::from_fn(|| Some(ops.next_op()))
            .find_map(|op| match op {
                Op::Search(key) if s.reference.contains(&key) => Some(key),
                _ => None,
            })
            .expect("the stream searches loaded keys");
        s.reference.remove(&victim);
        let mut host = Vec::new();
        s.window(Size::TINY.window_ops, &mut host);
        assert!(s.failed >= 1, "the wrong reference answer must count");
        let mut r = Report {
            attempted: Size::TINY.window_ops,
            ..Report::default()
        };
        r.fail(s.failed, "reference mismatch");
        assert!(r.failed_ops_frac() > 0.0);
        assert!(!r.correct());
    }

    #[test]
    fn replays_pass_the_self_check() {
        for w in [Workload::BtreeRemote, Workload::BtreeSwap] {
            let r = run(&params(w, true));
            assert!(r.correct(), "{w:?}: {:?}", r.notes);
            assert!(r.value("os.pagetable.translations").unwrap() > 0.0);
            assert!(r.value("core.world.transactions").unwrap() > 0.0);
            assert!(r.value("mem.cache.misses").unwrap() > 0.0);
        }
    }

    #[test]
    fn swap_replay_exercises_the_fault_path() {
        let r = run(&params(Workload::BtreeSwap, true));
        assert!(r.value("os.swap.major_faults").unwrap() > 0.0);
        assert!(r.value("os.swap.pages_out").unwrap() > 0.0);
    }

    #[test]
    fn a_replay_that_drops_one_tlb_walk_charge_fails_the_self_check() {
        let p = params(Workload::BtreeRemote, true);
        let r = traced(&p, remote_space, || {
            let mut m = remote_replay();
            m.t.drop_walk_charges = 1;
            m
        });
        assert!(!r.correct());
        assert_eq!(r.failed, p.size.window_ops);
        assert!(r.notes.iter().any(|n| n.contains("replay self-check")));
    }

    #[test]
    fn same_seed_windows_agree() {
        let r = run(&params(Workload::BtreeSwap, false));
        assert!(r.correct(), "{:?}", r.notes);
        assert!(r.attempted >= Size::TINY.window_ops * Size::TINY.setup_reps as u64);
    }
}
