//! The repository benchmark.
//!
//! Three workloads, each single-threaded on the default sequential engine:
//!
//! * `btree_remote` — Fig. 10's 168-child b-tree on `RemoteMemorySpace`;
//! * `btree_swap` — the same keys and operations on `SwapSpace::remote`;
//! * `serving_open` — a 256-node open-loop multi-tenant serving world.
//!
//! The benchmark drives only public APIs and times each layer from outside:
//! it times its own calls into the layer's public functions and adds no
//! tracing inside the simulator. End-to-end metrics come from an untraced
//! run; per-layer metrics from a separate traced run (see `README.md`).

mod btree;
mod digest;
mod replay;
mod serving;
mod trace;

use cohfree_core::{NodeId, World};
use std::path::PathBuf;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_host_p50_us", "us"),
    ("op_host_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_op_mean_us", "us"),
    ("sim_op_p50_us", "us"),
    ("sim_op_p999_us", "us"),
];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.backend.accesses", "count"),
    ("core.backend.host_ns_per_access", "ns"),
    ("os.pagetable.translations", "count"),
    ("os.pagetable.tlb_walks", "count"),
    ("os.pagetable.self_ns_per_call", "ns"),
    ("mem.cache.accesses", "count"),
    ("mem.cache.misses", "count"),
    ("mem.cache.hit_ratio", "ratio"),
    ("mem.cache.writebacks", "count"),
    ("mem.cache.self_ns_per_call", "ns"),
    ("mem.store.calls", "count"),
    ("mem.store.resident_pages", "count"),
    ("mem.store.self_ns_per_call", "ns"),
    ("core.world.transactions", "count"),
    ("core.world.tx_self_ns", "ns"),
    ("core.world.tx_sim_ns_mean", "ns"),
    ("core.world.events_per_tx", "count"),
    ("os.swap.major_faults", "count"),
    ("os.swap.minor_faults", "count"),
    ("os.swap.pages_out", "count"),
    ("os.swap.page_cache_hit_ratio", "ratio"),
    ("os.swap.fault_self_ns", "ns"),
    ("sim.engine.events", "count"),
    ("sim.engine.events_per_s", "1/s"),
    ("sim.engine.host_ns_per_event", "ns"),
    ("fabric.delivered", "count"),
    ("fabric.hops_per_msg", "count"),
    ("fabric.max_link_backlog_ns", "ns"),
    ("rmc.client.completions", "count"),
    ("rmc.client.nacks", "count"),
    ("rmc.client.accept_ratio", "ratio"),
    ("rmc.server.requests", "count"),
    ("rmc.server.max_engine_utilization", "ratio"),
    ("mem.dram.accesses", "count"),
    ("mem.dram.max_utilization", "ratio"),
    ("workloads.btree.nodes_per_search", "count"),
    ("workloads.serving.generated", "count"),
    ("workloads.serving.completed", "count"),
    ("workloads.serving.shed", "count"),
    ("workloads.serving.failed", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The seed whose simulated-output digests are recorded in [`RECORDED`].
pub const DEFAULT_SEED: u64 = 1;

/// Simulated-output digests of [`DEFAULT_SEED`] at [`Size::FULL`]. A model
/// change moves them; record the new values in the same change.
pub const RECORDED: &[(Workload, u64)] = &[
    (Workload::BtreeRemote, 0x3982_e7af_4ffc_a747),
    (Workload::BtreeSwap, 0x3031_6a07_d926_7c9b),
    (Workload::ServingOpen, 0xde99_6f2c_2dad_a9e0),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10's b-tree on remote memory.
    BtreeRemote,
    /// The same b-tree on remote swap.
    BtreeSwap,
    /// Open-loop multi-tenant serving.
    ServingOpen,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::BtreeRemote,
        Workload::BtreeSwap,
        Workload::ServingOpen,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BtreeRemote => "btree_remote",
            Workload::BtreeSwap => "btree_swap",
            Workload::ServingOpen => "serving_open",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. Everything but the measured phase's length is fixed here,
/// so the same seed always gives the same inputs and simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Keys bulk-loaded into the b-tree.
    pub keys: usize,
    /// B-tree ops in the checkpoint window: the simulated-latency metrics,
    /// the digest and the traced run all cover exactly these ops.
    pub window_ops: u64,
    /// Resident pages of `btree_swap` (well below the tree's footprint).
    pub swap_pages: usize,
    /// Set-ups per run (each followed by a checkpoint window or a serving
    /// run); `setup_s` is their median.
    pub setup_reps: usize,
    /// Serving requests per tenant (16 tenants).
    pub requests_per_tenant: u64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        keys: 400_000,
        window_ops: 100_000,
        swap_pages: 1_024,
        setup_reps: 5,
        requests_per_tenant: 6_000,
    };

    /// A tiny size for the benchmark's own tests.
    pub const TINY: Size = Size {
        keys: 20_000,
        window_ops: 2_000,
        swap_pages: 48,
        setup_reps: 2,
        requests_per_tenant: 60,
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the measured phase lasts (untraced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where the traced run writes its sampled spans (none if `None`).
    pub trace_dir: Option<PathBuf>,
}

impl Params {
    /// The recorded digest these inputs must reproduce, if any.
    pub fn recorded_digest(&self) -> Option<u64> {
        if self.seed != DEFAULT_SEED || self.size != Size::FULL {
            return None;
        }
        RECORDED
            .iter()
            .find(|(w, _)| *w == self.workload)
            .map(|&(_, d)| d)
    }
}

/// A run's result: operation counts, metrics and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name` (must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn metric(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.value(name).is_none(), "metric {name} recorded twice");
        self.metrics.push((name, value, unit));
    }

    /// A recorded metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Add a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Count `n` failed operations and say why.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.note(format!("FAILED ({n} ops): {}", why.into()));
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn failed_ops_frac(&self) -> f64 {
        trace::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Traced runs report every per-layer metric: layers the workload does
    /// not exercise read 0 and are named in a note.
    pub fn fill_unexercised_layers(&mut self) {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.value(n).is_none())
            .collect();
        if !missing.is_empty() {
            self.note(format!(
                "not exercised (reported as 0): {}",
                missing.join(", ")
            ));
        }
        for n in missing {
            self.metric(n, 0.0);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            // `f64`'s `Display` prints every digit and never an exponent,
            // so it is a valid JSON number.
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one invocation.
pub fn run(p: &Params) -> Report {
    let mut r = match p.workload {
        Workload::BtreeRemote | Workload::BtreeSwap => btree::run(p),
        Workload::ServingOpen => serving::run(p),
    };
    if p.trace {
        r.fill_unexercised_layers();
    } else {
        r.metric("peak_rss_mb", peak_rss_mb());
    }
    r.note(format!("failed_ops_frac = {}", r.failed_ops_frac()));
    r
}

/// The process's peak resident set (VmHWM), MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host fingerprint: core count, CPU model and `rustc -V`, as one JSON
/// object, so results from different hosts are never taken for one host's.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu_model\": {}, \"rustc\": {}}}}}",
        json_str(&cpu),
        json_str(&rustc)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Linear-interpolated quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Cumulative cluster counters read through `World`'s public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldCounters {
    delivered: u64,
    hops: u64,
    completions: u64,
    nacks: u64,
    server_requests: u64,
    dram_accesses: u64,
}

impl WorldCounters {
    /// Read the counters of every node of `w`.
    pub fn read(w: &World) -> WorldCounters {
        let mut c = WorldCounters {
            delivered: w.fabric().delivered(),
            hops: w.fabric().total_hops(),
            ..WorldCounters::default()
        };
        for n in nodes(w) {
            c.completions += w.client(n).completions();
            c.nacks += w.client(n).nacks();
            c.server_requests += w.server(n).requests();
            c.dram_accesses += w.memory(n).accesses();
        }
        c
    }

    /// Report the fabric, RMC and DRAM metrics of `w` since `before`;
    /// `max_backlog_ns` is the largest link backlog the caller observed.
    pub fn report(w: &World, before: &WorldCounters, max_backlog_ns: f64, r: &mut Report) {
        let now = WorldCounters::read(w);
        let delivered = now.delivered - before.delivered;
        let completions = now.completions - before.completions;
        let nacks = now.nacks - before.nacks;
        let horizon = w.now();
        r.metric("fabric.delivered", delivered as f64);
        r.metric(
            "fabric.hops_per_msg",
            trace::ratio((now.hops - before.hops) as f64, delivered as f64),
        );
        r.metric("fabric.max_link_backlog_ns", max_backlog_ns);
        r.metric("rmc.client.completions", completions as f64);
        r.metric("rmc.client.nacks", nacks as f64);
        r.metric(
            "rmc.client.accept_ratio",
            trace::ratio(completions as f64, (completions + nacks) as f64),
        );
        r.metric(
            "rmc.server.requests",
            (now.server_requests - before.server_requests) as f64,
        );
        r.metric(
            "rmc.server.max_engine_utilization",
            nodes(w)
                .map(|n| w.server(n).engine_utilization(horizon))
                .fold(0.0, f64::max),
        );
        r.metric(
            "mem.dram.accesses",
            (now.dram_accesses - before.dram_accesses) as f64,
        );
        r.metric(
            "mem.dram.max_utilization",
            nodes(w)
                .map(|n| w.memory(n).max_utilization(horizon))
                .fold(0.0, f64::max),
        );
    }
}

fn nodes(w: &World) -> impl Iterator<Item = NodeId> {
    (1..=w.config().topology.num_nodes()).map(NodeId::new)
}
