//! Benchmark-side span recorder for the traced run.
//!
//! Every layer call the replays make is wrapped in `enter`/`exit`. A span's
//! self time is its duration minus the time its child spans cover. Totals
//! (calls, inclusive and self nanoseconds) are kept for every span; full
//! span records only for sampled ops, so the trace stays small in memory.

use std::fmt::Write as _;
use std::time::Instant;

/// A layer boundary the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One b-tree operation (the root span of every op).
    Op,
    /// One `MemSpace::read`/`write` call on the backend.
    Backend,
    /// `PageTable::translate`.
    PageTable,
    /// `CacheHierarchy::access` / `flush_range`.
    Cache,
    /// `SparseStore::read` / `write`.
    Store,
    /// `World::blocking_transaction`.
    WorldTx,
    /// `World::local_access`.
    WorldLocal,
    /// `World::reserve_remote`.
    WorldResv,
    /// `PageCache::touch`.
    PageCache,
    /// The swap fault handler (page-cache victim choice, remap, page moves).
    SwapFault,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 10;

    /// Span name, in the repository's crate/module terms.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "workloads.btree.op",
            Layer::Backend => "core.backend.access",
            Layer::PageTable => "os.pagetable.translate",
            Layer::Cache => "mem.cache.access",
            Layer::Store => "mem.store.rw",
            Layer::WorldTx => "core.world.blocking_transaction",
            Layer::WorldLocal => "core.world.local_access",
            Layer::WorldResv => "core.world.reserve_remote",
            Layer::PageCache => "os.swap.page_cache_touch",
            Layer::SwapFault => "os.swap.fault",
        }
    }
}

/// Accumulated cost of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations.
    pub incl_ns: u64,
    /// Summed self times (duration minus child coverage).
    pub self_ns: u64,
}

impl Totals {
    /// Mean self nanoseconds per call (0 without calls).
    pub fn self_ns_per_call(&self) -> f64 {
        ratio(self.self_ns as f64, self.calls as f64)
    }

    /// Mean inclusive nanoseconds per call (0 without calls).
    pub fn incl_ns_per_call(&self) -> f64 {
        ratio(self.incl_ns as f64, self.calls as f64)
    }

    /// Difference `self - earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            calls: self.calls - earlier.calls,
            incl_ns: self.incl_ns - earlier.incl_ns,
            self_ns: self.self_ns - earlier.self_ns,
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Open {
    layer: Layer,
    id: u64,
    start: u64,
    child: u64,
}

struct Span {
    layer: Layer,
    id: u64,
    parent: u64,
    op: u64,
    start: u64,
    end: u64,
}

/// Records spans around layer calls.
pub struct Recorder {
    origin: Instant,
    open: Vec<Open>,
    totals: [Totals; Layer::COUNT],
    /// Keep full spans for ops whose index is a multiple of this.
    sample_every: u64,
    op: u64,
    sampled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder keeping full spans for every `sample_every`-th op.
    pub fn new(sample_every: u64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            open: Vec::with_capacity(8),
            totals: [Totals::default(); Layer::COUNT],
            sample_every: sample_every.max(1),
            op: 0,
            sampled: false,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn clock(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span of `layer`, child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let start = self.clock();
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            layer,
            id,
            start,
            child: 0,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end = self.clock();
        let s = self.open.pop().expect("exit without a matching enter");
        let dur = end - s.start;
        let t = &mut self.totals[s.layer as usize];
        t.calls += 1;
        t.incl_ns += dur;
        t.self_ns += dur.saturating_sub(s.child);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child += dur;
                p.id
            }
            None => 0,
        };
        if self.sampled {
            self.spans.push(Span {
                layer: s.layer,
                id: s.id,
                parent,
                op: self.op,
                start: s.start,
                end,
            });
        }
    }

    /// Open the root span of op number `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.sampled = op.is_multiple_of(self.sample_every);
        self.enter(Layer::Op);
    }

    /// Close the root span of the current op.
    pub fn end_op(&mut self) {
        self.exit();
        self.sampled = false;
    }

    /// Totals of one layer so far.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    /// Snapshot of every layer's totals.
    pub fn snapshot(&self) -> [Totals; Layer::COUNT] {
        self.totals
    }

    /// Sampled spans kept so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The sampled spans as a Chrome trace-event document (`ph: "X"`).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.layer.name(),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
                s.id,
                s.parent
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(1);
        r.begin_op(0);
        r.enter(Layer::Backend);
        r.enter(Layer::PageTable);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        r.end_op();
        let pt = r.totals(Layer::PageTable);
        let be = r.totals(Layer::Backend);
        assert_eq!(pt.calls, 1);
        assert_eq!(pt.self_ns, pt.incl_ns, "a leaf's self time is its duration");
        assert!(be.incl_ns >= pt.incl_ns);
        assert_eq!(be.self_ns, be.incl_ns - pt.incl_ns);
        assert_eq!(r.span_count(), 3, "sampled op keeps every span");
        assert!(r
            .chrome_trace()
            .contains("\"name\":\"os.pagetable.translate\""));
    }

    #[test]
    fn unsampled_ops_keep_totals_only() {
        let mut r = Recorder::new(10);
        r.begin_op(3);
        r.enter(Layer::Cache);
        r.exit();
        r.end_op();
        assert_eq!(r.span_count(), 0);
        assert_eq!(r.totals(Layer::Cache).calls, 1);
    }
}
