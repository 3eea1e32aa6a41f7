//! Engine self-profiling: a process-global runtime metrics registry.
//!
//! [`crate::stats`] measures the *simulated* cluster; this module measures
//! the *simulator itself* — events per second, queue depth, runs — so
//! engine PRs can see where host time goes. Three properties drive the
//! design:
//!
//! * **Zero-cost when off.** The registry is compiled in unconditionally,
//!   but every probe begins with [`enabled`] — one relaxed load of a static
//!   `AtomicBool` — and hot loops cache that bool once per run, so the
//!   disabled tier costs a predictable branch. The perf harness's
//!   `--metrics-overhead` gate verifies the enabled tier too.
//! * **Out-of-band.** Probes write wall-clock and scheduler counts into
//!   this registry only; nothing here is ever read back by simulation
//!   code, so simulation output stays byte-identical with metrics on or
//!   off (pinned by the umbrella crate's `tests/sequential_invariants.rs`
//!   and by CI's metrics-on/off report byte-compares).
//! * **Dependency-free.** Plain `std` maps behind one mutex. Low-frequency
//!   call sites lock directly; hot paths accumulate into run-local structs
//!   and flush once per run.
//!
//! The registry holds monotone counters and `(t, v)` time series.
//! [`render_prometheus`] emits it in Prometheus text exposition format:
//! one sample per counter, and one gauge sample per series point tagged
//! with a `t` label.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

struct Registry {
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }
}

fn reg() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("metrics registry poisoned")
}

/// Whether the registry is recording. Probes branch on this; hot loops
/// should load it once per run into a local and branch on that.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Off is the default; the bench pipeline turns
/// it on when `COHFREE_METRICS` names an export path.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drop every recorded value (the enabled flag is left as-is). Call
/// between runs that must not see each other's numbers.
pub fn reset() {
    let mut r = reg();
    r.counters.clear();
    r.series.clear();
}

/// Add `v` to the counter `name`. No-op while disabled.
pub fn counter_add(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    *reg().counters.entry(name.to_string()).or_insert(0) += v;
}

/// Append the point `(t, v)` to the time series `name` (`t` is whatever
/// monotone x-axis the probe uses: events processed, sim-ns, wall-ns).
/// No-op while disabled.
pub fn series_push(name: &str, t: u64, v: f64) {
    if !enabled() {
        return;
    }
    reg()
        .series
        .entry(name.to_string())
        .or_default()
        .push((t, v));
}

/// Point-in-time copy of everything recorded, for experiment tables and
/// tests. Maps are ordered by full metric name.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Append-only `(t, v)` series by name.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Snapshot {
    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Copy the registry out. Works whether or not recording is enabled.
pub fn snapshot() -> Snapshot {
    let r = reg();
    Snapshot {
        counters: r.counters.clone(),
        series: r.series.clone(),
    }
}

fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Render `snap` in Prometheus text exposition format: one sample per
/// counter, and one gauge sample per series point with the probe's
/// x-value as a `t` label.
pub fn render_prometheus_snapshot(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        type_line(&mut out, name, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, points) in &snap.series {
        type_line(&mut out, name, "gauge");
        for &(t, v) in points {
            let _ = writeln!(out, "{name}{{t=\"{t}\"}} {v}");
        }
    }
    out
}

/// [`render_prometheus_snapshot`] over the live registry.
pub fn render_prometheus() -> String {
    render_prometheus_snapshot(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; these tests serialize on their own
    /// lock so they never see each other's writes.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(false);
        counter_add("off_counter", 7);
        series_push("off_series", 0, 1.0);
        let s = snapshot();
        assert!(s.counters.is_empty());
        assert!(s.series.is_empty());
    }

    #[test]
    fn reset_clears_between_runs_but_keeps_the_tier() {
        with_clean_registry(|| {
            counter_add("runs_total", 1);
            series_push("s", 1, 2.0);
            assert_eq!(snapshot().counter("runs_total"), 1);
            reset();
            assert!(enabled(), "reset must not flip the tier");
            let s = snapshot();
            assert_eq!(s.counter("runs_total"), 0);
            assert!(s.series.is_empty());
            // A fresh run starts counting from zero, not from stale state.
            counter_add("runs_total", 1);
            assert_eq!(snapshot().counter("runs_total"), 1);
        });
    }

    #[test]
    fn prometheus_counters_render_with_a_type_line() {
        with_clean_registry(|| {
            counter_add("evs_total", 2);
            counter_add("evs_total", 3);
            let text = render_prometheus();
            assert!(
                text.contains("# TYPE evs_total counter\nevs_total 5"),
                "{text}"
            );
        });
    }

    #[test]
    fn prometheus_series_render_one_sample_per_point() {
        with_clean_registry(|| {
            series_push("eps", 65536, 10.5);
            series_push("eps", 131072, 11.0);
            let text = render_prometheus();
            assert!(text.contains("# TYPE eps gauge"), "{text}");
            assert!(text.contains("eps{t=\"65536\"} 10.5"), "{text}");
            assert!(text.contains("eps{t=\"131072\"} 11"), "{text}");
        });
    }
}
