#![warn(missing_docs)]

//! # cohfree-bench — the experiment harness
//!
//! One module per results figure of the paper (and per ablation), each
//! exposing a pure function that runs the experiment and returns rows; thin
//! `src/bin/*.rs` mains print them. The same functions back the Criterion
//! benches, so `cargo bench` exercises every figure's code path.
//!
//! ## Scale
//!
//! Experiments default to a scaled-down size that finishes in seconds.
//! Set `COHFREE_SCALE=paper` for paper-scale runs (10 M-key trees, 500 k
//! searches — minutes of wall time), or `COHFREE_SCALE=smoke` for CI-speed
//! runs. Scaling changes problem sizes, never the architecture, so curve
//! *shapes* are preserved.

pub mod bencher;
pub mod chaos;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod table;

use cohfree_core::{envknob, EnvKnobError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over `items` on a bounded worker pool (experiments are
/// independent, deterministic simulations — embarrassingly parallel), and
/// return the results in input order.
///
/// At most [`std::thread::available_parallelism`] OS threads are spawned
/// regardless of how many items a sweep contains; workers pull items off a
/// shared index so a paper-scale sweep of dozens of configurations never
/// spawns dozens of threads. Falls back to sequential for a single item.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i]
                    .lock()
                    .expect("item mutex poisoned")
                    .take()
                    .expect("each index claimed once");
                let r = f(item);
                *slots[i].lock().expect("slot mutex poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot mutex poisoned")
                .expect("all slots filled")
        })
        .collect()
}

/// The value of the `COHFREE_*` knob `name` parsed by `parse`, `None` when
/// unset. A value the knob cannot use is a mistake the caller must see:
/// the typed [`EnvKnobError`] is printed and the process exits with
/// status 2 instead of falling back to a default.
pub fn env_knob<T>(
    name: &str,
    parse: impl FnOnce(&str, &str) -> Result<T, EnvKnobError>,
) -> Option<T> {
    envknob::lookup(name, parse).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Experiment size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity runs (used by `cargo bench` and tests).
    Smoke,
    /// Default: minutes-at-most runs preserving every curve shape.
    Default,
    /// The paper's sizes.
    Paper,
}

impl Scale {
    /// Read the tier from `COHFREE_SCALE` (`smoke` / `default` / `paper`;
    /// unset means `default`). Any other value exits with the typed error
    /// ([`env_knob`]).
    pub fn from_env() -> Scale {
        env_knob("COHFREE_SCALE", Scale::parse).unwrap_or(Scale::Default)
    }

    /// Parse a `COHFREE_SCALE` value.
    pub fn parse(name: &str, raw: &str) -> Result<Scale, EnvKnobError> {
        envknob::parse_choice(
            name,
            raw,
            &[
                ("smoke", Scale::Smoke),
                ("default", Scale::Default),
                ("paper", Scale::Paper),
            ],
            "one of smoke, default, paper",
        )
    }

    /// The tier's canonical name (as accepted by `COHFREE_SCALE`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }

    /// Pick one of three values by tier.
    pub fn pick<T: Copy>(self, smoke: T, default: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_every_tier_by_its_name() {
        for scale in [Scale::Smoke, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse("COHFREE_SCALE", scale.name()), Ok(scale));
        }
    }

    #[test]
    fn scale_rejects_unknown_tiers() {
        for bad in ["smok", "PAPER", "", "full"] {
            let e = Scale::parse("COHFREE_SCALE", bad).unwrap_err();
            assert_eq!((e.name.as_str(), e.value.as_str()), ("COHFREE_SCALE", bad));
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(items.clone(), |x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_item_is_sequential() {
        assert_eq!(parallel_map(vec![7u64], |x| x + 1), vec![8]);
        assert_eq!(
            parallel_map(Vec::<u64>::new(), |x| x + 1),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn parallel_map_caps_concurrent_threads() {
        // Many more items than cores: the observed peak concurrency must
        // stay within available_parallelism (the old implementation spawned
        // one thread per item and would peak at ~items).
        let cap = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..cap * 8 + 13).collect();
        let out = parallel_map(items.clone(), |x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out, items);
        let observed = peak.load(Ordering::SeqCst);
        assert!(
            observed <= cap,
            "peak concurrency {observed} exceeds available parallelism {cap}"
        );
        assert!(observed >= 1);
    }
}
