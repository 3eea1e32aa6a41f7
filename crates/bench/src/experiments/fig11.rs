//! Figure 11 — PARSEC-class applications on local memory, remote memory
//! and remote swap.
//!
//! Paper's findings, all reproduced by kernels in the same locality and
//! footprint classes:
//!
//! * *blackscholes*, *raytrace*: remote memory close to local; remote swap
//!   roughly **2×** worse than the prototype;
//! * *canneal*: huge footprint + random pointer chasing — remote swap
//!   degrades to prohibitive levels, remote memory clearly slower than
//!   local but feasible;
//! * *streamcluster*: working set fits local memory — all three tie.

use crate::table::Table;
use crate::Scale;
use cohfree_core::backend::{AllocPolicy, RemoteMemorySpace, RemoteOptions, SwapConfig, SwapSpace};
use cohfree_core::{LocalMachine, MemSpace};
use cohfree_workloads::parsec::{BlackScholes, Canneal, RayTrace, StreamCluster};
use cohfree_workloads::Report;

/// One kernel's three-backend measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Data footprint in MiB.
    pub footprint_mib: f64,
    /// Execution time on the local-memory machine (ms).
    pub local_ms: f64,
    /// Execution time on the paper's remote memory (ms).
    pub remote_mem_ms: f64,
    /// Execution time under remote swap (ms).
    pub remote_swap_ms: f64,
}

/// Per-scale kernel parameters. The swap resident set is fixed at
/// `cache_pages`, chosen so blackscholes/raytrace moderately exceed it,
/// canneal vastly exceeds it, and streamcluster fits.
pub struct Setup {
    /// Swap resident-set bound in pages.
    pub cache_pages: usize,
    /// The blackscholes kernel.
    pub bs: BlackScholes,
    /// The raytrace kernel.
    pub rt: RayTrace,
    /// The canneal kernel.
    pub cn: Canneal,
    /// The streamcluster kernel.
    pub sc: StreamCluster,
}

/// Build the per-tier setup.
pub fn setup(scale: Scale) -> Setup {
    match scale {
        Scale::Smoke => Setup {
            cache_pages: 256, // 1 MiB resident
            bs: BlackScholes {
                options: 40_000,
                passes: 1,
                seed: 5,
            }, // 2.2 MiB
            rt: RayTrace {
                extent: 12,
                spheres: 12_000,
                rays: 1_500,
                cell_capacity: 8,
                seed: 6,
            },
            cn: Canneal {
                elements: 200_000,
                steps: 2_500,
                temperature: 100.0,
                seed: 7,
            }, // 9.6 MiB
            sc: StreamCluster {
                block_points: 512,
                dims: 8,
                centers: 4,
                blocks: 12,
                seed: 8,
            },
        },
        Scale::Default => Setup {
            cache_pages: 2_048, // 8 MiB resident
            bs: BlackScholes {
                options: 300_000,
                passes: 2,
                seed: 5,
            }, // 16.8 MiB
            rt: RayTrace {
                extent: 40,
                spheres: 120_000,
                rays: 12_000,
                cell_capacity: 8,
                seed: 6,
            },
            cn: Canneal {
                elements: 1_500_000,
                steps: 15_000,
                temperature: 100.0,
                seed: 7,
            }, // 72 MiB
            sc: StreamCluster {
                block_points: 2_048,
                dims: 16,
                centers: 8,
                blocks: 8,
                seed: 8,
            },
        },
        Scale::Paper => Setup {
            cache_pages: 16_384, // 64 MiB resident
            bs: BlackScholes {
                options: 2_500_000,
                passes: 4,
                seed: 5,
            },
            rt: RayTrace {
                extent: 64,
                spheres: 1_000_000,
                rays: 100_000,
                cell_capacity: 8,
                seed: 6,
            },
            cn: Canneal {
                elements: 10_000_000,
                steps: 120_000,
                temperature: 100.0,
                seed: 7,
            },
            sc: StreamCluster {
                block_points: 8_192,
                dims: 32,
                centers: 16,
                blocks: 16,
                seed: 8,
            },
        },
    }
}

fn backends(cache_pages: usize) -> (LocalMachine, RemoteMemorySpace, SwapSpace) {
    let cfg = super::cluster();
    (
        LocalMachine::new(cfg, 128 << 30),
        RemoteMemorySpace::with_options(
            cfg,
            super::n(1),
            AllocPolicy::AlwaysRemote,
            RemoteOptions {
                servers: Some(vec![super::n(2), super::n(5), super::n(7), super::n(10)]),
                ..RemoteOptions::default()
            },
        ),
        SwapSpace::remote(
            cfg,
            super::n(1),
            SwapConfig {
                cache_pages,
                ..SwapConfig::default()
            },
        ),
    )
}

fn triple<F>(name: &'static str, footprint: u64, cache_pages: usize, mut go: F) -> Row
where
    F: FnMut(&mut dyn MemSpace) -> Report,
{
    let (mut local, mut remote, mut swap) = backends(cache_pages);
    let local_ms = go(&mut local).elapsed_ms();
    let remote_mem_ms = go(&mut remote).elapsed_ms();
    let remote_swap_ms = go(&mut swap).elapsed_ms();
    Row {
        kernel: name,
        footprint_mib: footprint as f64 / (1 << 20) as f64,
        local_ms,
        remote_mem_ms,
        remote_swap_ms,
    }
}

/// Run the full figure. Each kernel's three backends are independent
/// worlds, so the kernels run concurrently on the order-preserving worker
/// pool.
pub fn run(scale: Scale) -> Vec<Row> {
    let s = setup(scale);
    crate::parallel_map(vec![0, 1, 2, 3], |kernel| match kernel {
        0 => triple("blackscholes", s.bs.footprint(), s.cache_pages, |m| {
            s.bs.run(m).0
        }),
        1 => triple("raytrace", s.rt.footprint(), s.cache_pages, |m| {
            s.rt.run(m).0
        }),
        2 => triple("canneal", s.cn.footprint(), s.cache_pages, |m| {
            s.cn.run(m).0
        }),
        _ => triple("streamcluster", s.sc.footprint(), s.cache_pages, |m| {
            s.sc.run(m).0
        }),
    })
}

/// Render the figure as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "Fig. 11 — PARSEC-class kernels: local vs. remote memory vs. remote swap",
        &[
            "kernel",
            "footprint_mib",
            "local_ms",
            "remote_mem_ms",
            "remote_swap_ms",
            "swap_vs_remote",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.into(),
            format!("{:.1}", r.footprint_mib),
            format!("{:.2}", r.local_ms),
            format!("{:.2}", r.remote_mem_ms),
            format!("{:.2}", r.remote_swap_ms),
            format!("{:.1}x", r.remote_swap_ms / r.remote_mem_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_shape() {
        let rows = run(Scale::Smoke);
        let get = |k: &str| rows.iter().find(|r| r.kernel == k).unwrap().clone();
        let bs = get("blackscholes");
        let cn = get("canneal");
        let sc = get("streamcluster");

        // blackscholes: swap noticeably worse than remote memory.
        assert!(
            bs.remote_swap_ms > 1.3 * bs.remote_mem_ms,
            "blackscholes: swap {} vs remote {}",
            bs.remote_swap_ms,
            bs.remote_mem_ms
        );
        // canneal: swap catastrophically worse; remote memory feasible.
        assert!(
            cn.remote_swap_ms > 5.0 * cn.remote_mem_ms,
            "canneal: swap {} vs remote {}",
            cn.remote_swap_ms,
            cn.remote_mem_ms
        );
        assert!(
            cn.remote_mem_ms > cn.local_ms,
            "canneal remote memory slower than local, but it runs"
        );
        // streamcluster: fits local memory -> all three within ~15%.
        let max = sc.local_ms.max(sc.remote_mem_ms).max(sc.remote_swap_ms);
        let min = sc.local_ms.min(sc.remote_mem_ms).min(sc.remote_swap_ms);
        assert!(max / min < 1.6, "streamcluster spread {min}..{max}");
        // Local is never slower than remote memory.
        for r in &rows {
            assert!(
                r.local_ms <= r.remote_mem_ms * 1.05,
                "{}: local {} vs remote {}",
                r.kernel,
                r.local_ms,
                r.remote_mem_ms
            );
        }
    }
}
