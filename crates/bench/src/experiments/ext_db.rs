//! EXT-DB — the database query study the paper names as its next step.
//!
//! Conclusions, Section VI: "store indexes or the entire database in
//! memory, and then study the execution time for different queries". A
//! heap table with hash + B-tree indexes lives entirely in each memory
//! system; we measure the four classic query types. Expected (and
//! measured) pattern, following Eqs. 1–2:
//!
//! * point queries (one random row): remote memory ≫ remote swap,
//! * narrow ranges: remote memory still wins (index hops are random),
//! * full-table scans: sequential — the swap baseline amortizes whole
//!   pages and closes most of the gap,
//! * inserts: index maintenance is pointer-chasing — swap suffers.

use crate::table::Table;
use crate::Scale;
use cohfree_core::backend::{AllocPolicy, RemoteMemorySpace, SwapConfig, SwapSpace};
use cohfree_core::{ClusterConfig, LocalMachine, MemSpace, Rng};
use cohfree_workloads::db::{Database, Row, ATTRS};

/// Sizing of the study.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Rows loaded before measuring.
    pub rows: u64,
    /// Point queries measured.
    pub points: u64,
    /// Range queries measured (each ~0.5% selectivity).
    pub ranges: u64,
    /// Full scans measured.
    pub scans: u64,
    /// Inserts measured.
    pub inserts: u64,
    /// Swap resident-set bound in pages.
    pub cache_pages: usize,
}

/// Per-tier sizing: the database is several times the swap resident set.
pub fn sizing(scale: Scale) -> Sizing {
    let rows = scale.pick(30_000u64, 250_000, 2_000_000);
    Sizing {
        rows,
        points: scale.pick(200, 1_000, 20_000),
        ranges: scale.pick(10, 30, 200),
        scans: scale.pick(1, 2, 4),
        inserts: scale.pick(200, 1_000, 20_000),
        // Heap+indexes ≈ 90 B/row; resident set holds about a fifth.
        cache_pages: (rows as usize * 90 / 4096 / 5).max(64),
    }
}

/// One backend's measured query latencies (microseconds per query).
#[derive(Debug, Clone)]
pub struct RowOut {
    /// Backend label.
    pub backend: &'static str,
    /// Mean point-query time.
    pub point_us: f64,
    /// Mean range-query time (~0.5% selectivity).
    pub range_us: f64,
    /// Mean full-scan time.
    pub scan_us: f64,
    /// Mean insert time.
    pub insert_us: f64,
}

fn mk_row(id: u64, rng: &mut Rng) -> Row {
    let mut attrs = [0u64; ATTRS];
    for a in &mut attrs {
        *a = rng.below(1_000);
    }
    Row { id, attrs }
}

fn run_backend<M: MemSpace>(label: &'static str, mut m: M, sz: Sizing) -> RowOut {
    let mut rng = Rng::new(0xDB);
    let id_space = sz.rows * 4; // sparse ids so ranges have gaps
    let mut db = Database::create(&mut m, sz.rows + sz.inserts + 16);
    // Populate (untimed phase).
    let mut loaded = 0;
    while loaded < sz.rows {
        let r = mk_row(rng.below(id_space), &mut rng);
        if db.insert(&mut m, r) {
            loaded += 1;
        }
    }

    // Point queries.
    let t0 = m.now();
    for _ in 0..sz.points {
        db.point(&mut m, rng.below(id_space));
    }
    let point_us = m.now().since(t0).as_us_f64() / sz.points as f64;

    // Range queries, ~0.5% of the id space each.
    let span = id_space / 200;
    let t0 = m.now();
    for _ in 0..sz.ranges {
        let lo = rng.below(id_space - span);
        db.range_sum(&mut m, lo, lo + span, 1);
    }
    let range_us = m.now().since(t0).as_us_f64() / sz.ranges as f64;

    // Full scans.
    let t0 = m.now();
    for attr in 0..sz.scans {
        db.scan_sum(&mut m, (attr % ATTRS as u64) as usize);
    }
    let scan_us = m.now().since(t0).as_us_f64() / sz.scans as f64;

    // Inserts (fresh ids beyond the populated space).
    let t0 = m.now();
    for k in 0..sz.inserts {
        db.insert(&mut m, mk_row(id_space + k + 1, &mut rng));
    }
    let insert_us = m.now().since(t0).as_us_f64() / sz.inserts as f64;

    RowOut {
        backend: label,
        point_us,
        range_us,
        scan_us,
        insert_us,
    }
}

/// Run all three backends. Each is an independent world, so they run
/// concurrently on the order-preserving worker pool.
pub fn run(scale: Scale) -> Vec<RowOut> {
    let sz = sizing(scale);
    let cfg = ClusterConfig::prototype();
    crate::parallel_map(vec![0, 1, 2], |backend| match backend {
        0 => run_backend("local", LocalMachine::new(cfg, 128 << 30), sz),
        1 => run_backend(
            "remote memory",
            RemoteMemorySpace::new(cfg, super::n(1), AllocPolicy::AlwaysRemote),
            sz,
        ),
        _ => run_backend(
            "remote swap",
            SwapSpace::remote(
                cfg,
                super::n(1),
                SwapConfig {
                    cache_pages: sz.cache_pages,
                    ..SwapConfig::default()
                },
            ),
            sz,
        ),
    })
}

/// Render the study as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "EXT-DB — query latencies (us) on an in-memory database",
        &["backend", "point_us", "range_us", "scan_us", "insert_us"],
    );
    for r in &rows {
        t.row(vec![
            r.backend.into(),
            format!("{:.2}", r.point_us),
            format!("{:.1}", r.range_us),
            format!("{:.1}", r.scan_us),
            format!("{:.2}", r.insert_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_shape_follows_the_locality_story() {
        let rows = run(Scale::Smoke);
        let get = |b: &str| rows.iter().find(|r| r.backend == b).unwrap().clone();
        let local = get("local");
        let remote = get("remote memory");
        let swap = get("remote swap");
        // Random-access queries: remote memory beats swap clearly.
        assert!(
            swap.point_us > 3.0 * remote.point_us,
            "point: swap {} vs remote {}",
            swap.point_us,
            remote.point_us
        );
        assert!(
            swap.insert_us > 2.0 * remote.insert_us,
            "insert: swap {} vs remote {}",
            swap.insert_us,
            remote.insert_us
        );
        // Sequential scans: the page-amortizing swap closes most of the gap
        // (ratio far below the point-query ratio).
        let point_ratio = swap.point_us / remote.point_us;
        let scan_ratio = swap.scan_us / remote.scan_us;
        assert!(
            scan_ratio < point_ratio / 2.0,
            "scan ratio {scan_ratio} vs point ratio {point_ratio}"
        );
        // Local is the floor everywhere.
        assert!(local.point_us <= remote.point_us);
        assert!(local.scan_us <= remote.scan_us * 1.05);
    }
}
