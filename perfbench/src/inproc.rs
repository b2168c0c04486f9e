//! In-process phases: the deterministic single-worker replay whose
//! counters must repeat exactly, and the no-network throughput of the
//! batch executor the server uses.

use crate::util::Slices;
use crate::workload::Plan;
use nnq_core::{
    par_mixed_batch_dedup, within_radius_with, BatchQuery, JoinOrder, NnOptions, NnSearch, Refiner,
    SearchStats,
};
use nnq_rtree::RTree;
use nnq_serve::ServeConfig;
use std::time::{Duration, Instant};

/// The query options the server runs every batch with.
pub fn serve_opts(config: &ServeConfig) -> NnOptions {
    NnOptions {
        kernel: config.kernel,
        prefetch: config.prefetch,
        ..NnOptions::default()
    }
}

/// Counters of the deterministic replay.
pub struct Det {
    pub queries: u64,
    pub stats: SearchStats,
    pub pool_logical: u64,
}

/// Runs the first `n` requests of the stream one at a time, on one
/// thread, against the tree as set up. Same code and seed give the same
/// counters, bit for bit.
pub fn deterministic_replay<R: Refiner<2>>(
    tree: &RTree<2>,
    refiner: &R,
    plan: &Plan,
    n: usize,
) -> nnq_core::Result<Det> {
    let pool_before = tree.pool().stats().logical_reads;
    let nn = NnSearch::new(tree);
    let mut stats = SearchStats::default();
    for q in plan.stream.iter().take(n) {
        let (hits, s) = match *q {
            BatchQuery::Knn { q, k } => nn.query_refined(&q, k, refiner)?,
            BatchQuery::Radius { q, radius } => {
                within_radius_with(tree, &q, radius, refiner, NnOptions::default().kernel)?
            }
        };
        std::hint::black_box(hits);
        stats.accumulate(&s);
    }
    Ok(Det {
        queries: n.min(plan.stream.len()) as u64,
        stats,
        pool_logical: tree.pool().stats().logical_reads - pool_before,
    })
}

/// Runs the stream through `par_mixed_batch_dedup` in batches of
/// `batch_max` for `dur`, one snapshot per batch as the server takes
/// them. Returns the queries per second of each whole `slice`, and how many
/// traversals ran (duplicates in a batch run once).
pub fn throughput<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    plan: &Plan,
    config: &ServeConfig,
    dur: Duration,
    slice: Duration,
) -> nnq_core::Result<(Vec<f64>, u64)> {
    let opts = serve_opts(config);
    let len = plan.stream.len();
    let mut cursor = 0usize;
    let mut batch: Vec<BatchQuery<2>> = Vec::with_capacity(config.batch_max);
    let mut executed = 0u64;
    let start = Instant::now();
    let mut slices = Slices::new(start, dur, slice);
    while start.elapsed() < dur {
        batch.clear();
        batch.extend((0..config.batch_max).map(|i| plan.stream[(cursor + i) % len]));
        cursor += config.batch_max;
        let snap = tree.snapshot();
        let out = par_mixed_batch_dedup(
            &snap,
            &batch,
            opts,
            refiner,
            config.threads,
            JoinOrder::Hilbert,
            None,
        )?;
        executed += out.1.executed as u64;
        std::hint::black_box(out);
        slices.add(Instant::now(), batch.len() as u64);
    }
    let rates = slices.rates();
    Ok((rates, executed))
}
