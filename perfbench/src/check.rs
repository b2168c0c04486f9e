//! Answer checks, run after the measurement on the index as it stands.
//!
//! Read-only workloads must match a sequential query on the same index
//! bit for bit: record ids, `dist_sq` bits and `logical_reads`. The
//! ingest workload only adds records while it is served, so an answer
//! must lie between the index before the first insert and the index
//! after the last one.

use crate::load::{Answer, Log};
use crate::workload::Plan;
use nnq_core::{
    within_radius_with, BatchQuery, KernelMode, Neighbor, NnOptions, NnSearch, Refiner, SearchStats,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{RTree, RecordId, TreeAccess};
use std::collections::HashSet;

/// The sequential reference for one request.
fn reference<T: TreeAccess<2> + ?Sized, R: Refiner<2>>(
    tree: &T,
    refiner: &R,
    opts: NnOptions,
    q: &BatchQuery<2>,
) -> nnq_core::Result<(Vec<Neighbor<2>>, SearchStats)> {
    match *q {
        BatchQuery::Knn { q, k } => {
            NnSearch::with_options(tree, opts).query_refined(&q, k, refiner)
        }
        BatchQuery::Radius { q, radius } => {
            within_radius_with(tree, &q, radius, refiner, KernelMode::default())
        }
    }
}

/// Computes `f(stream index)` once for every request some answer in
/// `log` came from, on every available core.
fn per_request<T: Send, F>(plan: &Plan, log: &Log, f: F) -> nnq_core::Result<Vec<Option<T>>>
where
    F: Fn(&BatchQuery<2>) -> nnq_core::Result<T> + Sync,
{
    let len = plan.stream.len();
    let mut needed: Vec<usize> = log
        .answers
        .iter()
        .map(|a| (a.id % len as u64) as usize)
        .collect();
    needed.sort_unstable();
    needed.dedup();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = needed.len().div_ceil(threads).max(1);
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = needed
            .chunks(chunk)
            .map(|idx| {
                let f = &f;
                scope.spawn(move || -> nnq_core::Result<Vec<(usize, T)>> {
                    idx.iter().map(|&i| Ok((i, f(&plan.stream[i])?))).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check worker panicked"))
            .collect::<Vec<_>>()
    });
    for part in parts {
        for (i, r) in part? {
            out[i] = Some(r);
        }
    }
    Ok(out)
}

fn rows(hits: &[Neighbor<2>]) -> Vec<(u64, u64)> {
    hits.iter()
        .map(|n| (n.record.0, n.dist_sq.to_bits()))
        .collect()
}

/// Bit-exact check of every served answer against the sequential query.
/// Returns how many answers differ.
pub fn exact<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    plan: &Plan,
    log: &Log,
) -> nnq_core::Result<u64> {
    let refs = per_request(plan, log, |q| {
        let snap = tree.snapshot();
        reference(&snap, refiner, NnOptions::default(), q).map(|(h, s)| (rows(&h), s.nodes_visited))
    })?;
    let len = plan.stream.len() as u64;
    Ok(log
        .answers
        .iter()
        .filter(|a| {
            let (hits, reads) = refs[(a.id % len) as usize]
                .as_ref()
                .expect("reference computed");
            a.logical_reads != *reads || log.hits[a.start..a.start + a.len] != hits[..]
        })
        .count() as u64)
}

/// The refiner as it was before any insert: inserted records are
/// infinitely far away.
struct BaseOnly<'a, R> {
    inner: &'a R,
    n_base: u64,
}

impl<R: Refiner<2>> Refiner<2> for BaseOnly<'_, R> {
    fn dist_sq(&self, record: RecordId, mbr: &Rect<2>, q: &Point<2>) -> f64 {
        if record.0 >= self.n_base {
            f64::INFINITY
        } else {
            self.inner.dist_sq(record, mbr, q)
        }
    }
}

/// What an ingest answer is checked against.
enum Bracket {
    /// k-th distance after the last insert, and before the first.
    Knn { final_kth: f64, initial_kth: f64 },
    /// Records within the radius after the last insert.
    Radius { final_hits: HashSet<u64> },
}

/// Bracket check of the answers the ingest workload kept (the first of
/// each phase). Returns how many fall outside their bracket.
pub fn bracket<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    plan: &Plan,
    log: &Log,
) -> nnq_core::Result<u64> {
    let n_base = plan.n_base as u64;
    // Downward and object pruning trust every MBR to hold an object
    // within its MINMAXDIST, which masked-out records break; upward
    // pruning uses real candidate distances only.
    let initial_opts = NnOptions {
        prune_downward: false,
        prune_object: false,
        ..NnOptions::default()
    };
    let base_only = BaseOnly {
        inner: refiner,
        n_base,
    };
    let refs = per_request(plan, log, |q| {
        let snap = tree.snapshot();
        let (now, _) = reference(&snap, refiner, NnOptions::default(), q)?;
        Ok(match q {
            BatchQuery::Knn { .. } => {
                let (before, _) = reference(&snap, &base_only, initial_opts, q)?;
                Bracket::Knn {
                    final_kth: now.last().map_or(f64::INFINITY, |n| n.dist_sq),
                    initial_kth: before.last().map_or(f64::INFINITY, |n| n.dist_sq),
                }
            }
            BatchQuery::Radius { .. } => Bracket::Radius {
                final_hits: now.iter().map(|n| n.record.0).collect(),
            },
        })
    })?;
    let len = plan.stream.len() as u64;
    let known = plan.segments.len() as u64;
    let in_bracket = |a: &Answer| -> bool {
        let query = &plan.stream[(a.id % len) as usize];
        let q = query.point();
        let hits = &log.hits[a.start..a.start + a.len];
        // Every row is a real record at its exact distance, in order.
        let exact = hits.iter().all(|&(rec, bits)| {
            rec < known && bits == plan.segments[rec as usize].dist_sq_to_point(q).to_bits()
        });
        let sorted = hits
            .windows(2)
            .all(|w| f64::from_bits(w[0].1) <= f64::from_bits(w[1].1));
        let within = match (refs[(a.id % len) as usize].as_ref(), query) {
            (
                Some(Bracket::Knn {
                    final_kth,
                    initial_kth,
                }),
                BatchQuery::Knn { k, .. },
            ) => {
                let kth = hits.last().map_or(f64::INFINITY, |h| f64::from_bits(h.1));
                hits.len() == *k && *final_kth <= kth && kth <= *initial_kth
            }
            (Some(Bracket::Radius { final_hits }), BatchQuery::Radius { .. }) => {
                let got: HashSet<u64> = hits.iter().map(|h| h.0).collect();
                got.len() == hits.len()
                    && got.is_subset(final_hits)
                    && final_hits
                        .iter()
                        .filter(|&&r| r < n_base)
                        .all(|r| got.contains(r))
            }
            _ => false,
        };
        a.logical_reads > 0 && exact && sorted && within
    };
    Ok(log.answers.iter().filter(|a| !in_bracket(a)).count() as u64)
}
