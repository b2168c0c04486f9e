//! Parallel batch queries.
//!
//! The paper's conclusion lists parallel nearest-neighbor search as future
//! work; this module provides the embarrassingly-parallel form: a batch of
//! independent queries fanned out over scoped worker threads. Both tree
//! backends are internally synchronized for reads (`&self` queries), so
//! workers share one tree.
//!
//! Every batch in the crate — the two executors here, the partitioned
//! batch, and each scatter round over partitions — runs through one
//! claim loop, [`work_steal`]: work-stealing over a shared atomic cursor
//! rather than static chunking. Every worker claims a small block of items
//! at a time, so one expensive query (huge `k`, far-off point, dense
//! region) stalls only the worker that claimed it while the rest of the
//! batch drains through the other workers. The batch finishes in roughly
//! `max(most expensive single query, total work / threads)` instead of
//! `total work / threads + slowest static chunk`.
//!
//! Determinism: each item is computed independently from the shared tree
//! snapshot, so results are bit-identical to `threads = 1` regardless of
//! which worker claims which block.
//!
//! Scheduling order is orthogonal to result order: a batch can walk its
//! items along a Hilbert curve (mirroring
//! [`JoinOrder::Hilbert`](crate::join::JoinOrder)) so consecutive claimed
//! queries touch overlapping subtrees — warmer node cache, tighter prefetch
//! reuse — while results still come back in submission order.

use crate::branch_bound::{NnSearch, QueryCursor};
use crate::join::{hilbert_schedule, JoinOrder};
use crate::options::{Neighbor, NnOptions, SearchStats};
use crate::radius::within_radius_with;
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::Point;
use nnq_rtree::TreeAccess;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One request in a mixed query batch — the serving layer's unit of work.
///
/// kNN and radius queries ride the same micro-batch: both are point
/// queries against the same tree snapshot, so they share the Hilbert
/// claim schedule and the per-worker [`QueryCursor`] scratch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchQuery<const D: usize> {
    /// k-nearest-neighbor query at `q`.
    Knn {
        /// The query point.
        q: Point<D>,
        /// Neighbors requested.
        k: usize,
    },
    /// Distance-range query at `q` (linear radius, not squared).
    Radius {
        /// The query point.
        q: Point<D>,
        /// Inclusive distance cutoff; must be nonnegative.
        radius: f64,
    },
}

impl<const D: usize> BatchQuery<D> {
    /// The query point (the coordinate the Hilbert schedule orders by).
    pub fn point(&self) -> &Point<D> {
        match self {
            BatchQuery::Knn { q, .. } | BatchQuery::Radius { q, .. } => q,
        }
    }
}

/// How a batch run distributed its queries.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Workers that ran (1 for the inline path).
    pub threads: usize,
    /// Queries claimed per cursor increment.
    pub block: usize,
    /// Queries each worker ended up executing. Sums to `executed`; under
    /// load imbalance the worker stuck on an expensive query claims fewer,
    /// which is the observable signature of stealing.
    pub per_worker_queries: Vec<usize>,
    /// Queries that actually ran a traversal: the batch length, or the
    /// number of unique requests when duplicates were merged
    /// (`len - executed` is the number of answers fanned out for free).
    pub executed: usize,
}

/// Block size for the shared cursor: small enough that an expensive query
/// can be compensated by the other workers (at most one block is claimed
/// blind), large enough that the atomic increment amortizes.
fn block_size(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).clamp(1, 32)
}

/// The claim loop behind every batch: runs `run(scratch, i)` for each item
/// `i < len` on up to `threads` workers claiming blocks of positions from
/// a shared cursor, and returns the results in item order.
///
/// * `block_override` fixes the claim block (`None` uses [`block_size`]);
///   any block size yields the same results, only steal granularity moves.
/// * `schedule`, when given, is the claim order: a permutation of
///   `0..len` that workers walk front to back. Results still land at each
///   item's own slot, so the schedule never shows in the output.
/// * `scratch` builds one per-worker scratch value (e.g. a
///   [`QueryCursor`]) reused across every item the worker claims.
///
/// With one worker (`threads == 1`, or at most one item) the loop runs
/// inline on the caller's thread, spawning nothing. A worker panic is
/// resumed on the caller's thread.
pub(crate) fn work_steal<S, T, I, F>(
    len: usize,
    threads: usize,
    block_override: Option<usize>,
    schedule: Option<&[usize]>,
    scratch: I,
    run: F,
) -> Result<(Vec<T>, BatchStats)>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T> + Sync,
{
    assert!(threads > 0, "need at least one worker");
    let item = |pos: usize| schedule.map_or(pos, |order| order[pos]);
    let workers = threads.min(len);
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let stats = if workers <= 1 {
        let mut s = scratch();
        for pos in 0..len {
            let i = item(pos);
            slots[i] = Some(run(&mut s, i)?);
        }
        BatchStats {
            threads: 1,
            block: len,
            per_worker_queries: vec![len],
            executed: len,
        }
    } else {
        let block = block_override.map_or_else(|| block_size(len, workers), |b| b.max(1));
        let next = AtomicUsize::new(0);
        type WorkerOut<T> = Result<Vec<(usize, T)>>;
        let worker_outs: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| -> WorkerOut<T> {
                        let mut s = scratch();
                        let mut out = Vec::new();
                        loop {
                            let start = next.fetch_add(block, Ordering::Relaxed);
                            if start >= len {
                                break;
                            }
                            for pos in start..(start + block).min(len) {
                                let i = item(pos);
                                out.push((i, run(&mut s, i)?));
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let mut per_worker_queries = Vec::with_capacity(workers);
        for worker_out in worker_outs {
            let pairs = worker_out?;
            per_worker_queries.push(pairs.len());
            for (i, result) in pairs {
                slots[i] = Some(result);
            }
        }
        BatchStats {
            threads: workers,
            block,
            per_worker_queries,
            executed: len,
        }
    };
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed exactly once"))
        .collect();
    Ok((results, stats))
}

/// The one [`BatchQuery`] executor: optionally merges duplicate requests
/// (identical [`canonical key`](BatchQuery::canonical_key) bytes) so each
/// unique request runs once, claims the unique requests in `order`
/// through [`work_steal`], and fans every answer back out to its
/// duplicates' submission-order slots.
///
/// Merging is sound because each request is a pure function of
/// `(tree, query)` for the duration of the batch, so a duplicate's answer
/// — stats included — is bit-identical to what its own execution would
/// produce. The unique list keeps first-submission order, so with no
/// duplicates the execution (schedule included) is exactly the unmerged
/// one. The returned [`BatchStats`] describe the merged execution.
pub(crate) fn run_requests<const D: usize, S, T, I, F>(
    requests: &[BatchQuery<D>],
    dedup: bool,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
    scratch: I,
    run: F,
) -> Result<(Vec<T>, BatchStats)>
where
    T: Clone + Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &BatchQuery<D>) -> Result<T> + Sync,
{
    let mut slot_of: Vec<usize> = Vec::new();
    let mut unique: Vec<BatchQuery<D>> = Vec::new();
    if dedup {
        let mut first_of: HashMap<Vec<u8>, usize> = HashMap::with_capacity(requests.len());
        for req in requests {
            let slot = *first_of.entry(req.canonical_key()).or_insert_with(|| {
                unique.push(*req);
                unique.len() - 1
            });
            slot_of.push(slot);
        }
    }
    let batch = if dedup && unique.len() < requests.len() {
        &unique[..]
    } else {
        requests
    };
    let schedule = match order {
        JoinOrder::AsGiven => None,
        JoinOrder::Hilbert => {
            let points: Vec<Point<D>> = batch.iter().map(|r| *r.point()).collect();
            Some(hilbert_schedule(&points))
        }
    };
    let (results, stats) = work_steal(
        batch.len(),
        threads,
        block_override,
        schedule.as_deref(),
        scratch,
        |s, i| run(s, &batch[i]),
    )?;
    if batch.len() == requests.len() {
        return Ok((results, stats));
    }
    let fanned = slot_of.iter().map(|&slot| results[slot].clone()).collect();
    Ok((fanned, stats))
}

/// Runs a kNN query for every point in `queries`, fanning the batch out
/// over `threads` worker threads that claim blocks from a shared cursor.
/// Results are returned in query order and are bit-identical to
/// `threads = 1`, which runs inline (no threads spawned).
///
/// ```
/// use nnq_core::{par_knn_batch, NnOptions, MbrRefiner};
/// use nnq_rtree::{MemRTree, RecordId};
/// use nnq_geom::{Point, Rect};
///
/// let mut tree = MemRTree::<2>::new();
/// for i in 0..1000u64 {
///     let p = Point::new([(i % 50) as f64, (i / 50) as f64]);
///     tree.insert(&Rect::from_point(p), RecordId(i)).unwrap();
/// }
/// let queries: Vec<_> = (0..64).map(|i| Point::new([i as f64, i as f64])).collect();
/// let results = par_knn_batch(&tree, &queries, 3, NnOptions::default(), &MbrRefiner, 4).unwrap();
/// assert_eq!(results.len(), 64);
/// assert!(results.iter().all(|r| r.len() == 3));
/// ```
pub fn par_knn_batch<const D: usize, T, R>(
    tree: &T,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<Vec<Vec<Neighbor<D>>>>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    let search = NnSearch::with_options(tree, opts);
    let run = |cursor: &mut QueryCursor<D>, i: usize| {
        let (found, _) = search.query_refined_with(cursor, &queries[i], k, refiner)?;
        Ok(found)
    };
    work_steal(queries.len(), threads, None, None, QueryCursor::new, run).map(|(found, _)| found)
}

/// Runs a mixed batch of kNN and radius queries (the `nnq serve` drain
/// path) with **intra-batch deduplication**: requests whose
/// [`canonical key`](BatchQuery::canonical_key) bytes are identical
/// execute exactly once, and the single answer (results *and*
/// [`SearchStats`]) fans out to every duplicate's submission-order slot.
/// Under Zipf-skewed serving traffic a micro-batch routinely carries the
/// same hot query many times; there is no reason to traverse for it more
/// than once per batch. Near-duplicates are never merged: the canonical
/// key encodes `f64` parameters as raw bits, so queries one ulp apart stay
/// distinct.
///
/// The unique requests fan out over `threads` workers claiming blocks
/// from a shared cursor (`block_override` fixes the block — the
/// self-tuning controller's batch knob), walked in `order`. Returns, in
/// submission order, each request's results **and** its per-query
/// [`SearchStats`] — the serving layer reports `nodes_visited` back to
/// the client as the query's logical page reads, the paper's cost unit.
/// Both are bit-identical to a sequential loop over every request,
/// regardless of thread count, claim-block size, or schedule.
///
/// The returned [`BatchStats`] describe the *deduplicated* execution:
/// `executed` (and the sum of `per_worker_queries`) is the number of
/// unique requests, so `requests.len() - executed` is the number of
/// traversals the merge saved.
#[allow(clippy::type_complexity)]
pub fn par_mixed_batch_dedup<const D: usize, T, R>(
    tree: &T,
    requests: &[BatchQuery<D>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<(Vec<Neighbor<D>>, SearchStats)>, BatchStats)>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    // Radius queries take the standalone traversal (no cursor state), kNN
    // reuses the worker's cursor scratch; both are deterministic per
    // request.
    let search = NnSearch::with_options(tree, opts);
    let run = |cursor: &mut QueryCursor<D>, req: &BatchQuery<D>| match *req {
        BatchQuery::Knn { q, k } => search.query_refined_with(cursor, &q, k, refiner),
        BatchQuery::Radius { q, radius } => {
            within_radius_with(tree, &q, radius, refiner, opts.kernel)
        }
    };
    run_requests(
        requests,
        true,
        threads,
        order,
        block_override,
        QueryCursor::new,
        run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use nnq_geom::Rect;
    use nnq_rtree::{MemRTree, RecordId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_and_queries(n: usize, nq: usize) -> (MemRTree<2>, Vec<Point<2>>) {
        let mut rng = StdRng::seed_from_u64(12);
        let tree = MemRTree::new();
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            tree.insert(&Rect::from_point(p), RecordId(i as u64))
                .unwrap();
        }
        let queries = (0..nq)
            .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        (tree, queries)
    }

    #[test]
    fn parallel_equals_sequential() {
        let (tree, queries) = tree_and_queries(5_000, 200);
        let seq = par_knn_batch(&tree, &queries, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
        for threads in [2, 4, 7] {
            let par = par_knn_batch(
                &tree,
                &queries,
                5,
                NnOptions::default(),
                &MbrRefiner,
                threads,
            )
            .unwrap();
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(
                    a.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    b.iter().map(|n| n.dist_sq).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (tree, _) = tree_and_queries(100, 0);
        let out = par_knn_batch(&tree, &[], 3, NnOptions::default(), &MbrRefiner, 4).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_queries() {
        let (tree, queries) = tree_and_queries(500, 3);
        let out = par_knn_batch(&tree, &queries, 2, NnOptions::default(), &MbrRefiner, 16).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.len() == 2));
    }

    fn knn_requests(queries: &[Point<2>], k: usize) -> Vec<BatchQuery<2>> {
        queries.iter().map(|&q| BatchQuery::Knn { q, k }).collect()
    }

    #[test]
    fn scheduler_accounts_for_every_query() {
        let (tree, queries) = tree_and_queries(2_000, 300);
        let reqs = knn_requests(&queries, 4);
        for threads in [1, 2, 4, 8] {
            let (out, stats) = par_mixed_batch_dedup(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::AsGiven,
                None,
            )
            .unwrap();
            assert_eq!(out.len(), queries.len());
            assert_eq!(stats.threads, threads.min(stats.per_worker_queries.len()));
            assert_eq!(
                stats.per_worker_queries.iter().sum::<usize>(),
                queries.len(),
                "threads={threads}"
            );
            if threads > 1 {
                assert!(stats.block >= 1 && stats.block <= 32);
            }
        }
    }

    #[test]
    fn block_override_is_bit_identical() {
        let (tree, queries) = tree_and_queries(3_000, 250);
        let seq = par_knn_batch(&tree, &queries, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
        let reqs = knn_requests(&queries, 5);
        for block in [1, 3, 17, 64, 1000] {
            let (out, stats) = par_mixed_batch_dedup(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                4,
                JoinOrder::AsGiven,
                Some(block),
            )
            .unwrap();
            assert_eq!(stats.block, block, "override not applied");
            for ((a, _), b) in out.iter().zip(&seq) {
                assert_eq!(
                    a.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    b.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    "block={block}"
                );
            }
        }
    }

    #[test]
    fn block_size_is_small_and_bounded() {
        assert_eq!(block_size(10, 8), 1);
        assert_eq!(block_size(1_000, 4), 31);
        assert_eq!(block_size(100_000, 8), 32);
        assert_eq!(block_size(2, 8), 1);
    }

    #[test]
    fn claim_loop_fills_every_slot_in_item_order() {
        let len = 257;
        let mut reversed: Vec<usize> = (0..len).collect();
        reversed.reverse();
        for (threads, block, schedule) in [
            (1, None, None),
            (4, None, None),
            (3, Some(1), Some(&reversed[..])),
            (8, Some(40), Some(&reversed[..])),
        ] {
            let (out, stats) = work_steal(
                len,
                threads,
                block,
                schedule,
                || 0usize,
                |claimed, i| {
                    *claimed += 1;
                    Ok(i * i)
                },
            )
            .unwrap();
            assert_eq!(out, (0..len).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.executed, len);
            assert_eq!(stats.per_worker_queries.iter().sum::<usize>(), len);
        }
    }

    #[test]
    fn claim_loop_runs_single_items_inline() {
        let caller = std::thread::current().id();
        for len in [0, 1] {
            let (out, stats) = work_steal(
                len,
                8,
                None,
                None,
                || (),
                |_, _| Ok(std::thread::current().id()),
            )
            .unwrap();
            assert!(out.iter().all(|&id| id == caller), "len={len} spawned");
            assert_eq!(stats.threads, 1);
            assert_eq!(stats.per_worker_queries, vec![len]);
        }
    }

    #[test]
    fn claim_loop_reports_a_failing_item() {
        for threads in [1, 4] {
            let out = work_steal(
                100,
                threads,
                None,
                None,
                || (),
                |_, i| {
                    if i == 57 {
                        Err(crate::Error::Invalid("item 57".into()))
                    } else {
                        Ok(i)
                    }
                },
            );
            assert!(out.is_err(), "threads={threads}");
        }
    }

    fn mixed_requests(queries: &[Point<2>]) -> Vec<BatchQuery<2>> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i % 3 == 0 {
                    BatchQuery::Radius {
                        q: *q,
                        radius: 2.0 + (i % 7) as f64,
                    }
                } else {
                    BatchQuery::Knn {
                        q: *q,
                        k: 1 + i % 5,
                    }
                }
            })
            .collect()
    }

    /// Each request run as its own one-request batch: nothing to merge,
    /// nothing to schedule — the reference the batched runs must match.
    fn one_at_a_time(
        tree: &MemRTree<2>,
        reqs: &[BatchQuery<2>],
    ) -> Vec<(Vec<Neighbor<2>>, SearchStats)> {
        reqs.iter()
            .map(|req| {
                let (mut out, _) = par_mixed_batch_dedup(
                    tree,
                    std::slice::from_ref(req),
                    NnOptions::default(),
                    &MbrRefiner,
                    1,
                    JoinOrder::AsGiven,
                    None,
                )
                .unwrap();
                out.pop().unwrap()
            })
            .collect()
    }

    fn assert_same_answers(
        got: &[(Vec<Neighbor<2>>, SearchStats)],
        want: &[(Vec<Neighbor<2>>, SearchStats)],
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, ((a, sa), (b, sb))) in got.iter().zip(want).enumerate() {
            assert_eq!(sa, sb, "stats diverge at request {i} ({what})");
            assert_eq!(a.len(), b.len(), "request {i} ({what})");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.record, y.record, "request {i} ({what})");
                assert_eq!(
                    x.dist_sq.to_bits(),
                    y.dist_sq.to_bits(),
                    "request {i} ({what})"
                );
            }
        }
    }

    #[test]
    fn mixed_batch_bit_identical_across_threads_blocks_and_order() {
        let (tree, queries) = tree_and_queries(4_000, 180);
        let reqs = mixed_requests(&queries);
        let (seq, _) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            1,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(seq.len(), reqs.len());
        for (threads, order, block) in [
            (2, JoinOrder::AsGiven, None),
            (4, JoinOrder::Hilbert, None),
            (8, JoinOrder::Hilbert, Some(1)),
            (3, JoinOrder::AsGiven, Some(64)),
        ] {
            let (par, bstats) = par_mixed_batch_dedup(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                order,
                block,
            )
            .unwrap();
            assert_eq!(bstats.per_worker_queries.iter().sum::<usize>(), reqs.len());
            assert_same_answers(&par, &seq, &format!("threads={threads}"));
        }
    }

    #[test]
    fn mixed_batch_matches_standalone_queries() {
        let (tree, queries) = tree_and_queries(2_000, 60);
        let reqs = mixed_requests(&queries);
        let (got, _) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        let search = NnSearch::new(&tree);
        for (req, (hits, stats)) in reqs.iter().zip(&got) {
            let (want, want_stats) = match *req {
                BatchQuery::Knn { q, k } => search.query_refined(&q, k, &MbrRefiner).unwrap(),
                BatchQuery::Radius { q, radius } => {
                    crate::within_radius(&tree, &q, radius, &MbrRefiner).unwrap()
                }
            };
            assert_eq!(stats, &want_stats);
            assert_eq!(hits.len(), want.len());
            for (x, y) in hits.iter().zip(&want) {
                assert_eq!(x.record, y.record);
                assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits());
            }
        }
    }

    #[test]
    fn dedup_executes_duplicates_once_in_admission_order() {
        let (tree, queries) = tree_and_queries(3_000, 40);
        let base = mixed_requests(&queries);
        // Interleave duplicates of a handful of hot requests between the
        // originals — classic Zipf shape inside one micro-batch.
        let mut reqs = Vec::new();
        for (i, req) in base.iter().enumerate() {
            reqs.push(*req);
            reqs.push(base[i % 5]);
        }
        let plain = one_at_a_time(&tree, &reqs);
        for threads in [1, 4] {
            let (deduped, dstats) = par_mixed_batch_dedup(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            // Executor-level counter: exactly the unique requests ran.
            assert_eq!(dstats.executed, base.len(), "threads={threads}");
            assert_eq!(
                dstats.per_worker_queries.iter().sum::<usize>(),
                base.len(),
                "threads={threads}"
            );
            // Responses land in admission order, bit-identical to
            // executing every duplicate.
            assert_same_answers(&deduped, &plain, &format!("threads={threads}"));
        }
    }

    #[test]
    fn dedup_does_not_merge_near_duplicates() {
        let (tree, _) = tree_and_queries(1_000, 0);
        let q = Point::new([50.0, 50.0]);
        let bumped = Point::new([f64::from_bits(50.0f64.to_bits() + 1), 50.0]);
        let reqs = vec![
            // Same point, different k.
            BatchQuery::Knn { q, k: 3 },
            BatchQuery::Knn { q, k: 4 },
            // One-ulp coordinate difference.
            BatchQuery::Knn { q: bumped, k: 3 },
            // kNN vs radius at the same point.
            BatchQuery::Radius { q, radius: 3.0 },
            // Radii one ulp apart.
            BatchQuery::Radius {
                q,
                radius: f64::from_bits(3.0f64.to_bits() + 1),
            },
        ];
        let (out, stats) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            2,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(out.len(), reqs.len());
        assert_eq!(stats.executed, reqs.len(), "nothing here may merge");
    }

    #[test]
    fn dedup_with_no_duplicates_is_bit_identical_to_plain() {
        let (tree, queries) = tree_and_queries(2_000, 80);
        let reqs = mixed_requests(&queries);
        let plain = one_at_a_time(&tree, &reqs);
        let (deduped, stats) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        assert_eq!(stats.executed, reqs.len());
        assert_same_answers(&deduped, &plain, "no duplicates");
    }

    #[test]
    fn mixed_batch_empty_is_fine() {
        let (tree, _) = tree_and_queries(100, 0);
        let (out, _) = par_mixed_batch_dedup(
            &tree,
            &[],
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
