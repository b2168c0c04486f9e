//! The traced run: the open-loop schedule replayed in-process through the
//! same public functions the server's reader and batch loop call, with a
//! clock around each call, plus wrappers that time node reads and
//! refinement inside the executor.
//!
//! The wrappers forward every method unchanged, so answers, `SearchStats`
//! and `logical_reads` stay identical to an untraced run;
//! [`overhead`] asserts that batch by batch.

use crate::inproc::serve_opts;
use crate::util::Rng;
use crate::workload::Plan;
use nnq_core::{
    par_mixed_batch_dedup, BatchQuery, BatchStats, CachedAnswer, JoinOrder, Neighbor, Refiner,
    ResultCache, ResultCacheStats, SearchStats,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BackendSignals, NodeView, RTree, RecordId, TreeAccess};
use nnq_serve::{Admit, Hit, Inbox, Request, Response, ServeConfig};
use nnq_storage::PageId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Clock and call count of one traced boundary.
#[derive(Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    fn record(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn add(&self, t0: Instant) {
        self.record(t0.elapsed().as_nanos() as u64);
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Times every node read of the tree view it wraps.
pub struct TracedTree<'a, T: ?Sized> {
    inner: &'a T,
    span: &'a Span,
}

impl<T: TreeAccess<2> + ?Sized> TreeAccess<2> for TracedTree<'_, T> {
    fn access_root(&self) -> Option<PageId> {
        self.inner.access_root()
    }

    fn access_node(&self, page: PageId) -> nnq_rtree::Result<NodeView<2>> {
        let t0 = Instant::now();
        let node = self.inner.access_node(page);
        self.span.add(t0);
        node
    }

    fn num_records(&self) -> u64 {
        self.inner.num_records()
    }

    fn prefetch_node(&self, page: PageId) {
        self.inner.prefetch_node(page)
    }

    fn io_miss_rate(&self) -> f64 {
        self.inner.io_miss_rate()
    }

    fn io_reads(&self) -> u64 {
        self.inner.io_reads()
    }

    fn backend_signals(&self) -> BackendSignals {
        self.inner.backend_signals()
    }

    fn set_cache_capacity(&self, cap: usize) -> usize {
        self.inner.set_cache_capacity(cap)
    }

    fn set_prefetch_workers(&self, n: usize) -> usize {
        self.inner.set_prefetch_workers(n)
    }
}

/// Times every exact-distance call of the refiner it wraps.
pub struct TracedRefiner<'a, R> {
    inner: &'a R,
    span: &'a Span,
}

impl<R: Refiner<2>> Refiner<2> for TracedRefiner<'_, R> {
    fn dist_sq(&self, record: RecordId, mbr: &Rect<2>, q: &Point<2>) -> f64 {
        let t0 = Instant::now();
        let d = self.inner.dist_sq(record, mbr, q);
        self.span.add(t0);
        d
    }
}

type Answers = Vec<(Vec<Neighbor<2>>, SearchStats)>;

/// Runs one batch through the executor exactly as the batch loop does,
/// optionally through the timing wrappers. Returns the wall time in ns.
fn execute<T: TreeAccess<2> + Sync, R: Refiner<2> + Sync>(
    snap: &T,
    refiner: &R,
    reqs: &[BatchQuery<2>],
    config: &ServeConfig,
    spans: Option<(&Span, &Span)>,
) -> nnq_core::Result<(u64, Answers, BatchStats)> {
    let opts = serve_opts(config);
    let t0 = Instant::now();
    let (answers, bstats) = match spans {
        None => par_mixed_batch_dedup(
            snap,
            reqs,
            opts,
            refiner,
            config.threads,
            JoinOrder::Hilbert,
            None,
        )?,
        Some((node, refine)) => par_mixed_batch_dedup(
            &TracedTree {
                inner: snap,
                span: node,
            },
            reqs,
            opts,
            &TracedRefiner {
                inner: refiner,
                span: refine,
            },
            config.threads,
            JoinOrder::Hilbert,
            None,
        )?,
    };
    Ok((t0.elapsed().as_nanos() as u64, answers, bstats))
}

/// One admitted request inside the replay.
struct Job {
    id: u64,
    query: BatchQuery<2>,
    admitted: Instant,
}

/// What the traced replay measured, stage by stage.
#[derive(Default)]
pub struct Replay {
    pub decode: Span,
    pub admit: Span,
    pub wait_us: Vec<f64>,
    pub batches: u64,
    pub batched: u64,
    pub deadline_batches: u64,
    pub probe: Span,
    pub fill: Span,
    pub exec: Span,
    pub exec_queries: u64,
    pub node: Span,
    pub refine: Span,
    pub encode: Span,
    pub resp_bytes: u64,
    /// Mean over batches of (busiest worker's queries / mean per worker).
    pub imbalance_sum: f64,
    pub cache: ResultCacheStats,
    /// The cache-miss requests of each executed batch, for [`overhead`].
    pub miss_batches: Vec<Vec<BatchQuery<2>>>,
}

/// Replays `rate`-per-second Poisson arrivals for `dur` in-process: a
/// producer thread decodes each request frame and admits it to an
/// `Inbox`; this thread drains deadline-or-size batches and runs each
/// through result-cache probe, traced execution, cache fill and response
/// encoding.
pub fn replay<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    plan: &Plan,
    config: &ServeConfig,
    rate: f64,
    dur: Duration,
    rng: &mut Rng,
) -> Result<Replay, String> {
    let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
    let frames: Vec<Vec<u8>> = (0..n as u64).map(|id| plan.request(id).encode()).collect();
    let mut at = Duration::from_millis(2);
    let offsets: Vec<Duration> = (0..n)
        .map(|_| {
            at += rng.exp_gap(rate);
            at
        })
        .collect();
    let inbox: Inbox<Job> = Inbox::new(config.inbox_cap);
    let cache = ResultCache::<2>::new(config.result_cache);
    let mut out = Replay::default();
    let (decode, admit) = (Span::default(), Span::default());
    std::thread::scope(|scope| -> Result<(), String> {
        let inbox = &inbox;
        let (decode, admit) = (&decode, &admit);
        let producer = scope.spawn(move || -> Result<(), String> {
            let start = Instant::now();
            let result = (|| {
                for (frame, due) in frames.iter().zip(&offsets) {
                    let gap = (start + *due).saturating_duration_since(Instant::now());
                    if !gap.is_zero() {
                        std::thread::sleep(gap);
                    }
                    let t0 = Instant::now();
                    let req = Request::decode(frame).map_err(|e| e.to_string())?;
                    decode.add(t0);
                    let (id, query) = match req {
                        Request::Knn { id, x, y, k } => (
                            id,
                            BatchQuery::Knn {
                                q: Point::new([x, y]),
                                k: k as usize,
                            },
                        ),
                        Request::Radius { id, x, y, radius } => (
                            id,
                            BatchQuery::Radius {
                                q: Point::new([x, y]),
                                radius,
                            },
                        ),
                        other => return Err(format!("not a query: {other:?}")),
                    };
                    let t0 = Instant::now();
                    let job = Job {
                        id,
                        query,
                        admitted: t0,
                    };
                    let admitted = inbox.try_admit(job);
                    admit.add(t0);
                    if admitted != Admit::Admitted {
                        return Err(format!("replay admission refused: {admitted:?}"));
                    }
                }
                Ok(())
            })();
            inbox.close();
            result
        });
        let drained = batch_loop(tree, refiner, config, inbox, &cache, &mut out);
        if drained.is_err() {
            inbox.close();
            while inbox
                .drain_batch(config.batch_max, Duration::ZERO)
                .is_some()
            {}
        }
        producer.join().expect("replay producer panicked")?;
        drained
    })?;
    out.decode = decode;
    out.admit = admit;
    out.cache = cache.stats();
    Ok(out)
}

/// The consumer half of [`replay`]: the server's batch pipeline, stage by
/// stage, each under its own clock.
fn batch_loop<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    config: &ServeConfig,
    inbox: &Inbox<Job>,
    cache: &ResultCache<2>,
    out: &mut Replay,
) -> Result<(), String> {
    let mut buf = Vec::new();
    while let Some(batch) = inbox.drain_batch(config.batch_max, config.batch_deadline) {
        let drained = Instant::now();
        if batch.is_empty() {
            continue;
        }
        out.batches += 1;
        out.batched += batch.len() as u64;
        if batch.len() < config.batch_max {
            out.deadline_batches += 1;
        }
        for job in &batch {
            out.wait_us
                .push(drained.duration_since(job.admitted).as_secs_f64() * 1e6);
        }
        let snap = tree.snapshot();
        let version = snap.version();
        let keys: Vec<Vec<u8>> = batch.iter().map(|j| j.query.canonical_key()).collect();
        let mut answers: Vec<Option<CachedAnswer<2>>> = Vec::with_capacity(batch.len());
        let mut miss_idx = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let t0 = Instant::now();
            let hit = cache.lookup(key, version);
            out.probe.add(t0);
            if hit.is_none() {
                miss_idx.push(i);
            }
            answers.push(hit);
        }
        let misses: Vec<BatchQuery<2>> = miss_idx.iter().map(|&i| batch[i].query).collect();
        if !misses.is_empty() {
            let (ns, results, bstats) = execute(
                &snap,
                refiner,
                &misses,
                config,
                Some((&out.node, &out.refine)),
            )
            .map_err(|e| e.to_string())?;
            out.exec.record(ns);
            out.exec_queries += misses.len() as u64;
            let workers = &bstats.per_worker_queries;
            let mean = workers.iter().sum::<usize>() as f64 / workers.len().max(1) as f64;
            let max = workers.iter().copied().max().unwrap_or(0) as f64;
            out.imbalance_sum += if mean > 0.0 { max / mean } else { 1.0 };
            let mut filled: HashSet<&[u8]> = HashSet::new();
            for (&i, (hits, stats)) in miss_idx.iter().zip(results) {
                let answer = CachedAnswer { hits, stats };
                if filled.insert(keys[i].as_slice()) {
                    let t0 = Instant::now();
                    cache.insert(&keys[i], version, answer.clone());
                    out.fill.add(t0);
                }
                answers[i] = Some(answer);
            }
            out.miss_batches.push(misses);
        }
        for (job, answer) in batch.iter().zip(&answers) {
            let answer = answer.as_ref().expect("every job answered");
            let resp = Response::Ok {
                id: job.id,
                logical_reads: answer.stats.nodes_visited,
                hits: answer
                    .hits
                    .iter()
                    .map(|n| Hit {
                        record: n.record.0,
                        dist_sq: n.dist_sq,
                    })
                    .collect(),
            };
            let t0 = Instant::now();
            resp.encode_into(&mut buf);
            out.encode.add(t0);
            out.resp_bytes += 4 + buf.len() as u64;
        }
    }
    Ok(())
}

/// Untraced against traced execution of the same batches.
pub struct Overhead {
    pub plain_ns: u64,
    pub traced_ns: u64,
    pub queries: u64,
    /// Batches whose traced answers or `SearchStats` differed.
    pub mismatches: u64,
}

/// Runs every recorded batch twice on one snapshot — untraced and traced,
/// alternating which goes first — and compares answers and stats bit for
/// bit.
pub fn overhead<R: Refiner<2> + Sync>(
    tree: &RTree<2>,
    refiner: &R,
    config: &ServeConfig,
    batches: &[Vec<BatchQuery<2>>],
) -> nnq_core::Result<Overhead> {
    let (node, refine) = (Span::default(), Span::default());
    let mut out = Overhead {
        plain_ns: 0,
        traced_ns: 0,
        queries: 0,
        mismatches: 0,
    };
    for (i, reqs) in batches.iter().enumerate() {
        let traced_first = i % 2 == 1;
        let snap = tree.snapshot();
        let first = execute(
            &snap,
            refiner,
            reqs,
            config,
            traced_first.then_some((&node, &refine)),
        )?;
        let second = execute(
            &snap,
            refiner,
            reqs,
            config,
            (!traced_first).then_some((&node, &refine)),
        )?;
        let (plain, traced) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        out.plain_ns += plain.0;
        out.traced_ns += traced.0;
        out.queries += reqs.len() as u64;
        if !same_answers(&plain.1, &traced.1) {
            out.mismatches += 1;
        }
    }
    Ok(out)
}

/// Bitwise equality of two batches' answers: records, distance bits and
/// every `SearchStats` counter.
fn same_answers(a: &Answers, b: &Answers) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ha, sa), (hb, sb))| {
            sa == sb
                && ha.len() == hb.len()
                && ha.iter().zip(hb).all(|(x, y)| {
                    x.record == y.record && x.dist_sq.to_bits() == y.dist_sq.to_bits()
                })
        })
}
