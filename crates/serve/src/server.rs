//! The `nnq serve` server: thread-per-connection framed readers feeding a
//! bounded inbox, one batcher thread draining deadline-or-size
//! micro-batches through the work-stealing mixed-query executor, and
//! responses written back in admission order.
//!
//! Threading layout (all scoped, all joined before [`serve`] returns):
//!
//! ```text
//!            accept loop ──spawns──▶ reader (1 per connection)
//!                                      │ decode → validate → try_admit
//!                                      │   full/closed → fast-reject
//!                                      ▼
//!                              bounded Inbox<Job>
//!                                      │ deadline-or-size drain
//!                                      ▼
//!            batcher (caller's thread): tree.snapshot() per batch,
//!            Hilbert claim order over `threads` workers, responses
//!            written back in admission order, TuneController observes
//!            every drained batch
//! ```
//!
//! Shutdown protocol (graceful, drain-everything): a [`Request::Shutdown`]
//! frame closes the inbox — admission now fast-rejects with
//! `shutting_down` — the batcher drains every already-admitted request
//! (each still gets its response), signals the drain, quiesces every
//! pool's prefetch pipeline, flushes the WAL group-commit window (or the
//! plain dirty set), and [`serve`] returns its [`ServeReport`]. The
//! shutdown requester receives [`Response::Bye`] only after the drain, so
//! "my earlier request was answered" is ordered before "the server is
//! gone".

use crate::inbox::{Admit, Inbox};
use crate::protocol::{
    Hit, Request, Response, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME, MAX_RESULT_HITS,
};
use nnq_core::{
    par_mixed_batch_dedup, partitioned_mixed_batch, BatchQuery, CachedAnswer, JoinOrder,
    KernelMode, Neighbor, NnOptions, PrefetchPolicy, Refiner, ResultCache, SearchStats,
    TuneController, TuneMode,
};
use nnq_geom::Point;
use nnq_rtree::{PartitionedTree, RTree};
use std::collections::HashSet;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One executed batch's answers: hits + the recorded stats, per query.
type AnswerList = Vec<(Vec<Neighbor<2>>, SearchStats)>;

/// Knobs for one [`serve`] run. All sizes are hard bounds: the inbox
/// never queues more than `inbox_cap`, a batch never exceeds `batch_max`,
/// and an admitted request never waits in the batcher longer than
/// `batch_deadline`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads the batch executor fans each micro-batch over.
    pub threads: usize,
    /// Micro-batch size trigger.
    pub batch_max: usize,
    /// Micro-batch deadline trigger, anchored to the oldest queued
    /// request's arrival.
    pub batch_deadline: Duration,
    /// Inbox capacity; admission fast-rejects beyond it.
    pub inbox_cap: usize,
    /// Distance-kernel mode for every query.
    pub kernel: KernelMode,
    /// Static prefetch policy (the tune controller may override).
    pub prefetch: PrefetchPolicy,
    /// Online self-tuning of backend knobs, observed per drained batch.
    pub tune: TuneMode,
    /// Result-cache capacity in complete memoized answers; `0` disables
    /// caching (`--result-cache off`). Safe to leave on: hits replay the
    /// recorded answer *and* its `SearchStats`, so responses stay
    /// bit-identical to uncached execution, and snapshot-version keying
    /// makes entries from before any commit unreachable.
    pub result_cache: usize,
    /// Per-connection in-flight request cap: the most admitted-but-not-
    /// yet-answered requests one connection may hold. Over the cap,
    /// admission fast-rejects with `Rejected{retry_after_us}` so one
    /// greedy pipeliner cannot fill the shared inbox and starve every
    /// other connection.
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch_max: 32,
            batch_deadline: Duration::from_micros(200),
            inbox_cap: 1024,
            kernel: KernelMode::default(),
            prefetch: PrefetchPolicy::Off,
            tune: TuneMode::Off,
            result_cache: 1024,
            // Matches the default inbox capacity: a lone connection may
            // still use the whole inbox when nobody else wants it.
            max_in_flight: 1024,
        }
    }
}

/// What the server serves: one R-tree, or a Hilbert-range partitioned
/// forest behind scatter-gather.
pub enum Engine<'a> {
    /// A single paged R-tree. Each micro-batch runs against one
    /// [`snapshot`](RTree::snapshot), so reads proceed concurrently with
    /// the copy-on-write writer.
    Single(&'a RTree<2>),
    /// A partitioned tree; each request runs its own scatter-gather pass,
    /// requests fan out across the batch executor's workers.
    Partitioned(&'a PartitionedTree<2>),
}

/// Counters accumulated over one [`serve`] run, returned at shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Query responses successfully written.
    pub served: u64,
    /// Overload fast-rejections (inbox full).
    pub rejected: u64,
    /// Rejections after the shutdown gate closed.
    pub rejected_shutdown: u64,
    /// Error responses (malformed parameters or execution failure).
    pub errors: u64,
    /// Micro-batches drained.
    pub batches: u64,
    /// Requests drained into micro-batches (excludes pings and
    /// validation errors, which the readers answer directly).
    pub batched: u64,
    /// Largest micro-batch drained.
    pub max_batch: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Responses that could not be written (client went away, or its
    /// socket stayed unwritable past the write timeout); these requests
    /// were executed, not dropped by the server.
    pub write_errors: u64,
    /// Transient `accept(2)` failures (e.g. `ECONNABORTED`, fd
    /// exhaustion) the acceptor retried past instead of dying.
    pub accept_errors: u64,
    /// Of `rejected`, how many were per-connection in-flight cap
    /// rejections rather than inbox-full ones.
    pub rejected_overcap: u64,
    /// Result-cache probes answered from a memoized entry (no traversal).
    pub result_hits: u64,
    /// Result-cache probes with no entry for the query.
    pub result_misses: u64,
    /// Result-cache probes that found only an entry from an older commit
    /// version (invalidated by a root swap, never served).
    pub result_stale: u64,
    /// Answers memoized into the result cache.
    pub result_inserts: u64,
    /// Memoized answers evicted (CLOCK pressure or a tuning shrink).
    pub result_evictions: u64,
    /// Duplicate requests inside micro-batches whose traversal was merged
    /// into another identical request's execution.
    pub dedup_merged: u64,
    /// Final self-tuning report, when the controller was active.
    pub tune_report: Option<String>,
}

impl ServeReport {
    /// Average requests per drained batch.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }
}

/// One admitted request: what to run and where to write the answer.
struct Job {
    id: u64,
    query: BatchQuery<2>,
    conn: Arc<Conn>,
}

/// The write half of a connection. Both the reader thread (fast
/// rejections, pongs) and the batcher (query responses) write here; the
/// mutex keeps frames whole.
///
/// Writes carry a timeout (set at accept), and the first failed or
/// timed-out write marks the connection dead: a partial write tears the
/// framing, so nothing sent afterwards could be parsed — and more
/// importantly the single batcher thread must never pay the write
/// timeout again and again for one client that stopped reading.
struct Conn {
    /// The write half plus the connection's reusable encode buffer: every
    /// response on this connection serializes into the same allocation,
    /// which only grows when a response outsizes all previous ones. Kept
    /// inside the mutex because encode-then-write must be atomic per
    /// frame anyway.
    stream: Mutex<(TcpStream, Vec<u8>)>,
    dead: AtomicBool,
    /// Admitted-but-unanswered requests on this connection, for the
    /// per-connection fairness cap. Incremented *before* admission and
    /// decremented on rejection or response, so it can never underflow
    /// even when the batcher answers faster than the reader returns from
    /// `try_admit`.
    in_flight: AtomicUsize,
}

impl Conn {
    fn send(&self, resp: &Response) -> io::Result<()> {
        let mut guard = self.stream.lock().unwrap();
        let (stream, buf) = &mut *guard;
        resp.encode_into(buf);
        if buf.len() > MAX_RESPONSE_FRAME {
            // Backstop: callers bound responses (validate caps k, the
            // batcher downgrades oversize radius answers), so an
            // overflowing frame here is a bug — but sending it would
            // desync the client, which is worse than dropping it.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response exceeds the maximum frame size",
            ));
        }
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection marked dead after an earlier write failure",
            ));
        }
        let res = crate::protocol::write_frame(stream, buf);
        if res.is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
        res
    }
}

struct Shared {
    inbox: Inbox<Job>,
    /// Set once the drain has finished: acceptor and readers wind down.
    stop: AtomicBool,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    served: AtomicU64,
    rejected: AtomicU64,
    rejected_shutdown: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    max_batch: AtomicU64,
    connections: AtomicU64,
    write_errors: AtomicU64,
    accept_errors: AtomicU64,
    rejected_overcap: AtomicU64,
    retry_after_us: u32,
    max_in_flight: usize,
}

impl Shared {
    fn mark_drained(&self) {
        *self.drained.lock().unwrap() = true;
        self.drained_cv.notify_all();
    }

    fn wait_drained(&self) {
        let mut done = self.drained.lock().unwrap();
        while !*done {
            done = self.drained_cv.wait(done).unwrap();
        }
    }
}

/// How often blocked readers and the acceptor re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a response write may block on a full socket buffer before
/// the connection is declared dead. The batcher writes responses
/// inline, so without this bound one client that stops reading stalls
/// every other connection's responses indefinitely.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs the server until a [`Request::Shutdown`] frame arrives, then
/// drains, quiesces, flushes, and returns the run's [`ServeReport`].
///
/// The caller supplies a bound listener (so it can report the ephemeral
/// port before the server blocks) and keeps ownership of the engine's
/// pools — print their stats after this returns for the shutdown line.
pub fn serve<R: Refiner<2> + Sync>(
    engine: &Engine<'_>,
    refiner: &R,
    listener: TcpListener,
    config: &ServeConfig,
) -> io::Result<ServeReport> {
    assert!(config.threads > 0, "need at least one worker thread");
    assert!(
        config.batch_max > 0,
        "batch size trigger must be at least 1"
    );
    listener.set_nonblocking(true)?;
    let shared = Shared {
        inbox: Inbox::new(config.inbox_cap),
        stop: AtomicBool::new(false),
        drained: Mutex::new(false),
        drained_cv: Condvar::new(),
        served: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        rejected_shutdown: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        batched: AtomicU64::new(0),
        max_batch: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        write_errors: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        rejected_overcap: AtomicU64::new(0),
        retry_after_us: config.batch_deadline.as_micros().min(u128::from(u32::MAX)) as u32,
        max_in_flight: config.max_in_flight.max(1),
    };

    let loop_out = std::thread::scope(|scope| {
        let shared = &shared;
        scope.spawn(move || {
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        // Readers poll with a timeout so shutdown never
                        // waits on an idle connection.
                        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
                        let conn = Arc::new(Conn {
                            stream: Mutex::new((write_half, Vec::new())),
                            dead: AtomicBool::new(false),
                            in_flight: AtomicUsize::new(0),
                        });
                        scope.spawn(move || reader_loop(stream, conn, shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => {
                        // Accept failures (ECONNABORTED, transient fd
                        // exhaustion, ...) are retryable: a server that
                        // silently stops accepting while appearing alive
                        // is worse than one that rides out the spike.
                        // The stop flag remains the only exit.
                        shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
            }
        });
        batch_loop(engine, refiner, config, shared)
    });

    // Every reader and the acceptor joined: quiesce the I/O pipelines and
    // make the committed state durable before reporting.
    quiesce_and_flush(engine)?;

    Ok(ServeReport {
        served: shared.served.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        rejected_shutdown: shared.rejected_shutdown.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        batches: shared.batches.load(Ordering::Relaxed),
        batched: shared.batched.load(Ordering::Relaxed),
        max_batch: shared.max_batch.load(Ordering::Relaxed),
        connections: shared.connections.load(Ordering::Relaxed),
        write_errors: shared.write_errors.load(Ordering::Relaxed),
        accept_errors: shared.accept_errors.load(Ordering::Relaxed),
        rejected_overcap: shared.rejected_overcap.load(Ordering::Relaxed),
        result_hits: loop_out.result_cache.hits,
        result_misses: loop_out.result_cache.misses,
        result_stale: loop_out.result_cache.stale,
        result_inserts: loop_out.result_cache.inserts,
        result_evictions: loop_out.result_cache.evictions,
        dedup_merged: loop_out.dedup_merged,
        tune_report: loop_out.tune_report,
    })
}

/// What [`batch_loop`] hands back to [`serve`] for the final report.
struct BatchLoopOut {
    tune_report: Option<String>,
    result_cache: nnq_core::ResultCacheStats,
    dedup_merged: u64,
}

/// Shutdown's durability step: stop the background prefetchers (every
/// in-flight hint classified, nothing racing the flush) and push the
/// committed state down — through the WAL group-commit window when the
/// pool journals, a plain flush otherwise.
fn quiesce_and_flush(engine: &Engine<'_>) -> io::Result<()> {
    let flush = |pool: &nnq_storage::BufferPool| -> io::Result<()> {
        pool.prefetch_quiesce();
        let res = if pool.wal().is_some() {
            pool.checkpoint()
        } else {
            pool.flush_all()
        };
        res.map_err(|e| io::Error::other(e.to_string()))
    };
    match engine {
        Engine::Single(tree) => flush(tree.pool()),
        Engine::Partitioned(tree) => {
            for part in tree.partitions() {
                flush(part.pool())?;
            }
            Ok(())
        }
    }
}

/// Incremental frame parser over a read-timeout socket: partial reads
/// accumulate across poll attempts, so a frame split by a timeout
/// boundary is never torn.
struct FramedReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Poll {
    Frame(Vec<u8>),
    Timeout,
    Closed,
}

impl FramedReader {
    fn poll_frame(&mut self) -> io::Result<Poll> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
                if len > MAX_REQUEST_FRAME {
                    return Err(crate::protocol::ProtocolError::FrameTooLarge(len).into());
                }
                if self.buf.len() >= 4 + len {
                    let frame = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Poll::Frame(frame));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Poll::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn reader_loop(stream: TcpStream, conn: Arc<Conn>, shared: &Shared) {
    let mut reader = FramedReader {
        stream,
        buf: Vec::new(),
    };
    loop {
        let payload = match reader.poll_frame() {
            Ok(Poll::Frame(payload)) => payload,
            Ok(Poll::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            // Peer closed, transport error, or an unframeable byte
            // stream: nothing sensible can be answered.
            Ok(Poll::Closed) | Err(_) => return,
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Can't know the id of a frame that didn't parse; answer
                // on id 0 and drop the connection (framing may be lost).
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send(&Response::Error {
                    id: 0,
                    message: e.to_string(),
                });
                return;
            }
        };
        match req {
            Request::Ping { id } => {
                let _ = conn.send(&Response::Pong { id });
            }
            Request::Shutdown => {
                // Gate admission now; answer only after the drain so the
                // requester observes all of its earlier responses first.
                shared.inbox.close();
                shared.wait_drained();
                let _ = conn.send(&Response::Bye);
            }
            Request::Knn { .. } | Request::Radius { .. } => {
                let id = req.id().unwrap_or(0);
                if let Err(why) = req.validate() {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send(&Response::Error {
                        id,
                        message: why.into(),
                    });
                    continue;
                }
                let query = match req {
                    Request::Knn { x, y, k, .. } => BatchQuery::Knn {
                        q: Point::new([x, y]),
                        k: k as usize,
                    },
                    Request::Radius { x, y, radius, .. } => BatchQuery::Radius {
                        q: Point::new([x, y]),
                        radius,
                    },
                    _ => unreachable!(),
                };
                // Per-connection fairness gate, checked before the shared
                // inbox: a pipeliner already holding `max_in_flight`
                // unanswered requests is fast-rejected so it cannot
                // monopolize the queue. The increment happens first —
                // the batcher may answer (and decrement) at any moment,
                // so claiming the slot before admission is what keeps the
                // counter from underflowing.
                if conn.in_flight.fetch_add(1, Ordering::AcqRel) >= shared.max_in_flight {
                    conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    shared.rejected_overcap.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send(&Response::Rejected {
                        id,
                        retry_after_us: shared.retry_after_us.max(1),
                        shutting_down: false,
                    });
                    continue;
                }
                let job = Job {
                    id,
                    query,
                    conn: Arc::clone(&conn),
                };
                match shared.inbox.try_admit(job) {
                    Admit::Admitted => {}
                    Admit::Full => {
                        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.send(&Response::Rejected {
                            id,
                            retry_after_us: shared.retry_after_us.max(1),
                            shutting_down: false,
                        });
                    }
                    Admit::Closed => {
                        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.send(&Response::Rejected {
                            id,
                            retry_after_us: 0,
                            shutting_down: true,
                        });
                    }
                }
            }
        }
    }
}

/// Drains micro-batches until the inbox closes and empties, executing
/// each through the result cache and the deduplicating mixed-query
/// executor and writing responses back in admission order. Runs on the
/// caller's thread; returns the run's tune/cache/dedup telemetry.
///
/// Per batch, the answer pipeline is:
///
/// 1. **Pin a version.** Single tree: take the batch's snapshot and read
///    its commit version — probe, execution, and fill all share it, so a
///    cached hit is *exactly* the answer the snapshot would compute.
///    Partitioned tree: read the composed version, which cannot move
///    because partitions have no write path.
/// 2. **Probe.** Each request's canonical key (request id excluded — the
///    same query from any client hits) is looked up at that version;
///    hits are answered from the memoized `CachedAnswer`, replaying the
///    recorded `SearchStats` so `logical_reads` on the wire is identical
///    to fresh execution. Version-mismatched entries count as stale and
///    never serve.
/// 3. **Execute misses, once per unique query.** The deduplicating
///    executor merges identical requests within the batch, claims them in
///    Hilbert order with the tuner's block override, and feeds its
///    scheduling telemetry back to the tuner.
/// 4. **Fill.** Fresh answers are memoized at the pinned version.
/// 5. **Respond in admission order**, cache hits and fresh answers
///    alike. If execution failed, hit jobs still get their Ok responses;
///    only the jobs that needed the traversal get Errors.
fn batch_loop<R: Refiner<2> + Sync>(
    engine: &Engine<'_>,
    refiner: &R,
    config: &ServeConfig,
    shared: &Shared,
) -> BatchLoopOut {
    let mut controller = TuneController::new(config.tune);
    match engine {
        Engine::Single(tree) => controller.observe_tree(*tree),
        Engine::Partitioned(tree) => controller.observe_partitioned(tree),
    }
    let cache = ResultCache::<2>::new(config.result_cache);
    let mut dedup_merged: u64 = 0;
    while let Some(batch) = shared
        .inbox
        .drain_batch(config.batch_max, config.batch_deadline)
    {
        if batch.is_empty() {
            continue;
        }
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .batched
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        let opts = NnOptions {
            kernel: config.kernel,
            prefetch: controller.prefetch_policy().unwrap_or(config.prefetch),
            ..NnOptions::default()
        };

        // One snapshot (single tree) or composed version (partitioned)
        // pinned for the whole probe → execute → fill pipeline; a
        // concurrent COW writer can publish freely underneath.
        let (version, snap) = match engine {
            Engine::Single(tree) => {
                let snap = tree.snapshot();
                (snap.version(), Some(snap))
            }
            Engine::Partitioned(tree) => (tree.version(), None),
        };

        let keys: Vec<Vec<u8>> = batch.iter().map(|j| j.query.canonical_key()).collect();
        let mut answers: Vec<Option<CachedAnswer<2>>> = (0..batch.len()).map(|_| None).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        if cache.is_enabled() {
            for (i, key) in keys.iter().enumerate() {
                match cache.lookup(key, version) {
                    Some(answer) => answers[i] = Some(answer),
                    None => miss_idx.push(i),
                }
            }
        } else {
            miss_idx.extend(0..batch.len());
        }
        let miss_reqs: Vec<BatchQuery<2>> = miss_idx.iter().map(|&i| batch[i].query).collect();

        // The batcher is the server's single drain: if it dies, admitted
        // requests are never answered and shutdown waiters block
        // forever. So a panicking worker (unexpected by construction —
        // validate() bounds every parameter — but fatal if it escapes)
        // is caught and converted into Error responses for the batch,
        // and the loop keeps draining.
        type Executed = Result<(AnswerList, u64), String>;
        let outcome: Executed = if miss_reqs.is_empty() {
            Ok((Vec::new(), 0))
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (threads, block) = (config.threads, controller.block_override());
                match engine {
                    Engine::Single(_) => {
                        let snap = snap.as_ref().expect("single engine pinned a snapshot");
                        par_mixed_batch_dedup(
                            snap,
                            &miss_reqs,
                            opts,
                            refiner,
                            threads,
                            JoinOrder::Hilbert,
                            block,
                        )
                    }
                    Engine::Partitioned(tree) => partitioned_mixed_batch(
                        tree,
                        &miss_reqs,
                        opts,
                        refiner,
                        threads,
                        true,
                        JoinOrder::Hilbert,
                        block,
                    )
                    .map(|(results, bstats)| {
                        let answers = results
                            .into_iter()
                            .map(|(hits, pstats)| (hits, pstats.search))
                            .collect();
                        (answers, bstats)
                    }),
                }
                .map(|(results, bstats)| {
                    controller.observe_batch(&bstats);
                    (results, (miss_reqs.len() - bstats.executed) as u64)
                })
                .map_err(|e| e.to_string())
            }))
            .unwrap_or_else(|panic| Err(panic_message(&panic)))
        };

        // Answers one job from its (cached or fresh) answer, replaying
        // the recorded traversal stats as `logical_reads`.
        let respond = |job: &Job, answer: &CachedAnswer<2>| {
            if answer.hits.len() > MAX_RESULT_HITS {
                // An answer that cannot be framed (a radius query
                // matching more than MAX_RESULT_HITS records) is
                // reported as an error; sending the oversize frame
                // would desync the client instead.
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let _ = job.conn.send(&Response::Error {
                    id: job.id,
                    message: "result set exceeds the maximum response frame".into(),
                });
                return;
            }
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
            if job.conn.send(&resp).is_ok() {
                shared.served.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        };

        match outcome {
            Ok((results, saved)) => {
                dedup_merged += saved;
                // Every answer was computed at `version`. Within the
                // batch, duplicates share one execution but need only one
                // insert.
                let mut filled: HashSet<&[u8]> = HashSet::new();
                for (&i, (hits, stats)) in miss_idx.iter().zip(results) {
                    let answer = CachedAnswer { hits, stats };
                    if cache.is_enabled()
                        && answer.hits.len() <= MAX_RESULT_HITS
                        && filled.insert(keys[i].as_slice())
                    {
                        cache.insert(&keys[i], version, answer.clone());
                    }
                    answers[i] = Some(answer);
                }
                for (job, answer) in batch.iter().zip(&answers) {
                    respond(job, answer.as_ref().expect("every job answered"));
                    job.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(message) => {
                // Cache hits owe nothing to the failed traversal: answer
                // them normally, error only the jobs that needed it.
                for (job, answer) in batch.iter().zip(&answers) {
                    match answer {
                        Some(answer) => respond(job, answer),
                        None => {
                            shared.errors.fetch_add(1, Ordering::Relaxed);
                            let _ = job.conn.send(&Response::Error {
                                id: job.id,
                                message: message.clone(),
                            });
                        }
                    }
                    job.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        match engine {
            Engine::Single(tree) => controller.observe_tree(*tree),
            Engine::Partitioned(tree) => controller.observe_partitioned(tree),
        }
        controller.observe_result_cache(&cache);
    }
    // Inbox closed and fully drained: release waiting shutdown
    // requesters, then stop the acceptor and readers.
    shared.mark_drained();
    shared.stop.store(true, Ordering::Release);
    BatchLoopOut {
        tune_report: controller.is_active().then(|| controller.report()),
        result_cache: cache.stats(),
        dedup_merged,
    }
}

/// Renders a caught panic payload into an error message for the
/// affected batch's Error responses.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic");
    format!("query execution panicked: {what}")
}
