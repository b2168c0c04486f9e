//! Served-path benchmark of `nnq`: 1M TIGER-like road segments behind
//! `nnq_serve::serve` with its default configuration, driven over TCP by
//! one load thread, with its answers checked. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tiger-road --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! start with `#`: host metadata, the deterministic counters, and every
//! metric with its unit and sample count.

mod check;
mod index;
mod inproc;
mod load;
mod trace;
mod util;
mod workload;

use index::Index;
use load::{Load, Log};
use nnq_core::{FnRefiner, Refiner};
use nnq_geom::{Point, Rect};
use nnq_rtree::{NodeCacheStats, RTree, RecordId};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig, ServeReport};
use nnq_storage::{DiskStats, PoolStats};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use util::{json_str, median, quantile, Metrics, Rng};
use workload::{Plan, Workload, INSERT_RATE};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests in the deterministic single-worker replay.
const DET_QUERIES: usize = 2000;
/// Rounds of interleaved measurement phases in a run.
const ROUNDS: u32 = 5;
/// Closed-loop warm-up before anything is measured.
const WARMUP: Duration = Duration::from_secs(1);
/// Pipeline window of the closed-loop throughput phase.
const SAT_WINDOW: usize = 64;
/// Throughput is the median rate over slices this long.
const SLICE: Duration = Duration::from_millis(100);
/// Inserts timed (back to back, in one chunk per round) into the private
/// copy of the index on the read-only workloads.
const READ_ONLY_INSERTS: usize = 30_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload tiger-road|hot-tiles|ingest \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // `exit` runs no destructors: the work directory is dropped (and
    // removed) before it.
    let code = match WorkDir::new().and_then(|work| run(&args, &work.0)) {
        Ok(out) => {
            out.print(&args);
            if out.correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Scratch directory for the index file, inside the directory the
/// benchmark runs from; removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Counter snapshot of the storage layers, read from outside.
#[derive(Clone, Copy)]
struct Counters {
    pool: PoolStats,
    cache: NodeCacheStats,
    disk: DiskStats,
    read_ns: u64,
}

impl Counters {
    fn read(index: &Index) -> Self {
        Self {
            pool: index.pool.stats(),
            cache: index.tree.store().cache_stats(),
            disk: index.pool.disk_stats(),
            read_ns: index.disk_read_ns.load(Ordering::Relaxed),
        }
    }

    /// Counter-wise `self - before` (the gauges keep `self`'s values).
    fn since(&self, before: &Counters) -> Counters {
        let (p, b) = (&self.pool, &before.pool);
        let (c, cb) = (&self.cache, &before.cache);
        let (d, db) = (&self.disk, &before.disk);
        Counters {
            pool: PoolStats {
                logical_reads: p.logical_reads - b.logical_reads,
                hits: p.hits - b.hits,
                physical_reads: p.physical_reads - b.physical_reads,
                evictions: p.evictions - b.evictions,
                writebacks: p.writebacks - b.writebacks,
            },
            cache: NodeCacheStats {
                hits: c.hits - cb.hits,
                misses: c.misses - cb.misses,
                evictions: c.evictions - cb.evictions,
                invalidations: c.invalidations - cb.invalidations,
                ..*c
            },
            disk: DiskStats {
                reads: d.reads - db.reads,
                writes: d.writes - db.writes,
                allocations: d.allocations - db.allocations,
                deallocations: d.deallocations - db.deallocations,
            },
            read_ns: self.read_ns - before.read_ns,
        }
    }
}

/// Single-segment inserts timed one by one.
#[derive(Default)]
struct Inserts {
    lat_us: Vec<f64>,
    failed: u64,
}

impl Inserts {
    fn insert(&mut self, tree: &RTree<2>, mbr: &Rect<2>, rid: RecordId) {
        let t0 = Instant::now();
        match tree.insert(mbr, rid) {
            Ok(()) => self.lat_us.push(t0.elapsed().as_secs_f64() * 1e6),
            Err(e) => {
                eprintln!("insert of record {} failed: {e}", rid.0);
                self.failed += 1;
            }
        }
    }

    fn count(&self) -> usize {
        self.lat_us.len() + self.failed as usize
    }
}

/// Commits `planned` one at a time at `INSERT_RATE` until `stop` is set
/// or the plan runs out.
fn write_at_rate(tree: &RTree<2>, planned: &[(Rect<2>, RecordId)], stop: &AtomicBool) -> Inserts {
    let mut out = Inserts::default();
    let start = Instant::now();
    for (i, (mbr, rid)) in planned.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / INSERT_RATE);
        loop {
            if stop.load(Ordering::Relaxed) {
                return out;
            }
            let gap = due.saturating_duration_since(Instant::now());
            if gap.is_zero() {
                break;
            }
            std::thread::sleep(gap.min(Duration::from_millis(5)));
        }
        out.insert(tree, mbr, *rid);
    }
    out
}

/// Runs `body` against a live server over `tree` with the default
/// configuration, then shuts the server down and returns its report.
fn session<R: Refiner<2> + Sync, T>(
    tree: &RTree<2>,
    refiner: &R,
    body: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<(T, ServeReport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = ServeConfig::default();
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| nnq_serve::serve(&Engine::Single(tree), refiner, listener, &config));
        let ready = || -> Result<(), String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            match client.call(&Request::Ping { id: 0 }) {
                Ok(Response::Pong { id: 0 }) => Ok(()),
                other => Err(format!("server not ready: {other:?}")),
            }
        };
        let value = ready().and_then(|()| body(addr));
        let bye = Client::connect(addr)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| format!("shutdown: {e}"));
        let report = server
            .join()
            .expect("server thread panicked")
            .map_err(|e| format!("serve: {e}"))?;
        match bye? {
            Response::Bye => Ok((value?, report)),
            other => Err(format!("shutdown answered {other:?}")),
        }
    })
}

/// Everything the measured session produced.
struct Served {
    det: inproc::Det,
    log: Log,
    sat: Vec<f64>,
    rtt: Vec<f64>,
    open: load::OpenLoop,
    inproc: Vec<f64>,
    /// Traversals the in-process phases ran.
    inproc_executed: u64,
    read_window: Counters,
    inserts: Inserts,
    insert_window: Counters,
}

/// The deterministic replay, the warm-up, then `ROUNDS` rounds of the
/// served phases, the in-process phase and (read-only workloads) a chunk
/// of timed inserts, each round taking its share of `seconds`.
/// Interleaving spreads every metric over the whole run, so a slow
/// stretch of the host moves all of them a little rather than one of them
/// a lot. On ingest the writer commits to the served index from warm-up
/// to the end; the read-only workloads insert into a private copy of it
/// (next to `path`), so what they serve never changes.
fn measure<R: Refiner<2> + Sync>(
    index: &Index,
    refiner: &R,
    plan: &Plan,
    args: &Args,
    addr: SocketAddr,
    path: &Path,
) -> Result<Served, String> {
    let det = inproc::deterministic_replay(&index.tree, refiner, plan, DET_QUERIES)
        .map_err(|e| format!("deterministic replay: {e}"))?;
    let round = Duration::from_secs(args.seconds) / ROUNDS;
    let stop = AtomicBool::new(false);
    let ingest = args.workload == Workload::Ingest;
    let copy = if ingest {
        None
    } else {
        Some(index::open_copy(path, &path.with_file_name("copy.db"))?)
    };
    let insert_target = copy.as_ref().unwrap_or(index);
    std::thread::scope(|scope| {
        let c0 = Counters::read(index);
        let c0_inserts = Counters::read(insert_target);
        let mut chunks =
            plan.inserts[..READ_ONLY_INSERTS].chunks(READ_ONLY_INSERTS / ROUNDS as usize);
        let mut copy_inserts = Inserts::default();
        let writer =
            ingest.then(|| scope.spawn(|| write_at_rate(&index.tree, &plan.inserts, &stop)));
        let phases = (|| -> Result<_, String> {
            let io = |e: std::io::Error| format!("load: {e}");
            let mut load = Load::new(addr, plan, ingest).map_err(io)?;
            let mut rng = Rng::new(args.seed ^ 0x4F50_454E);
            let (mut sat, mut rtt, mut inproc) = (Vec::new(), Vec::new(), Vec::new());
            let mut open = load::OpenLoop::default();
            let mut inproc_executed = 0;
            load.closed_loop(SAT_WINDOW, WARMUP, SLICE).map_err(io)?;
            for _ in 0..ROUNDS {
                sat.extend(
                    load.closed_loop(SAT_WINDOW, round.mul_f64(0.35), SLICE)
                        .map_err(io)?,
                );
                rtt.extend(load.round_trips(round.mul_f64(0.15)).map_err(io)?);
                let o = load
                    .open_loop(args.workload.open_rate_qps(), round.mul_f64(0.25), &mut rng)
                    .map_err(io)?;
                open.lat_us.extend(o.lat_us);
                open.late_us.extend(o.late_us);
                let (rates, executed) = inproc::throughput(
                    &index.tree,
                    refiner,
                    plan,
                    &ServeConfig::default(),
                    round.mul_f64(0.25),
                    SLICE,
                )
                .map_err(|e| format!("in-process: {e}"))?;
                inproc.extend(rates);
                inproc_executed += executed;
                if let Some(copy) = &copy {
                    for (mbr, rid) in chunks.next().expect("one chunk per round") {
                        copy_inserts.insert(&copy.tree, mbr, *rid);
                    }
                }
            }
            let read_window = Counters::read(index).since(&c0);
            Ok((
                load.log,
                sat,
                rtt,
                open,
                inproc,
                inproc_executed,
                read_window,
            ))
        })();
        stop.store(true, Ordering::Relaxed);
        let inserts = writer
            .map(|w| w.join().expect("writer panicked"))
            .unwrap_or(copy_inserts);
        let insert_window = Counters::read(insert_target).since(&c0_inserts);
        let (log, sat, rtt, open, inproc, inproc_executed, read_window) = phases?;
        Ok(Served {
            det,
            log,
            sat,
            rtt,
            open,
            inproc,
            inproc_executed,
            read_window,
            inserts,
            insert_window,
        })
    })
}

/// The traced replay and its overhead measurement (`--trace 1` only).
struct Traced {
    replay: trace::Replay,
    overhead: trace::Overhead,
    /// Inserts the ingest writer committed beside the replay.
    inserts: Inserts,
}

fn traced<R: Refiner<2> + Sync>(
    index: &Index,
    refiner: &R,
    plan: &Plan,
    args: &Args,
    inserts_used: usize,
) -> Result<Traced, String> {
    let config = ServeConfig::default();
    let dur = Duration::from_secs(args.seconds).mul_f64(0.25);
    let mut rng = Rng::new(args.seed ^ 0x4F50_454E);
    let stop = AtomicBool::new(false);
    let (replay, more) = std::thread::scope(|scope| {
        let writer = (args.workload == Workload::Ingest).then(|| {
            scope.spawn(|| write_at_rate(&index.tree, &plan.inserts[inserts_used..], &stop))
        });
        let replay = trace::replay(
            &index.tree,
            refiner,
            plan,
            &config,
            args.workload.open_rate_qps(),
            dur,
            &mut rng,
        );
        stop.store(true, Ordering::Relaxed);
        (replay, writer.map(|w| w.join().expect("writer panicked")))
    });
    let replay = replay?;
    let overhead = trace::overhead(&index.tree, refiner, &config, &replay.miss_batches)
        .map_err(|e| format!("trace overhead: {e}"))?;
    Ok(Traced {
        replay,
        overhead,
        inserts: more.unwrap_or_default(),
    })
}

/// The result of one run, ready to print.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let path = work.join("index.db");
    // Enough planned inserts for the writer in every phase that runs it.
    let max_inserts =
        READ_ONLY_INSERTS.max(((2 * args.seconds + 10) as f64 * INSERT_RATE) as usize);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let base = index::road_segments();
        let index = index::build_and_open(&base, &path)?;
        let plan = Plan::new(args.workload, args.seed, base, max_inserts);
        let segments = &plan.segments;
        let refiner = FnRefiner::new(|rid: RecordId, _: &Rect<2>, p: &Point<2>| {
            segments[rid.0 as usize].dist_sq_to_point(p)
        });
        let last = rep + 1 == SETUP_REPS;
        let (served, report) = session(&index.tree, &refiner, |addr| {
            setup_times.push(t0.elapsed().as_secs_f64());
            if last {
                measure(&index, &refiner, &plan, args, addr, &path).map(Some)
            } else {
                Ok(None)
            }
        })?;
        if let Some(served) = served {
            return finish(args, &index, &refiner, &plan, served, report, setup_times);
        }
    }
    unreachable!("the last set-up measures")
}

/// Everything after the served session: traced replay, answer checks,
/// and the metrics.
fn finish<R: Refiner<2> + Sync>(
    args: &Args,
    index: &Index,
    refiner: &R,
    plan: &Plan,
    mut served: Served,
    report: ServeReport,
    mut setup_times: Vec<f64>,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let inserts_used = served.inserts.count();
    let traced = if args.trace {
        Some(traced(index, refiner, plan, args, inserts_used)?)
    } else {
        None
    };

    // Answers, checked on the index as it now stands.
    let log = &served.log;
    let wrong = if args.workload == Workload::Ingest {
        check::bracket(&index.tree, refiner, plan, log)
    } else {
        check::exact(&index.tree, refiner, plan, log)
    }
    .map_err(|e| format!("answer check: {e}"))?
        + log.unstable;

    // Conservation: client and server agree on every request.
    let mut conserved = true;
    let mut law = |ok: bool, what: String| {
        if !ok {
            notes.push(format!("conservation violated: {what}"));
            conserved = false;
        }
    };
    law(
        log.sent == log.ok + log.rejected + log.errors,
        format!(
            "sent {} != ok {} + rejected {} + errors {}",
            log.sent, log.ok, log.rejected, log.errors
        ),
    );
    law(
        report.served == log.ok
            && report.rejected + report.rejected_shutdown == log.rejected
            && report.errors == log.errors
            && report.write_errors == 0,
        format!("server report {report:?} disagrees with the client"),
    );
    law(
        report.result_hits + report.result_misses + report.result_stale == report.batched,
        format!(
            "cache hits {} + misses {} + stale {} != probes {}",
            report.result_hits, report.result_misses, report.result_stale, report.batched
        ),
    );
    if let Some(t) = &traced {
        law(
            t.overhead.mismatches == 0,
            format!(
                "{} traced batches differ from untraced",
                t.overhead.mismatches
            ),
        );
    }

    let (ins_count, ins_failed) = (served.inserts.count() as u64, served.inserts.failed);
    let (more_inserts, more_failed) = traced
        .as_ref()
        .map_or((0, 0), |t| (t.inserts.count() as u64, t.inserts.failed));

    let wrong_or_lost = log.rejected + log.errors + wrong + ins_failed + more_failed;
    let attempted = log.sent + ins_count + more_inserts;
    if wrong > 0 {
        notes.push(format!("{wrong} served answers failed the check"));
    }
    notes.push(format!(
        "fail_frac = {} ((rejected {} + errors {} + wrong {}) / sent {})",
        (log.rejected + log.errors + wrong) as f64 / log.sent.max(1) as f64,
        log.rejected,
        log.errors,
        wrong,
        log.sent
    ));

    let lat = &mut served.open.lat_us;
    let tail: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{} {:.0}", q * 100.0, quantile(lat, q)))
        .collect();
    notes.push(format!("open-loop latency us: {}", tail.join(", ")));

    // End-to-end metrics.
    let mut e2e = Metrics::default();
    let n = |v: &[f64]| v.len() as u64;
    e2e.put("setup_s", median(&mut setup_times), "s", n(&setup_times));
    e2e.put("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    e2e.put("sat_qps", median(&mut served.sat), "1/s", n(&served.sat));
    e2e.put("rtt_p50_us", median(&mut served.rtt), "us", n(&served.rtt));
    e2e.put("lat_p50_us", quantile(lat, 0.5), "us", n(lat));
    e2e.put(
        "inproc_qps",
        median(&mut served.inproc),
        "1/s",
        n(&served.inproc),
    );
    let ilat = &mut served.inserts.lat_us;
    e2e.put("insert_p50_us", quantile(ilat, 0.5), "us", n(ilat));

    // Per-layer metrics.
    let mut pl = Metrics::default();
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    // Tails: printed with every run, but without a bound (see README).
    pl.put("lat_p99_us", quantile(lat, 0.99), "us", n(lat));
    pl.put("insert_p99_us", quantile(ilat, 0.99), "us", n(ilat));
    let late = &mut served.open.late_us;
    pl.put("loadgen.late_p99_us", quantile(late, 0.99), "us", n(late));

    // The deterministic replay.
    let (s, dq) = (&served.det.stats, served.det.queries);
    let considered = s.pruned_total() + s.nodes_visited + s.dist_computations;
    pl.put(
        "traversal.nodes_per_query",
        ratio(s.nodes_visited, dq),
        "1/query",
        dq,
    );
    pl.put(
        "traversal.dist_per_query",
        ratio(s.dist_computations, dq),
        "1/query",
        dq,
    );
    pl.put(
        "traversal.abl_per_query",
        ratio(s.abl_entries, dq),
        "1/query",
        dq,
    );
    pl.put(
        "traversal.pruned_frac",
        ratio(s.pruned_total(), considered),
        "ratio",
        dq,
    );
    let logical = served.det.pool_logical;
    pl.put("pool.logical_per_query", ratio(logical, dq), "1/query", dq);
    notes.push(format!(
        "deterministic {{\"queries\": {dq}, \"nodes\": {}, \"dist\": {}, \"abl\": {}, \"pruned\": {}, \"pool_logical\": {logical}}}",
        s.nodes_visited, s.dist_computations, s.abl_entries, s.pruned_total()
    ));

    // The server's counters, and the storage counters over the same window.
    let r = &report;
    let probes = r.result_hits + r.result_misses + r.result_stale;
    pl.put(
        "result_cache.hit_rate",
        ratio(r.result_hits, probes),
        "ratio",
        probes,
    );
    pl.put(
        "result_cache.stale_rate",
        ratio(r.result_stale, probes),
        "ratio",
        probes,
    );
    pl.put(
        "dedup.merged_frac",
        ratio(r.dedup_merged, r.batched),
        "ratio",
        r.batched,
    );
    let (pool, cache, disk) = (
        &served.read_window.pool,
        &served.read_window.cache,
        &served.read_window.disk,
    );
    // Traversals in the window: the server's, then the in-process phases'.
    let ex = r.batched - r.result_hits - r.dedup_merged + served.inproc_executed;
    pl.put(
        "pool.hit_rate",
        pool.hit_rate(),
        "ratio",
        pool.logical_reads,
    );
    pl.put(
        "pool.physical_per_query",
        ratio(pool.physical_reads, ex),
        "1/query",
        ex,
    );
    pl.put("pool.evictions", ratio(pool.evictions, ex), "1/query", ex);
    pl.put(
        "node_cache.hit_rate",
        cache.hit_rate(),
        "ratio",
        cache.hits + cache.misses,
    );
    pl.put(
        "node_cache.evictions",
        ratio(cache.evictions, ex),
        "1/query",
        ex,
    );
    pl.put("disk.reads", ratio(disk.reads, ex), "1/query", ex);
    let read_us = ratio(served.read_window.read_ns, disk.reads) / 1e3;
    pl.put("disk.read_us", read_us, "us", disk.reads);

    // Writes, per committed insert.
    let iw = &served.insert_window;
    let ni = n(ilat);
    pl.put(
        "node_cache.invalidations",
        ratio(iw.cache.invalidations, ni),
        "1/insert",
        ni,
    );
    pl.put(
        "pool.writebacks",
        ratio(iw.pool.writebacks, ni),
        "1/insert",
        ni,
    );
    pl.put("disk.writes", ratio(iw.disk.writes, ni), "1/insert", ni);
    pl.put(
        "write.pages_per_insert",
        ratio(iw.disk.allocations, ni),
        "1/insert",
        ni,
    );

    if let Some(t) = &traced {
        let r = &t.replay;
        let per = |span: &trace::Span| ratio(span.ns(), span.calls());
        let encodes = r.encode.calls();
        pl.put("protocol.decode_ns", per(&r.decode), "ns", r.decode.calls());
        pl.put("protocol.encode_ns", per(&r.encode), "ns", encodes);
        pl.put(
            "protocol.resp_bytes",
            ratio(r.resp_bytes, encodes),
            "bytes",
            encodes,
        );
        let wait = &mut r.wait_us.clone();
        pl.put("inbox.wait_p50_us", quantile(wait, 0.5), "us", n(wait));
        pl.put("inbox.wait_p99_us", quantile(wait, 0.99), "us", n(wait));
        pl.put(
            "batch.size_mean",
            ratio(r.batched, r.batches),
            "requests",
            r.batches,
        );
        let deadline = ratio(r.deadline_batches, r.batches);
        pl.put("batch.deadline_frac", deadline, "ratio", r.batches);
        pl.put("inbox.admit_ns", per(&r.admit), "ns", r.admit.calls());
        pl.put(
            "result_cache.probe_ns",
            per(&r.probe),
            "ns",
            r.probe.calls(),
        );
        pl.put("result_cache.fill_ns", per(&r.fill), "ns", r.fill.calls());
        // Executor time is the traced replay's, so that self + node reads
        // + refinement add up to it; `trace.overhead_frac` is the clocks'
        // share.
        let exec_us = ratio(r.exec.ns(), r.exec_queries) / 1e3;
        pl.put("executor.us_per_query", exec_us, "us", r.exec_queries);
        let imbalance = r.imbalance_sum / r.exec.calls().max(1) as f64;
        pl.put(
            "executor.worker_imbalance",
            imbalance,
            "ratio",
            r.exec.calls(),
        );
        let self_ns = r.exec.ns().saturating_sub(r.node.ns() + r.refine.ns());
        let self_us = ratio(self_ns, r.exec_queries) / 1e3;
        pl.put("traversal.self_us_per_query", self_us, "us", r.exec_queries);
        pl.put("refine.ns_per_call", per(&r.refine), "ns", r.refine.calls());
        pl.put("rtree.node_access_ns", per(&r.node), "ns", r.node.calls());
        let o = &t.overhead;
        let extra = o.traced_ns as f64 - o.plain_ns as f64;
        pl.put(
            "trace.overhead_frac",
            extra / o.plain_ns.max(1) as f64,
            "ratio",
            o.queries,
        );
    }

    let finite = e2e.0.iter().chain(&pl.0).all(|m| m.value.is_finite());
    if !finite {
        notes.push("a metric has no samples".into());
    }
    Ok(Outcome {
        correct: wrong == 0 && conserved && ins_failed + more_failed == 0 && finite,
        attempted: attempted.max(1),
        failed: wrong_or_lost,
        notes,
        end_to_end: e2e,
        per_layer: pl,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Host metadata printed with every result, so that numbers from
/// different hosts or sources are never compared by mistake.
fn host_json(late_p99_us: Option<f64>) -> String {
    let cmd = |prog: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(prog).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository has a commit;
    // never report the commit of some enclosing repository.
    let commit = Path::new(".git")
        .exists()
        .then(|| cmd("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \"source_fnv\": \"{:016x}\", \"kernel\": {}, \"loadgen.late_p99_us\": {}}}",
        json_str(&rustc),
        json_str(&commit),
        source_fingerprint(),
        json_str(&kernel),
        late_p99_us.map_or("null".into(), |v| v.to_string()),
    )
}

/// FNV-1a over the path and bytes of every source file the benchmark is
/// built from, in path order: equal for equal sources, git or not. A
/// package's sources are its manifest, its lock file and `src/`; the
/// packages are `perfbench` and those under `crates/` and `shims/`.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut packages = vec![PathBuf::from("perfbench")];
    for group in ["crates", "shims"] {
        if let Ok(entries) = std::fs::read_dir(group) {
            packages.extend(entries.flatten().map(|e| e.path()));
        }
    }
    let mut files = Vec::new();
    for package in &packages {
        for name in ["Cargo.toml", "Cargo.lock"] {
            let file = package.join(name);
            if file.is_file() {
                files.push(file);
            }
        }
        walk(&package.join("src"), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            feed(&bytes);
        }
    }
    h
}

impl Outcome {
    fn print(&self, args: &Args) {
        let late = self.per_layer.get("loadgen.late_p99_us");
        println!("# host {}", host_json(late));
        println!(
            "# workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for m in self.end_to_end.0.iter().chain(&self.per_layer.0) {
            println!("# {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let reported = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = reported
            .0
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
