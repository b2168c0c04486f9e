//! The serving layer's accounting contract, at the wire level: the
//! byte-for-byte encoded responses — neighbor records, exact distance
//! bits, and per-query logical reads — must be identical across every
//! (batch size, worker count) configuration, because micro-batching and
//! work-stealing are throughput knobs, not semantics. The partitioned
//! engine must answer with the single tree's hits for any partition
//! count, worker count and result-cache setting — and at P = 1 with the
//! single tree's exact frames.

use nnq_core::MbrRefiner;
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, zipf_cluster_queries};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Runs one server configuration over a fixed request sequence on a
/// single pipelined connection and returns each response's encoded
/// bytes, in request order.
fn serve_responses(
    engine: &Engine<'_>,
    requests: &[Request],
    config: &ServeConfig,
) -> Vec<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server =
            scope.spawn(move || nnq_serve::serve(engine, &MbrRefiner, listener, config).unwrap());
        let mut client = Client::connect(addr).unwrap();
        for req in requests {
            client.send(req).unwrap();
        }
        let responses: Vec<Vec<u8>> = (0..requests.len())
            .map(|i| {
                let resp = client.recv().unwrap();
                assert!(
                    matches!(&resp, Response::Ok { id, .. } if *id == requests[i].id().unwrap()),
                    "request {i}: unexpected response {resp:?}"
                );
                resp.encode()
            })
            .collect();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        let report = server.join().unwrap();
        assert_eq!(report.served, requests.len() as u64);
        assert_eq!(report.rejected + report.errors + report.write_errors, 0);
        responses
    })
}

#[test]
fn responses_are_byte_identical_across_batch_sizes_and_threads() {
    let pts = uniform_points(15_000, &default_bounds(), 61);
    let items = points_to_items(&pts);
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
    let tree = RTree::<2>::bulk_load(
        Arc::clone(&pool),
        RTreeConfig::default(),
        items,
        BulkMethod::Str,
        1.0,
    )
    .unwrap();

    // Zipf-clustered query points (hot neighborhoods make work stealing
    // uneven — the stress case for ordering bugs), mixed kNN and radius.
    let centers: Vec<Point<2>> = uniform_points(32, &default_bounds(), 62);
    let queries = zipf_cluster_queries(200, &centers, 0.9, 2_000.0, &default_bounds(), 63);
    let requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let id = i as u64;
            if i % 3 == 2 {
                Request::Radius {
                    id,
                    x: q[0],
                    y: q[1],
                    radius: 800.0 + (i % 5) as f64 * 600.0,
                }
            } else {
                Request::Knn {
                    id,
                    x: q[0],
                    y: q[1],
                    k: 1 + (i % 8) as u32,
                }
            }
        })
        .collect();

    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for batch_max in [1usize, 32] {
        for threads in [1usize, 8] {
            let config = ServeConfig {
                threads,
                batch_max,
                batch_deadline: Duration::from_micros(100),
                inbox_cap: 1024,
                ..ServeConfig::default()
            };
            let got = serve_responses(&Engine::Single(&tree), &requests, &config);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            g, w,
                            "batch={batch_max} threads={threads}: response {i} \
                             not byte-identical to batch=1 threads=1"
                        );
                    }
                }
            }
        }
    }
}

/// The hits of an encoded `Ok` frame as `(record, distance bits)`.
fn hits(frame: &[u8]) -> Vec<(u64, u64)> {
    match Response::decode(frame).unwrap() {
        Response::Ok { hits, .. } => hits
            .iter()
            .map(|h| (h.record, h.dist_sq.to_bits()))
            .collect(),
        other => panic!("not an Ok frame: {other:?}"),
    }
}

#[test]
fn partitioned_engine_answers_like_the_single_tree() {
    let items = points_to_items(&uniform_points(12_000, &default_bounds(), 71));
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
    // The same Hilbert bulk load the partitions use: at P = 1 the
    // partition is this tree, page for page.
    let single = RTree::<2>::bulk_load(
        pool,
        RTreeConfig::default(),
        items.clone(),
        BulkMethod::Hilbert,
        1.0,
    )
    .unwrap();

    // Mixed kNN/radius queries where every other request repeats a recent
    // one, so most micro-batches carry duplicates for the executor to
    // merge (and, with the cache on, later batches hit memoized answers).
    let centers: Vec<Point<2>> = uniform_points(16, &default_bounds(), 72);
    let queries = zipf_cluster_queries(120, &centers, 0.9, 1_500.0, &default_bounds(), 73);
    let mut requests = Vec::new();
    for i in 0..queries.len() {
        for j in [i, i - i % 6] {
            let (q, id) = (queries[j], requests.len() as u64);
            requests.push(if j % 3 == 2 {
                Request::Radius {
                    id,
                    x: q[0],
                    y: q[1],
                    radius: 900.0 + (j % 4) as f64 * 500.0,
                }
            } else {
                Request::Knn {
                    id,
                    x: q[0],
                    y: q[1],
                    k: 1 + (j % 7) as u32,
                }
            });
        }
    }

    let config = |threads: usize, result_cache: usize| ServeConfig {
        threads,
        batch_max: 32,
        batch_deadline: Duration::from_micros(100),
        result_cache,
        ..ServeConfig::default()
    };
    let want = serve_responses(&Engine::Single(&single), &requests, &config(1, 0));
    for p in [1usize, 4] {
        let forest = PartitionedTree::bulk_load_in_memory(
            items.clone(),
            p,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            1 << 14,
            1,
        )
        .unwrap();
        for threads in [1usize, 2] {
            for result_cache in [0usize, 1024] {
                let got = serve_responses(
                    &Engine::Partitioned(&forest),
                    &requests,
                    &config(threads, result_cache),
                );
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    let at = format!("p={p} threads={threads} cache={result_cache} response {i}");
                    assert_eq!(hits(g), hits(w), "{at}: hits differ from the single tree");
                    if p == 1 {
                        assert_eq!(g, w, "{at}: frame differs from the single tree");
                    }
                }
            }
        }
    }
}
