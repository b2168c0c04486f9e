//! The three workloads and the inputs each is made of. Everything here is
//! a pure function of the seed and the generated road network.

use crate::util::{Rng, Zipf};
use nnq_core::BatchQuery;
use nnq_geom::{Point, Rect, Segment};
use nnq_rtree::RecordId;
use nnq_serve::Request;
use nnq_workloads::{default_bounds, zipf_cluster_queries};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop continuous-coordinate road queries: traversal, pool,
    /// node cache and refinement do the work; the result cache misses.
    TigerRoad,
    /// Zipf-popular requests from a fixed pool smaller than the result
    /// cache: the serve path (protocol, inbox, batching, cache probe,
    /// encode) does the work.
    HotTiles,
    /// The tiger-road reads at a lower rate beside ~1000 single-segment
    /// inserts per second committed in-process.
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TigerRoad, Workload::HotTiles, Workload::Ingest];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TigerRoad => "tiger-road",
            Workload::HotTiles => "hot-tiles",
            Workload::Ingest => "ingest",
        }
    }

    /// Fixed offered rate of the open-loop phase, in requests per second:
    /// a constant, never derived from a measurement at run time. The
    /// read-only workloads run at about a fifth of the `sat_qps` median
    /// recorded on the reference host, busy enough that requests share
    /// micro-batches and queue behind one another; a server twice as slow
    /// still keeps up. `ingest` runs at about a tenth of its own: under the
    /// writer, how fast the server drains depends on where the seed puts
    /// the insert hot spot, and at a quarter the slowest seed seen ran
    /// near saturation. See README, "Offered rates".
    pub fn open_rate_qps(self) -> f64 {
        match self {
            Workload::TigerRoad => 2900.0,
            Workload::HotTiles => 24_000.0,
            Workload::Ingest => 1000.0,
        }
    }
}

/// Query centres: midpoints of segments sampled from the data, so they
/// sit where roads are dense.
const CENTRES: usize = 256;
/// Zipf skew over the centres.
const THETA: f64 = 0.9;
/// Spread of query points around their centre, in metres.
const SIGMA: f64 = 800.0;
/// kNN sizes, drawn uniformly.
const KS: [usize; 3] = [1, 5, 10];
/// Radius sizes in metres, drawn uniformly.
const RADII: [f64; 3] = [25.0, 50.0, 100.0];
/// Distinct requests the served stream cycles through. Far more than the
/// 1024-entry result cache, so a repeat always finds its entry evicted.
pub const STREAM_LEN: usize = 16_384;
/// Distinct requests in the hot-tiles pool (fewer than the result cache
/// holds).
const HOT_POOL: usize = 500;
/// Zipf skew of popularity over the hot-tiles pool. Flatter than
/// `THETA`: at 0.9 the few most popular requests make most of each
/// batch's traversals, so which requests a seed made popular moved
/// `inproc_qps` by ±15% from seed to seed. The pool fits in the result
/// cache either way, so the hit rate does not depend on it.
const HOT_THETA: f64 = 0.5;
/// Hot-tiles snaps query points to the centres of tiles this wide.
const TILE: f64 = 250.0;
/// Single-segment insert rate of the ingest writer, per second.
pub const INSERT_RATE: f64 = 1000.0;

/// Everything one run serves, inserts and checks against.
pub struct Plan {
    /// Geometry of every record id the index can hold: the base network,
    /// then the planned inserts. The served refiner reads it.
    pub segments: Vec<Segment>,
    /// Records in the bulk-loaded index (`segments[..n_base]`).
    pub n_base: usize,
    /// The request stream; request `id` of a run is `stream[id % len]`.
    pub stream: Vec<BatchQuery<2>>,
    /// Planned inserts, in commit order, with ids from `n_base` up.
    pub inserts: Vec<(Rect<2>, RecordId)>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, base: Vec<Segment>, max_inserts: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x51_55_45_52);
        let centres: Vec<Point<2>> = (0..CENTRES)
            .map(|_| base[rng.below(base.len())].midpoint())
            .collect();
        let stream = match workload {
            Workload::TigerRoad | Workload::Ingest => road_queries(&centres, STREAM_LEN, &mut rng),
            Workload::HotTiles => hot_tiles(&centres, &mut rng),
        };
        let n_base = base.len();
        let mut segments = base;
        // Inserts: short street segments anchored where the queries go.
        let anchors = zipf_cluster_queries(
            max_inserts,
            &centres,
            THETA,
            SIGMA,
            &default_bounds(),
            rng.next_u64(),
        );
        let mut inserts = Vec::with_capacity(max_inserts);
        for (i, a) in anchors.into_iter().enumerate() {
            let len = 60.0 + 40.0 * rng.unit();
            let b = if rng.unit() < 0.5 {
                clamp(Point::new([a[0] + len, a[1]]))
            } else {
                clamp(Point::new([a[0], a[1] + len]))
            };
            let seg = Segment::new(a, b);
            inserts.push((seg.mbr(), RecordId((n_base + i) as u64)));
            segments.push(seg);
        }
        Plan {
            segments,
            n_base,
            stream,
            inserts,
        }
    }

    /// Request `id` on the wire.
    pub fn request(&self, id: u64) -> Request {
        wire(&self.stream[(id % self.stream.len() as u64) as usize], id)
    }
}

pub fn wire(q: &BatchQuery<2>, id: u64) -> Request {
    match *q {
        BatchQuery::Knn { q, k } => Request::Knn {
            id,
            x: q[0],
            y: q[1],
            k: k as u32,
        },
        BatchQuery::Radius { q, radius } => Request::Radius {
            id,
            x: q[0],
            y: q[1],
            radius,
        },
    }
}

fn clamp(p: Point<2>) -> Point<2> {
    let b = default_bounds();
    Point::new([
        p[0].clamp(b.lo()[0], b.hi()[0]),
        p[1].clamp(b.lo()[1], b.hi()[1]),
    ])
}

/// Zipf-clustered query points around the centres, mixed 2:1 kNN to
/// radius, with continuous coordinates (so requests almost never repeat).
fn road_queries(centres: &[Point<2>], n: usize, rng: &mut Rng) -> Vec<BatchQuery<2>> {
    let points = zipf_cluster_queries(n, centres, THETA, SIGMA, &default_bounds(), rng.next_u64());
    points
        .into_iter()
        .map(|q| {
            if rng.unit() < 2.0 / 3.0 {
                BatchQuery::Knn {
                    q,
                    k: KS[rng.below(KS.len())],
                }
            } else {
                BatchQuery::Radius {
                    q,
                    radius: RADII[rng.below(RADII.len())],
                }
            }
        })
        .collect()
}

/// A fixed pool of `HOT_POOL` distinct requests, their points snapped to
/// tile centres, drawn with Zipf popularity into a stream of
/// `STREAM_LEN`.
fn hot_tiles(centres: &[Point<2>], rng: &mut Rng) -> Vec<BatchQuery<2>> {
    let snap = |v: f64| (v / TILE).floor() * TILE + TILE / 2.0;
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(HOT_POOL);
    while pool.len() < HOT_POOL {
        for q in road_queries(centres, 4 * HOT_POOL, rng) {
            let q = match q {
                BatchQuery::Knn { q, k } => BatchQuery::Knn {
                    q: clamp(Point::new([snap(q[0]), snap(q[1])])),
                    k,
                },
                BatchQuery::Radius { q, radius } => BatchQuery::Radius {
                    q: clamp(Point::new([snap(q[0]), snap(q[1])])),
                    radius,
                },
            };
            if pool.len() < HOT_POOL && seen.insert(q.canonical_key()) {
                pool.push(q);
            }
        }
    }
    let zipf = Zipf::new(pool.len(), HOT_THETA);
    (0..STREAM_LEN).map(|_| pool[zipf.sample(rng)]).collect()
}
