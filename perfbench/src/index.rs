//! The shared index: 1M TIGER-like road segments, Hilbert bulk-loaded to
//! a page file and reopened the way `nnq serve` opens it — a `FileDisk`
//! under a 4096-frame buffer pool — except that the disk sits inside a
//! timing wrapper so physical I/O time can be read from outside.

use nnq_geom::Segment;
use nnq_rtree::{BulkMethod, RTree, RTreeConfig};
use nnq_storage::{BufferPool, DiskManager, DiskStats, FileDisk, PageId, PAGE_SIZE};
use nnq_workloads::{segments_to_items, tiger_like_segments, TigerParams};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Road segments in the shared index.
pub const SEGMENTS: usize = 1_000_000;

/// Buffer-pool frames, as `nnq serve` opens an index (16 MiB of pages).
pub const POOL_FRAMES: usize = 4096;

/// A `DiskManager` that forwards every call to a `FileDisk` and adds the
/// time spent in page reads to `read_ns`. It changes no result and no
/// counter.
struct TimedDisk {
    inner: FileDisk,
    read_ns: Arc<AtomicU64>,
}

impl DiskManager for TimedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> nnq_storage::Result<()> {
        let t0 = Instant::now();
        let res = self.inner.read_page(id, buf);
        self.read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> nnq_storage::Result<()> {
        self.inner.write_page(id, buf)
    }

    fn allocate(&self) -> nnq_storage::Result<PageId> {
        self.inner.allocate()
    }

    fn deallocate(&self, id: PageId) -> nnq_storage::Result<()> {
        self.inner.deallocate(id)
    }

    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn sync(&self) -> nnq_storage::Result<()> {
        self.inner.sync()
    }

    fn ensure_allocated(&self, id: PageId) -> nnq_storage::Result<()> {
        self.inner.ensure_allocated(id)
    }
}

/// An opened index plus the handles its counters are read through.
pub struct Index {
    pub tree: RTree<2>,
    pub pool: Arc<BufferPool>,
    /// Nanoseconds spent in device page reads.
    pub disk_read_ns: Arc<AtomicU64>,
}

/// The road network: 1M segments with the generator's default towns,
/// arterials, bounds and seed — the same map for every workload seed, as
/// RKV'95 queries one fixed TIGER county with many query sets. The seed
/// varies what is asked of it: query points, arrival times and inserts.
pub fn road_segments() -> Vec<Segment> {
    tiger_like_segments(&TigerParams {
        segments: SEGMENTS,
        ..TigerParams::default()
    })
}

/// Bulk-loads `segments` (Hilbert order, full pages) into a page file at
/// `path`, flushes and syncs it, and reopens it through a fresh pool.
pub fn build_and_open(segments: &[Segment], path: &Path) -> Result<Index, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what} {}: {e}", path.display());
    {
        let disk = FileDisk::create(path, PAGE_SIZE).map_err(|e| err("creating", &e))?;
        let pool = Arc::new(BufferPool::new(Box::new(disk), POOL_FRAMES));
        let _tree = RTree::<2>::bulk_load(
            Arc::clone(&pool),
            RTreeConfig::default(),
            segments_to_items(segments),
            BulkMethod::Hilbert,
            1.0,
        )
        .map_err(|e| err("bulk-loading", &e))?;
        pool.flush_all().map_err(|e| err("flushing", &e))?;
    }
    // Make the file durable now, so the kernel does not write the freshly
    // built index back in the middle of the measurement.
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| err("syncing", &e))?;
    open(path)
}

/// Copies the page file at `path` to `copy` and opens the copy: an index
/// identical to the served one that can take writes without changing
/// what is served.
pub fn open_copy(path: &Path, copy: &Path) -> Result<Index, String> {
    std::fs::copy(path, copy).map_err(|e| format!("copying {}: {e}", path.display()))?;
    open(copy)
}

/// Opens the page file at `path` as `nnq serve` does.
fn open(path: &Path) -> Result<Index, String> {
    let err = |e: &dyn std::fmt::Display| format!("opening {}: {e}", path.display());
    let read_ns = Arc::new(AtomicU64::new(0));
    let disk = TimedDisk {
        inner: FileDisk::open(path, PAGE_SIZE).map_err(|e| err(&e))?,
        read_ns: Arc::clone(&read_ns),
    };
    let pool = Arc::new(BufferPool::with_shards(Box::new(disk), POOL_FRAMES, 1));
    let tree = RTree::<2>::open(Arc::clone(&pool), PageId(0)).map_err(|e| err(&e))?;
    Ok(Index {
        tree,
        pool,
        disk_read_ns: read_ns,
    })
}
