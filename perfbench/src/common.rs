//! Pieces every workload shares: inputs from the seed, the sequential
//! oracle, request assembly, an in-memory log sink the benchmark can
//! read back, and the crash-and-heal step.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ddrs_cgm::Machine;
use ddrs_client::{RangeStore, Request, Response, ServiceError};
use ddrs_rangetree::{Point, Rect, SeqRangeTree, Sum};
use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
use ddrs_wal::LogSink;
use ddrs_workloads::{
    MixedQuery, PointDistribution, QueryDistribution, QueryMode, QueryWorkload, WorkloadBuilder,
};

/// Coordinates are uniform in `[0, SIDE)` on both axes.
pub const SIDE: i64 = 1 << 20;

/// Rebuild unit of every store (the repository's experiments use the
/// same).
pub const CAPACITY: usize = 1 << 9;

/// The whole coordinate domain.
pub const EVERYTHING: Rect<2> = Rect { lo: [i64::MIN, i64::MIN], hi: [i64::MAX, i64::MAX] };

pub type Service = ShardedService<Sum, 2>;

/// `n` uniform weighted points with ids `first_id..first_id + n`.
pub fn points(seed: u64, n: usize, first_id: u32) -> Vec<Point<2>> {
    let mut pts: Vec<Point<2>> =
        WorkloadBuilder::new(seed, n).points(PointDistribution::UniformCube { side: SIDE });
    for p in &mut pts {
        p.id += first_id;
    }
    pts
}

/// `count` mixed reads over `pts`' bounding box at `selectivity`, modes
/// drawn by `weights` (count, aggregate, report).
pub fn reads(
    pts: &[Point<2>],
    seed: u64,
    selectivity: f64,
    weights: (u32, u32, u32),
    count: usize,
) -> Vec<MixedQuery<2>> {
    QueryWorkload::from_points(pts, seed).mixed(
        QueryDistribution::Selectivity { fraction: selectivity },
        weights,
        count,
    )
}

/// The answers a response must carry, per mode in submission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    pub counts: Vec<u64>,
    pub aggregates: Vec<Option<u64>>,
    pub reports: Vec<Vec<u32>>,
}

impl Expected {
    /// Answer `qs` with the sequential range tree.
    pub fn from_oracle(seq: &SeqRangeTree<2>, qs: &[MixedQuery<2>]) -> Expected {
        let mut e = Expected::default();
        for q in qs {
            match q.mode {
                QueryMode::Count => e.counts.push(seq.count(&q.rect)),
                QueryMode::Aggregate => e.aggregates.push(seq.aggregate(&Sum, &q.rect)),
                QueryMode::Report => e.reports.push(seq.report(&q.rect)),
            }
        }
        e
    }

    /// Does `resp` carry exactly these answers?
    pub fn matches(&self, resp: &Response<Sum>) -> bool {
        resp.counts == self.counts
            && resp.aggregates == self.aggregates
            && resp.reports == self.reports
    }

    /// The response carrying these answers and the write verdicts
    /// `writes`.
    pub fn response(&self, writes: Vec<Result<(), ServiceError>>) -> Response<Sum> {
        Response {
            counts: self.counts.clone(),
            aggregates: self.aggregates.clone(),
            reports: self.reports.clone(),
            writes,
        }
    }

    /// Ids a response with these answers returns.
    pub fn reported_ids(&self) -> usize {
        self.reports.iter().map(Vec::len).sum()
    }
}

/// One request carrying the reads `qs`, in order.
pub fn read_request(qs: &[MixedQuery<2>]) -> Request<Sum, 2> {
    let mut req = Request::new();
    for q in qs {
        match q.mode {
            QueryMode::Count => {
                req.count(q.rect);
            }
            QueryMode::Aggregate => {
                req.aggregate(q.rect);
            }
            QueryMode::Report => {
                req.report(q.rect);
            }
        }
    }
    req
}

/// Submit the reads `qs` and compare the answer with `exp`.
pub fn verify_reads(store: &dyn RangeStore<Sum, 2>, qs: &[MixedQuery<2>], exp: &Expected) -> bool {
    match store.submit(read_request(qs)) {
        Ok(t) => t.wait().is_ok_and(|c| exp.matches(&c.value)),
        Err(_) => false,
    }
}

/// Does a full-domain count through `store` read `n`?
pub fn verify_total(store: &dyn RangeStore<Sum, 2>, n: usize) -> bool {
    match store.count(EVERYTHING) {
        Ok(t) => t.wait().is_ok_and(|c| c.value == n as u64),
        Err(_) => false,
    }
}

/// An in-memory write-ahead-log sink, like the default `MemSink`, whose
/// bytes the benchmark can read back after handing the sink to a
/// service.
#[derive(Clone, Default)]
pub struct TapSink(Arc<Mutex<Vec<u8>>>);

impl TapSink {
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("tap sink poisoned").clone()
    }
}

impl LogSink for TapSink {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.0.lock().expect("tap sink poisoned").extend_from_slice(frame);
        Ok(())
    }

    fn snapshot(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.bytes())
    }
}

/// Start `shards` groups of `p` processors over `pts`, range-partitioned
/// on the first axis, with the default config and one sink per shard.
pub fn start_service(
    shards: usize,
    p: usize,
    pts: &[Point<2>],
    sinks: Vec<Box<dyn LogSink>>,
) -> Service {
    let machines = (0..shards).map(|_| Machine::new(p).expect("machine size")).collect();
    ShardedService::start_with_sinks(
        machines,
        CAPACITY,
        pts,
        Sum,
        PartitionPolicy::range_from_sample(shards, pts),
        ShardedConfig::default(),
        sinks,
    )
    .expect("starting the service")
}

/// Crash `shard` with an injected processor panic in a write of
/// `poison` (which must land on that shard), then heal it from its log.
/// Returns the wall time of `recover_shard`, or `None` when the crash
/// did not take or the heal failed.
pub fn crash_and_heal(service: &Service, shard: usize, poison: Point<2>) -> Option<f64> {
    service.fail_next_write_epoch(shard);
    let crashed = service.insert(vec![poison]).ok()?.wait().is_err();
    if !crashed {
        return None;
    }
    let t0 = Instant::now();
    let healed = crate::spans::span("recover", || service.recover_shard(shard).ok()?.wait().ok());
    let secs = t0.elapsed().as_secs_f64();
    healed.map(|_| secs)
}

/// Hide the panic messages of the injected processor faults and of the
/// sibling processors they cancel; every other panic still prints.
pub fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let simulated = std::thread::current().name().is_some_and(|n| n.starts_with("cgm-worker"));
        let injected =
            info.payload().downcast_ref::<&str>().is_some_and(|m| m.contains("injected"));
        if !simulated && !injected {
            default_hook(info);
        }
    }));
}
