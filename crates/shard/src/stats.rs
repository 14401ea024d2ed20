//! Sharded-service telemetry: front-end counters plus a per-shard
//! breakdown, all bounded-memory.

use ddrs_cgm::RunStatsRollup;
use ddrs_trace::{Histogram, MetricsRegistry, StageBreakdown};

/// Telemetry of one shard group, as seen by the router.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// Rollup of every machine run this shard executed for the service.
    pub machine: RunStatsRollup,
    /// Live points currently owned by this shard.
    pub live_points: usize,
    /// The quarantine reason, if a write epoch failed mid-apply on this
    /// shard (a poisoned shard rejects all further traffic; its
    /// siblings keep serving).
    pub poisoned: Option<String>,
    /// Records appended to this shard's write-ahead log (bulk load,
    /// committed epochs, migrations).
    pub wal_records: u64,
    /// Frame bytes appended to this shard's write-ahead log.
    pub wal_bytes: u64,
}

/// A point-in-time snapshot of the sharded service's telemetry.
///
/// Obtained from `ShardedService::stats`; counters are cumulative since
/// the service started.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that received a terminal response (success or error).
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub overloaded: u64,
    /// Requests that expired in the queue before dispatch.
    pub expired: u64,
    /// Coalesced read dispatches that reached at least one machine.
    pub dispatches: u64,
    /// Write epochs that reached at least one machine.
    pub write_epochs: u64,
    /// Read queries answered through coalesced dispatches.
    pub queries_coalesced: u64,
    /// Read ops that were routed to at least one shard (excludes empty
    /// rects answered locally and ops failed at planning).
    pub read_ops_routed: u64,
    /// Total shards those routed reads were enqueued on. The quotient
    /// [`mean_read_fanout`](Self::mean_read_fanout) is the routing
    /// minimality of the workload: 1.0 means every read touched exactly
    /// one shard.
    pub read_shards_touched: u64,
    /// Total shards touched by write epochs (one sub-epoch per counted
    /// shard), across all epochs that reached a machine.
    pub write_shards_touched: u64,
    /// Completed shard-split migrations (explicit and skew-triggered).
    pub rebalances: u64,
    /// Points moved between shard groups by those migrations.
    pub rebalance_moved: u64,
    /// Completed shard recoveries (write-ahead-log replays that
    /// returned a quarantined shard to service).
    pub recoveries: u64,
    /// Live points rebuilt by those recoveries.
    pub recovered_points: u64,
    /// Distribution of recovery durations (decode + replay + rejoin),
    /// in µs.
    pub recovery_us: Histogram,
    /// Machine-side rollup across every shard.
    pub machine: RunStatsRollup,
    /// Per-shard machine rollups, live-point counts and health.
    pub per_shard: Vec<ShardSnapshot>,
    /// Distribution of coalesced read-batch sizes (queries per dispatch).
    pub batch_sizes: Histogram,
    /// Distribution of request latencies, submit → response, in µs.
    pub latency_us: Histogram,
    /// Where dispatched ops spent their time, per lifecycle stage
    /// (queue / window / machine-run / merge / resolve). Always
    /// recorded — plain counters, independent of span recording.
    pub stages: StageBreakdown,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Current axis-0 slab boundaries (range partition only; rebalance
    /// moves them).
    pub range_bounds: Option<Vec<i64>>,
}

impl ShardedStats {
    /// Mean queries per coalesced read dispatch (0 before any dispatch).
    pub fn mean_batch_size(&self) -> f64 {
        self.batch_sizes.mean()
    }

    /// Queries answered per machine run across all shards — the
    /// coalescing leverage of the router (0 before any run).
    pub fn coalescing_factor(&self) -> f64 {
        if self.machine.runs == 0 {
            0.0
        } else {
            self.queries_coalesced as f64 / self.machine.runs as f64
        }
    }

    /// Mean shards touched per routed read op (0 before any routed
    /// read). 1.0 = perfectly minimal routing; `S` = everything fans
    /// out everywhere.
    pub fn mean_read_fanout(&self) -> f64 {
        if self.read_ops_routed == 0 {
            0.0
        } else {
            self.read_shards_touched as f64 / self.read_ops_routed as f64
        }
    }

    /// Median request latency in µs (bucket upper bound).
    pub fn p50_latency_us(&self) -> u64 {
        self.latency_us.quantile(0.5)
    }

    /// 99th-percentile request latency in µs (bucket upper bound).
    pub fn p99_latency_us(&self) -> u64 {
        self.latency_us.quantile(0.99)
    }

    /// Live points across all shards.
    pub fn total_points(&self) -> usize {
        self.per_shard.iter().map(|s| s.live_points).sum()
    }

    /// Largest shard ÷ mean shard size (1.0 = perfectly balanced; 0
    /// when empty).
    pub fn skew(&self) -> f64 {
        let total = self.total_points();
        if total == 0 || self.per_shard.is_empty() {
            return 0.0;
        }
        let max = self.per_shard.iter().map(|s| s.live_points).max().unwrap_or(0);
        max as f64 * self.per_shard.len() as f64 / total as f64
    }

    /// Publish this snapshot into a [`MetricsRegistry`] under
    /// `<prefix>.*`: the front-end counters, the routing metrics and one
    /// `<prefix>.shard.<i>.*` group per shard.
    pub fn register_into(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.set_counter(&format!("{prefix}.submitted"), self.submitted);
        registry.set_counter(&format!("{prefix}.completed"), self.completed);
        registry.set_counter(&format!("{prefix}.overloaded"), self.overloaded);
        registry.set_counter(&format!("{prefix}.expired"), self.expired);
        registry.set_counter(&format!("{prefix}.dispatches"), self.dispatches);
        registry.set_counter(&format!("{prefix}.write_epochs"), self.write_epochs);
        registry.set_counter(&format!("{prefix}.queries_coalesced"), self.queries_coalesced);
        registry.set_counter(&format!("{prefix}.read_ops_routed"), self.read_ops_routed);
        registry.set_counter(&format!("{prefix}.rebalances"), self.rebalances);
        registry.set_counter(&format!("{prefix}.rebalance_moved"), self.rebalance_moved);
        registry.set_counter(&format!("{prefix}.recoveries"), self.recoveries);
        registry.set_counter(&format!("{prefix}.recovered_points"), self.recovered_points);
        registry.set_histogram(&format!("{prefix}.recovery_us"), self.recovery_us.clone());
        registry.set_counter(&format!("{prefix}.queue_depth"), self.queue_depth as u64);
        registry.set_counter(&format!("{prefix}.total_points"), self.total_points() as u64);
        registry.set_gauge(&format!("{prefix}.coalescing_factor"), self.coalescing_factor());
        registry.set_gauge(&format!("{prefix}.mean_read_fanout"), self.mean_read_fanout());
        registry.set_gauge(&format!("{prefix}.skew"), self.skew());
        registry.set_histogram(&format!("{prefix}.batch_sizes"), self.batch_sizes.clone());
        registry.set_histogram(&format!("{prefix}.latency_us"), self.latency_us.clone());
        self.stages.register_into(registry, &format!("{prefix}.stage"));
        register_rollup(&self.machine, registry, &format!("{prefix}.machine"));
        for (i, shard) in self.per_shard.iter().enumerate() {
            let sp = format!("{prefix}.shard.{i}");
            registry.set_counter(&format!("{sp}.live_points"), shard.live_points as u64);
            registry.set_counter(&format!("{sp}.poisoned"), u64::from(shard.poisoned.is_some()));
            registry.set_counter(&format!("{sp}.wal_records"), shard.wal_records);
            registry.set_counter(&format!("{sp}.wal_bytes"), shard.wal_bytes);
            register_rollup(&shard.machine, registry, &format!("{sp}.machine"));
        }
    }
}

/// Publish a CGM [`RunStatsRollup`] into a [`MetricsRegistry`] under
/// `<prefix>.*`.
fn register_rollup(rollup: &RunStatsRollup, registry: &MetricsRegistry, prefix: &str) {
    registry.set_counter(&format!("{prefix}.runs"), rollup.runs);
    registry.set_counter(&format!("{prefix}.supersteps"), rollup.supersteps);
    registry.set_counter(&format!("{prefix}.max_h"), rollup.max_h);
    registry.set_counter(&format!("{prefix}.total_words"), rollup.total_words);
    registry.set_gauge(&format!("{prefix}.rounds_per_run"), rollup.rounds_per_run());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_and_totals() {
        let mut s = ShardedStats::default();
        assert_eq!(s.skew(), 0.0);
        s.per_shard = vec![
            ShardSnapshot { live_points: 30, ..Default::default() },
            ShardSnapshot { live_points: 10, ..Default::default() },
        ];
        assert_eq!(s.total_points(), 40);
        assert_eq!(s.skew(), 1.5);
    }

    #[test]
    fn empty_stats_quantiles_are_zero() {
        let s = ShardedStats::default();
        assert_eq!(s.p50_latency_us(), 0);
        assert_eq!(s.p99_latency_us(), 0);
        assert_eq!(s.latency_us.max(), 0);
        assert_eq!(s.latency_us.mean(), 0.0);
    }

    #[test]
    fn coalescing_factor_and_batch_mean() {
        let mut s = ShardedStats::default();
        assert_eq!(s.coalescing_factor(), 0.0);
        s.queries_coalesced = 120;
        s.machine.runs = 3;
        s.batch_sizes.record(40);
        s.batch_sizes.record(40);
        s.batch_sizes.record(40);
        assert_eq!(s.coalescing_factor(), 40.0);
        assert_eq!(s.mean_batch_size(), 40.0);
    }

    #[test]
    fn register_into_publishes_counters_stages_and_rollup() {
        use ddrs_trace::MetricValue;
        let mut s = ShardedStats { submitted: 7, completed: 7, ..Default::default() };
        s.machine.runs = 2;
        s.machine.supersteps = 6;
        s.latency_us.record(100);
        s.stages.queue.record(40);
        let reg = MetricsRegistry::new();
        s.register_into(&reg, "service");
        let snap = reg.snapshot();
        assert_eq!(snap.get("service.submitted"), Some(&MetricValue::Counter(7)));
        assert_eq!(snap.get("service.machine.runs"), Some(&MetricValue::Counter(2)));
        assert_eq!(snap.get("service.stage.queue.max_us"), Some(&MetricValue::Counter(40)));
        match snap.get("service.latency_us") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("latency_us missing or mistyped: {other:?}"),
        }
        assert!(matches!(
            snap.get("service.machine.rounds_per_run"),
            Some(MetricValue::Gauge(g)) if (*g - 3.0).abs() < 1e-9
        ));
    }

    #[test]
    fn register_into_publishes_per_shard_groups() {
        use ddrs_trace::MetricValue;
        let mut s = ShardedStats {
            submitted: 9,
            read_ops_routed: 4,
            read_shards_touched: 8,
            ..Default::default()
        };
        s.stages.machine_run.record(250);
        s.per_shard = vec![
            ShardSnapshot { live_points: 3, ..Default::default() },
            ShardSnapshot { live_points: 1, poisoned: Some("boom".into()), ..Default::default() },
        ];
        let reg = MetricsRegistry::new();
        s.register_into(&reg, "sharded");
        let snap = reg.snapshot();
        assert_eq!(snap.get("sharded.submitted"), Some(&MetricValue::Counter(9)));
        assert_eq!(snap.get("sharded.shard.0.live_points"), Some(&MetricValue::Counter(3)));
        assert_eq!(snap.get("sharded.shard.1.poisoned"), Some(&MetricValue::Counter(1)));
        assert_eq!(snap.get("sharded.stage.machine_run.max_us"), Some(&MetricValue::Counter(250)));
        assert!(matches!(
            snap.get("sharded.mean_read_fanout"),
            Some(MetricValue::Gauge(g)) if (*g - 2.0).abs() < 1e-9
        ));
    }
}
