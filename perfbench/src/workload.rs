//! The run context every workload shares, and the per-layer metrics
//! read from the serving layers' public stats snapshots.

use std::path::Path;

use ddrs_net::NetStats;
use ddrs_shard::ShardedStats;
use ddrs_trace::RankStep;

use crate::report::{mean, Run};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Length of the windows a run's rates and latency quantiles are taken
/// over (their medians across windows are reported).
pub const WINDOW_S: f64 = 1.0;

pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    /// Built with span recording (`--features trace`).
    pub traced: bool,
    /// Scratch directory inside the checkout (logs, chrome trace).
    pub out: &'a Path,
    /// Machine timelines from the engine probe, for the chrome trace.
    pub timeline: Vec<RankStep>,
    /// Process threads while the workload's load was running.
    pub threads: u64,
    /// Resident memory the store added at set-up.
    pub store_mb: f64,
    /// Network connections the load used.
    pub connections: usize,
}

impl Ctx<'_> {
    /// Whole windows in the measured span.
    pub fn windows(&self) -> usize {
        ((self.seconds / WINDOW_S) as usize).max(1)
    }
}

/// Scheduler, shard and client metrics from the service's stats and the
/// benchmark's own submit timings.
pub fn layer_from_service(run: &mut Run, stats: &ShardedStats, submit_us: &[f64]) {
    let st = &stats.stages;
    let n = stats.completed as usize;
    run.layer("sched.queue_us", st.queue.mean_us(), "us", st.queue.count as usize);
    run.layer("sched.window_us", st.window.mean_us(), "us", st.window.count as usize);
    let dispatches = stats.batch_sizes.count() as usize;
    run.layer("sched.ops_per_dispatch", stats.mean_batch_size(), "ops", dispatches);
    run.layer(
        "shard.machine_run_us",
        st.machine_run.mean_us(),
        "us",
        st.machine_run.count as usize,
    );
    run.layer("shard.merge_us", st.merge.mean_us(), "us", st.merge.count as usize);
    run.layer("shard.resolve_us", st.resolve.mean_us(), "us", st.resolve.count as usize);
    run.layer("shard.read_fanout", stats.mean_read_fanout(), "shards", n);
    run.layer("shard.overloaded", stats.overloaded as f64, "count", n);
    run.layer("shard.expired", stats.expired as f64, "count", n);
    run.layer("client.submit_us", mean(submit_us), "us", submit_us.len());
}

/// Network-layer metrics: the server's counters and the mean Transport
/// stage time, or zeros for a workload that does not use the network.
pub fn layer_net(run: &mut Run, net: Option<(NetStats, &[f64])>) {
    let (stats, transport_us) = net.unwrap_or_default();
    run.layer("net.transport_us", mean(transport_us), "us", transport_us.len());
    run.layer("net.requests", stats.requests as f64, "count", 1);
    run.layer("net.refused", stats.refused as f64, "count", 1);
}

/// Load-generator validity: how late the open-loop generator sent (0
/// for a closed loop, which has no schedule), and its thread count.
pub fn layer_loadgen(run: &mut Run, late_p99_ms: f64) {
    run.layer("loadgen.late_p99_ms", late_p99_ms, "ms", 1);
    run.layer("loadgen.threads", 1.0, "count", 1);
}

/// Write the chrome trace of this run (program spans, machine timelines
/// and the benchmark's spans) and return its path.
pub fn write_chrome(ctx: &Ctx<'_>, name: &str) -> std::io::Result<std::path::PathBuf> {
    let program = ddrs_trace::Trace::capture().export_chrome(&ctx.timeline);
    let path = ctx.out.join(format!("{name}-{}.trace.json", ctx.seed));
    std::fs::write(&path, crate::spans::chrome_export(&program))?;
    Ok(path)
}
