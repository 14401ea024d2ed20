//! The repository benchmark. Three workloads drive the public API of
//! the serving stack and check every answer against the sequential
//! oracle:
//!
//! * `scan-batch` — 128-read requests, closed loop, S=1 × p=2;
//! * `serve-remote` — single reads over TCP, open loop at 6,000 req/s;
//! * `ingest-recover` — writes beside reads, then a crash and a heal.
//!
//! ```text
//! ddrs-perfbench --workload <name> --seed <n> --seconds <s> --out <dir>
//!                [--rev <text>] [--baseline-p50-ms <ms>]
//! ```
//!
//! The untraced build prints the end-to-end metrics in its final JSON
//! line; the build with `--features trace` prints the per-layer ones.
//! `perfbench/run.py` builds both and picks one; see
//! `perfbench/README.md` for the metric definitions.

mod common;
mod ingest;
mod probe;
mod report;
mod scan;
mod serve;
mod spans;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Ctx;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    out: PathBuf,
    rev: String,
    baseline_p50_ms: Option<f64>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        out: PathBuf::from("perfbench/out"),
        rev: "unknown".into(),
        baseline_p50_ms: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--out" => args.out = PathBuf::from(val),
            "--rev" => args.rev = val,
            "--baseline-p50-ms" => args.baseline_p50_ms = Some(val.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let runner = match args.workload.as_str() {
        "scan-batch" => scan::run,
        "serve-remote" => serve::run,
        "ingest-recover" => ingest::run,
        w => {
            eprintln!("error: unknown workload {w:?} (scan-batch, serve-remote, ingest-recover)");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    common::quiet_injected_panics();
    let traced = cfg!(feature = "trace");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        out: &args.out,
        timeline: Vec::new(),
        threads: 0,
        store_mb: 0.0,
        connections: 0,
    };
    let steal0 = sys::steal_ms();
    let mut run = runner(&mut ctx);
    let steal_ms = sys::steal_ms() - steal0;
    run.e2e("peak_rss_mb", sys::peak_rss_mb(), "MiB", 1);

    if traced {
        let p50 = run.e2e.iter().find(|m| m.name == "p50_ms").map_or(0.0, |m| m.value);
        let overhead = args.baseline_p50_ms.map_or(0.0, |base| (p50 / base - 1.0) * 100.0);
        run.layer("trace.overhead_pct", overhead, "%", 1);
        match args.baseline_p50_ms {
            Some(base) => run.notes.push(format!(
                "trace overhead: traced p50 {p50} ms vs untraced p50 {base} ms = {overhead:+.2}%"
            )),
            None => {
                run.notes.push("trace overhead: no untraced baseline given, reported as 0".into())
            }
        }
        match workload::write_chrome(&ctx, &args.workload) {
            Ok(path) => run.notes.push(format!("chrome trace: {}", path.display())),
            Err(e) => {
                eprintln!("error: writing the chrome trace: {e}");
                run.check(false);
            }
        }
    }

    let nproc = sys::nproc();
    let program_threads = ctx.threads.saturating_sub(1);
    let (l2, llc) = (sys::cache_bytes(2) as f64 / 1048576.0, sys::llc_bytes() as f64 / 1048576.0);
    run.host_str("workload", &args.workload);
    run.host("seed", args.seed);
    run.host("seconds", args.seconds);
    run.host("nproc", nproc);
    run.host_str("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    run.host_str("features", if traced { "trace" } else { "" });
    run.host_str("rev", &args.rev);
    run.host("load_threads", 1);
    run.host("connections", ctx.connections);
    run.host("program_threads", program_threads);
    run.host("oversubscribed", program_threads > nproc as u64);
    run.host("steal_ms", steal_ms);
    run.host("store_mb", ctx.store_mb);
    run.host("l2_mb", l2);
    run.host("llc_mb", llc);
    run.host("store_vs_l2", if l2 > 0.0 { ctx.store_mb / l2 } else { 0.0 });
    run.host("store_vs_llc", if llc > 0.0 { ctx.store_mb / llc } else { 0.0 });
    run.print(traced);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
