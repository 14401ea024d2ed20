//! The benchmark's own spans around each layer call it makes, on the
//! program's span clock (`ddrs_trace::now_ns`), so they line up with the
//! program's stage spans and machine timelines in one chrome trace.
//!
//! Recording is live only in the traced build: without it `now_ns` is
//! always 0 and nothing is kept.

use std::sync::Mutex;

use ddrs_trace::now_ns;

/// Spans kept per name; later ones are dropped so memory stays bounded
/// and a per-request span cannot crowd out the layer calls.
const MAX_PER_NAME: usize = 10_000;

struct Span {
    name: &'static str,
    tid: u64,
    t0_ns: u64,
    t1_ns: u64,
}

/// Recorded spans, and how many were recorded per name.
struct Recorder {
    spans: Vec<Span>,
    counts: Vec<(&'static str, usize)>,
}

static RECORDER: Mutex<Recorder> = Mutex::new(Recorder { spans: Vec::new(), counts: Vec::new() });

/// Record a closed span `name` on row `tid` from `t0_ns` to now.
pub fn record(name: &'static str, tid: u64, t0_ns: u64) {
    if !ddrs_trace::enabled() {
        return;
    }
    let t1_ns = now_ns();
    let mut rec = RECORDER.lock().expect("span recorder poisoned by a panicking thread");
    let i = match rec.counts.iter().position(|(n, _)| *n == name) {
        Some(i) => i,
        None => {
            rec.counts.push((name, 0));
            rec.counts.len() - 1
        }
    };
    if rec.counts[i].1 < MAX_PER_NAME {
        rec.counts[i].1 += 1;
        rec.spans.push(Span { name, tid, t0_ns, t1_ns });
    }
}

/// Run `f` inside a span `name` on row 0.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = now_ns();
    let r = f();
    record(name, 0, t0);
    r
}

/// Durations in µs of every captured program stage slice named
/// `stage`, from the program's own span events.
pub fn stage_durations_us(trace: &ddrs_trace::Trace, stage: ddrs_trace::Stage) -> Vec<f64> {
    use ddrs_trace::EventKind;
    let mut open: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut out = Vec::new();
    for ev in trace.events.iter().filter(|e| e.stage == stage) {
        match ev.kind {
            EventKind::Begin => {
                open.insert(ev.span.0, ev.t_ns);
            }
            EventKind::End => {
                if let Some(t0) = open.remove(&ev.span.0) {
                    out.push(ev.t_ns.saturating_sub(t0) as f64 / 1e3);
                }
            }
        }
    }
    out
}

/// One chrome trace-event document: the program's export (request
/// stage spans under pid 1, machine timelines under pid 2) plus the
/// benchmark's spans under pid 3, one row per `tid`.
pub fn chrome_export(program: &str) -> String {
    let rec = RECORDER.lock().expect("span recorder poisoned by a panicking thread");
    let ours: Vec<String> = rec
        .spans
        .iter()
        .map(|s| {
            format!(
                r#"{{"name":"bench:{}","ph":"X","pid":3,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                s.name,
                s.tid,
                s.t0_ns as f64 / 1e3,
                s.t1_ns.saturating_sub(s.t0_ns) as f64 / 1e3
            )
        })
        .collect();
    let inner = program
        .trim_end()
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .unwrap_or("")
        .trim();
    let mut all: Vec<&str> = Vec::with_capacity(ours.len() + 1);
    if !inner.is_empty() {
        all.push(inner);
    }
    all.extend(ours.iter().map(String::as_str));
    format!("{{\"traceEvents\":[\n{}\n]}}\n", all.join(",\n"))
}
