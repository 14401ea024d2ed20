//! What one run measured, and how it is printed: one human-readable
//! line per metric (with its sample count), a host block, and the final
//! JSON line.

/// One measured metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a
    /// count).
    pub samples: usize,
}

/// What completed in one window of a run's measured span.
#[derive(Default, Clone)]
pub struct Window {
    pub secs: f64,
    /// Latencies of the requests that completed in the window.
    pub lat_ms: Vec<f64>,
    /// Requests completed correctly.
    pub requests: f64,
    /// Read queries answered.
    pub queries: f64,
    /// Points that crossed the API: reported ids, inserted points and
    /// deleted ids.
    pub points: f64,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Run {
    /// Operations whose answers were checked (requests, verification
    /// reads, recoveries).
    pub attempted: u64,
    /// Of those, failed, refused, expired or wrong.
    pub failed: u64,
    pub e2e: Vec<Metric>,
    /// End-to-end metrics printed for reading but left out of the
    /// result object: the latency tail, whose run-to-run spread on a
    /// shared host is wider than any useful regression bound.
    pub shown: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Free-form lines printed before the metrics (cross-checks, notes).
    pub notes: Vec<String>,
    /// Host and provenance facts, as `(key, JSON value)`.
    pub host: Vec<(&'static str, String)>,
}

impl Run {
    /// Count one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric { name, value, unit, samples });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layer.push(Metric { name, value, unit, samples });
    }

    /// `p50_ms`, `p90_ms` and `p99_ms`: each the median across windows
    /// of that quantile within the window, so a stall confined to a few
    /// windows does not move it. Only `p50_ms` goes into the result
    /// object.
    pub fn window_latencies(&mut self, windows: &[Window]) {
        let n = windows.iter().map(|w| w.lat_ms.len()).sum();
        for (name, q) in [("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)] {
            let per: Vec<f64> = windows
                .iter()
                .filter(|w| !w.lat_ms.is_empty())
                .map(|w| {
                    let mut v = w.lat_ms.clone();
                    v.sort_by(f64::total_cmp);
                    quantile(&v, q)
                })
                .collect();
            let m = Metric { name, value: median(&per), unit: "ms", samples: n };
            if name == "p50_ms" {
                self.e2e.push(m);
            } else {
                self.shown.push(m);
            }
        }
    }

    /// `queries_per_s`, `achieved_rps` and `points_per_s`: each the
    /// median across windows of the window's rate.
    pub fn window_rates(&mut self, windows: &[Window]) {
        let n = windows.iter().map(|w| w.requests).sum::<f64>() as usize;
        let rate = |f: fn(&Window) -> f64| {
            median(&windows.iter().map(|w| f(w) / w.secs).collect::<Vec<_>>())
        };
        self.e2e("queries_per_s", rate(|w| w.queries), "1/s", n);
        self.e2e("achieved_rps", rate(|w| w.requests), "1/s", n);
        self.e2e("points_per_s", rate(|w| w.points), "1/s", n);
    }

    pub fn host(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.host.push((key, value.to_string()));
    }

    pub fn host_str(&mut self, key: &'static str, value: &str) {
        self.host.push((key, json_str(value)));
    }

    /// Print everything; the last line is the result object.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("note  {n}");
        }
        for (kind, list) in [("e2e", &self.e2e), ("e2e", &self.shown), ("layer", &self.layer)] {
            for m in list {
                println!("{kind:5} {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
            }
        }
        let error_rate =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        println!("e2e   error_rate = {error_rate} ratio (n={})", self.attempted);
        let host: Vec<String> = self.host.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        println!("host  {{{}}}", host.join(","));
        let shown = if traced { &self.layer } else { &self.e2e };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// A JSON number; non-finite values (a ratio over an empty base) print
/// as 0, which the notes explain.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Quantile of an ascending slice, interpolating linearly between the
/// two nearest order statistics (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    if i + 1 >= sorted.len() {
        return last;
    }
    sorted[i] + (sorted[i + 1] - sorted[i]) * frac
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
