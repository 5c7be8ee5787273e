//! Metrics, percentiles, provenance and the result line.

use std::fmt::Write as _;
use std::path::Path;

use scrub_bench::experiments::e09_central_scale::CoreSignals;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` values.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it: `(percentile, value, samples beyond)`. With fewer than
/// eleven samples it falls back to the median.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];
    let n = sorted.len();
    let p = LADDER
        .into_iter()
        .find(|p| beyond(n, *p) >= 10)
        .unwrap_or(50.0);
    (p, nearest_rank(sorted, p), beyond(n, p))
}

/// Sort a sample for percentile queries.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The median of a sample.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        assert!(x.value.is_finite(), "metric {} is not finite", x.name);
        if i > 0 {
            m.push_str(", ");
        }
        write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The three core-count signals E09 detects, plus the effective count.
pub fn core_signals_json() -> String {
    let s = CoreSignals::detect();
    let opt = |o: Option<usize>| o.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"available_parallelism\": {}, \"cpuinfo\": {}, \"cgroup_quota\": {}, \"effective\": {}}}",
        s.available_parallelism,
        opt(s.cpuinfo),
        opt(s.cgroup_quota),
        s.effective()
    )
}

/// The commit the benchmark runs on: `git rev-parse HEAD` when the
/// working directory is a git checkout, else "unavailable".
pub fn git_sha() -> String {
    if !Path::new(".git").exists() {
        return "unavailable".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a digest over the paths and contents of every `.rs` and `.toml`
/// file under `crates/` and `perfbench/`: identifies the measured source
/// even in a checkout without git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target" && n != "out") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    if files.is_empty() {
        return "unavailable".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = sorted((1..=1000).map(f64::from));
        assert_eq!(tail(&v), (99.0, 990.0, 10));
        let v = sorted((1..=40).map(f64::from));
        assert_eq!(tail(&v).0, 75.0);
        assert_eq!(tail(&v).2, 10);
        let v = sorted((1..=5).map(f64::from));
        assert_eq!(tail(&v), (50.0, 3.0, 2));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("x", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
