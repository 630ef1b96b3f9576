//! What a run measured, the host it ran on, and how it is printed.

use crate::stats::Summary;
use crate::trace::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One metric under the name the workload defines: a value, the number of
/// samples it was computed from, and their quartiles when the value is
/// their median.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// The median of `samples`, with their quartiles.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            n: s.n,
            quartiles: Some((s.p25, s.p75)),
        }
    }

    /// One figure for the whole run, computed from `n` samples.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            quartiles: None,
        }
    }

    /// The tail of `samples` at the highest percentile with ten samples
    /// beyond it, named `<what>_p<percentile>_<unit>` (`_max_` when there
    /// are too few samples for any).
    pub fn tail_of(what: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        let at = if s.tail_pct < 100.0 {
            format!("p{}", s.tail_pct)
        } else {
            "max".into()
        };
        Metric::value(format!("{what}_{at}_{unit}"), unit, s.tail, s.n)
    }
}

/// Everything a workload hands back for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Duration of each untraced unit of user work, in ms.
    pub results_ms: Vec<f64>,
    /// Feature rows through the user path per second of measured time.
    pub rows_per_s: f64,
    /// Quality of the answers, in `[0, 1]`.
    pub quality: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
    /// End-to-end metrics under the workload's own names.
    pub native: Vec<Metric>,
    /// Per-layer metrics from the traced passes (empty when untraced).
    pub layers: Vec<Metric>,
    /// Each layer's share of the user path's time, in percent, as self time
    /// of the spans around its public calls (see [`LAYERS`]).
    pub layer_pct: BTreeMap<&'static str, f64>,
    /// Traced minus untraced time of the same work, as a share of untraced.
    pub overhead_pct: f64,
    /// Every span the traced passes recorded.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Layers whose share of the user path the traced result line carries,
/// named as the spans around their public calls are. Layers reached only
/// by replays and probes (`mat.*`, `core.model`, `core.linalg`), in set-up
/// (`serve.model`) or the benchmark's own glue (`bench`) have no share and
/// are reported as absolute figures in the table and record.
pub const LAYERS: [&str; 7] = [
    "core.data",
    "core.trainer",
    "core.eval",
    "core.artifact",
    "core.infer",
    "serve.batch",
    "serve.http",
];

/// The metrics the final result line carries: `(name, value, unit)`.
pub fn headline(outcome: &Outcome, traced: bool) -> Vec<(String, f64, &'static str)> {
    if traced {
        let mut out: Vec<(String, f64, &str)> = LAYERS
            .iter()
            .map(|layer| {
                let share = outcome.layer_pct.get(layer).copied().unwrap_or(0.0);
                (format!("{layer}.self_pct"), share, "%")
            })
            .collect();
        out.push(("trace.overhead_pct".into(), outcome.overhead_pct, "%"));
        return out;
    }
    let results = Summary::of(&outcome.results_ms);
    vec![
        ("setup_s".into(), Summary::of(&outcome.setup_s).median, "s"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
        ("result_p50_ms".into(), results.median, "ms"),
        ("rows_per_s".into(), outcome.rows_per_s, "1/s"),
        ("quality".into(), outcome.quality, "ratio"),
    ]
}

/// `VmHWM` of this process: the most resident memory it has held.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Share of this machine's CPU time the hypervisor gave to others
/// (`steal` in `/proc/stat`) between two [`cpu_ticks`] readings, in percent:
/// a run with a high share measured its host as much as the program.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// Stolen and total CPU clock ticks of this machine so far.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Host and commit fingerprint recorded with every result.
pub fn host_json(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let run = |program: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(program)
            .args(args)
            .current_dir(root)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rustc = run("rustc", &["-V"]).unwrap_or_default();
    // Only the checkout's own repository names its commit, never one that
    // happens to enclose it.
    let commit = root
        .join(".git")
        .exists()
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten();
    let dirty = commit
        .is_some()
        .then(|| run("git", &["status", "--porcelain", "--untracked-files=no"]))
        .flatten()
        .map(|s| (!s.is_empty()).to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\"dirty\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        commit.as_deref().map_or("null".into(), json_str),
        dirty.unwrap_or_else(|| "null".into()),
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise, which no consumer accepts as
/// a measurement).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let quartiles = m.quartiles.map_or("null".into(), |(a, b)| {
                format!("[{},{}]", json_num(a), json_num(b))
            });
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"quartiles\":{quartiles}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.n,
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(outcome: &Outcome, headline: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = headline
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failures.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// The full record of a run, kept in `.bench_results/` for the compare tool.
pub fn record_json(
    run: &str,
    host: &str,
    outcome: &Outcome,
    headline: &[(String, f64, &str)],
) -> String {
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"run\":{run},\"host\":{host},\"result\":{},\"failures\":[{}],\"native\":{},\"layers\":{},\"setup_s\":[{}]}}\n",
        result_line(outcome, headline),
        failures.join(","),
        metrics_json(&outcome.native),
        metrics_json(&outcome.layers),
        outcome
            .setup_s
            .iter()
            .map(|v| json_num(*v))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// Human-readable table of a run's metrics.
pub fn table(outcome: &Outcome, headline: &[(String, f64, &str)]) -> String {
    let mut out = String::new();
    let mut section = |title: &str, metrics: &[Metric]| {
        if metrics.is_empty() {
            return;
        }
        writeln!(out, "{title}").expect("String");
        writeln!(
            out,
            "  {:<34} {:>16} {:<6} {:>7} {:>16} {:>16}",
            "metric", "value", "unit", "n", "p25", "p75"
        )
        .expect("String");
        for m in metrics {
            let (p25, p75) = m
                .quartiles
                .map_or((String::from("-"), String::from("-")), |(a, b)| {
                    (format!("{a:.6}"), format!("{b:.6}"))
                });
            writeln!(
                out,
                "  {:<34} {:>16.6} {:<6} {:>7} {:>16} {:>16}",
                m.name, m.value, m.unit, m.n, p25, p75
            )
            .expect("String");
        }
    };
    section("end-to-end (workload names)", &outcome.native);
    section("per-layer (traced)", &outcome.layers);
    writeln!(out, "result line metrics").expect("String");
    for (name, value, unit) in headline {
        writeln!(out, "  {name:<34} {value:>14.6} {unit}").expect("String");
    }
    writeln!(
        out,
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    )
    .expect("String");
    for f in &outcome.failures {
        writeln!(out, "CHECK FAILED: {f}").expect("String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_stolen_share_of_the_ticks_between_readings() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((30, 1200))), Some(10.0));
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(steal_pct(None, Some((10, 1000))), None);
    }
}
