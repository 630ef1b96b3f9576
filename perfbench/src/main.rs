//! The benchmark of the zsl workspace: seeded workloads run against the
//! public APIs of `zsl-mat`, `zsl-core` and `zsl-serve`.
//!
//! ```text
//! zsl-perfbench --workload <offline-eszsl|offline-families|serve-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. Prints a table of the workload's
//! metrics, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The full record (host and commit
//! fingerprint, every metric with its sample count and quartiles) is written
//! to `.bench_results/`; a traced run also writes its spans there. Exits 1
//! when a correctness check or a call into the program fails, 2 on bad
//! arguments.

mod gen;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub type R<T> = Result<T, String>;

/// Repeats of a cheap set-up call (opening a bundle, booting the daemon),
/// half before the measured work and half after it; `setup_s` is the median
/// of the calm ones (see [`SetupTimer`]).
pub const SETUP_REPEATS: usize = 15;

/// Each timed set-up call gets a slot at least this long, so the host CPU
/// stolen around it can be read (`/proc/stat` counts in 10 ms ticks).
const SETUP_SLOT: Duration = Duration::from_millis(200);

/// Durations of repeated set-up calls, and the host CPU stolen in the slot
/// around each.
///
/// How fast this host runs one thread drifts by up to 2× over tens of
/// seconds (other tenants on the same cores), and calls made back to back
/// all see the same speed; so a workload times half of its set-up calls
/// before its measured work and half after it.
#[derive(Default)]
pub struct SetupTimer {
    durations_s: Vec<f64>,
    steal_pct: Vec<Option<f64>>,
}

impl SetupTimer {
    /// Time `call`, then wait out the rest of its slot.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let ticks = report::cpu_ticks();
        let slot = Instant::now();
        let out = call();
        self.durations_s.push(slot.elapsed().as_secs_f64());
        if let Some(rest) = SETUP_SLOT.checked_sub(slot.elapsed()) {
            std::thread::sleep(rest);
        }
        self.steal_pct
            .push(report::steal_pct(ticks, report::cpu_ticks()));
        out
    }

    /// Time `call` `repeats` (at least 1) times; return the last result.
    pub fn repeat<T>(&mut self, repeats: usize, mut call: impl FnMut() -> R<T>) -> R<T> {
        let mut last = None;
        for _ in 0..repeats.max(1) {
            last = Some(self.time(&mut call)?);
        }
        Ok(last.expect("at least one repeat"))
    }

    /// Make the calls in the calm slots (see [`stats::calm_windows`]) the
    /// run's set-up times.
    pub fn finish(self, outcome: &mut report::Outcome) {
        outcome.setup_s = stats::calm_windows(&self.steal_pct)
            .into_iter()
            .map(|i| self.durations_s[i])
            .collect();
    }
}

/// What a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for generated inputs, removed after the run.
    pub work: PathBuf,
}

/// Map an error from a named call into the run's error text.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn median(values: &[f64]) -> f64 {
    stats::Summary::of(values).median
}

/// A workload fills in the outcome as it goes; an `Err` is a failed call
/// into the program, reported with whatever the outcome holds by then.
type Workload = fn(&Ctx, &mut report::Outcome) -> R<()>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("offline-eszsl", offline::eszsl),
    ("offline-families", offline::families),
    ("serve-mixed", serve::mixed),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> R<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> R<&str> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(err("--seconds"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(err("--seed"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zsl-perfbench: {e}");
            eprintln!(
                "usage: zsl-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|(w, _)| w).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some((_, workload)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("zsl-perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let root = std::env::current_dir().expect("current directory");
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let tag = format!(
        "{}-seed{}-trace{}-{stamp}",
        args.workload, args.seed, args.trace as u8
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: root
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id())),
    };
    let mut outcome = report::Outcome::default();
    let ticks = report::cpu_ticks();
    let result = workload(&ctx, &mut outcome);
    let steal = report::steal_pct(ticks, report::cpu_ticks());
    std::fs::remove_dir_all(&ctx.work).ok();
    if let Err(e) = result {
        eprintln!("zsl-perfbench: {} failed: {e}", args.workload);
        outcome.failed = outcome.failed.max(1);
        outcome.failures.push(e);
    }

    let headline = report::headline(&outcome, args.trace);
    let run = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"steal_pct\":{}}}",
        report::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        steal.map_or("null".into(), report::json_num)
    );
    if let Err(e) = save(&root, &tag, &run, &outcome, &headline) {
        eprintln!("zsl-perfbench: could not write results: {e}");
    }
    if let Some(steal) = steal {
        println!("host CPU stolen during the run: {steal:.1}%");
    }
    print!("{}", report::table(&outcome, &headline));
    println!("{}", report::result_line(&outcome, &headline));
    if outcome.failures.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn save(
    root: &Path,
    tag: &str,
    run: &str,
    outcome: &report::Outcome,
    headline: &[(String, f64, &str)],
) -> std::io::Result<()> {
    let dir = root.join(".bench_results");
    std::fs::create_dir_all(&dir)?;
    let record = report::record_json(run, &report::host_json(root), outcome, headline);
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, record)?;
    println!("record: {}", path.display());
    if !outcome.spans.is_empty() {
        let spans = dir.join(format!("{tag}.spans.tsv"));
        trace::write_tsv(&outcome.spans, &spans)?;
        println!("spans: {}", spans.display());
    }
    Ok(())
}
