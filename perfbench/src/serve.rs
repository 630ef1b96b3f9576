//! The `serve-mixed` workload: an in-process `zsl-serve` daemon booted from a
//! generated `.zsm`, loaded by two keep-alive connections at once, both
//! open-loop at fixed rates well below what the daemon serves on two cores:
//!
//! - `interactive`: single-row `/predict` requests at [`INTERACTIVE_RATE`];
//! - `bulk`: 32-row `/predict?k=5` requests at [`BULK_RATE`].
//!
//! Each request is timed from when it was due, so a stall counts against
//! every request queued behind it. Neither client saturates the host, so the
//! latencies measure the request path rather than how the clients and the
//! daemon share the cores.
//!
//! Request bytes and expected responses are rendered before set-up, so the
//! load generator neither scores nor formats floats while timed. Set-up is
//! `Server::start` alone, half of the boots before the traffic and half
//! after it.
//!
//! The recorded time is cut into windows of about [`WINDOW`]; the
//! end-to-end figures come from the requests due in the calm ones, by host
//! CPU stolen (see [`stats::calm_windows`]); the table also shows figures
//! over every request.

use crate::gen::{self, ModelShape};
use crate::report::{self, Metric, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{err, median, Ctx, SetupTimer, R, SETUP_REPEATS};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zsl_core::{Matrix, Rng, ScoringEngine, TopK};
use zsl_serve::{
    BatchConfig, BootOptions, Coalescer, ModelHandle, ServeStats, Server, ServerConfig,
    StatsSnapshot,
};

/// d = 512 features, a = 85 attributes, a cosine bank of 1000 classes.
const MODEL: ModelShape = ModelShape {
    feature_dim: 512,
    attr_dim: 85,
    classes: 1000,
};
/// Well under one connection's capacity (a few thousand requests/s).
const INTERACTIVE_RATE: f64 = 200.0;
/// 640 rows/s. A bulk request takes about 4.5 ms on two cores, so the
/// daemon is busy with bulk work a tenth of the time and most interactive
/// requests find it idle; a closed-loop bulk client kept both cores busy and
/// made interactive latency a measure of how the threads shared them.
const BULK_RATE: f64 = 20.0;
/// Bulk requests are due half an interactive interval after an interactive
/// one, so each overlaps the next interactive request whether it takes 3 or
/// 7 ms: one interactive request in ten waits behind bulk work. Due at the
/// same instant, a bulk request slowed past 5 ms by a busy host caught a
/// second one, and the interactive median jumped between the two groups.
const BULK_OFFSET: Duration = Duration::from_micros(2500);
const BULK_ROWS: usize = 32;
const BULK_K: usize = 5;
const INTERACTIVE_CORPUS: usize = 512;
const BULK_CORPUS: usize = 64;
/// Traffic before this is sent but not recorded.
const WARMUP: Duration = Duration::from_secs(1);
/// Length of the windows whose stolen host CPU is read.
const WINDOW: Duration = Duration::from_secs(1);
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// The interactive generator sleeps until this long before a request is
/// due, then spins, so sleep overshoot does not become lateness.
const SPIN: Duration = Duration::from_micros(150);
/// Repeats of each single-shot probe in a traced run.
const PROBE_REPEATS: usize = 3;
const TOPK_PROBE_ROWS: usize = 256;

/// Open-loop send times: request `i` is due `i / rate` after `start`.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    fn due(&self, i: u32) -> Instant {
        self.start + self.interval * i
    }

    /// Sleep, then spin, until `due`.
    fn wait_for(due: Instant) {
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// An open-loop request's latency, from when it was due (not when it went
/// out) to its reply, and how late the generator sent it.
fn open_loop_sample(due: Instant, sent: Instant, done: Instant) -> (Duration, Duration) {
    (
        done.saturating_duration_since(due),
        sent.saturating_duration_since(due),
    )
}

/// One pre-rendered request with the rankings its rows must get back.
struct Request {
    http: Vec<u8>,
    /// The response body the daemon must send (model generation 1).
    body: String,
    rows: Vec<Vec<f64>>,
    expected: Vec<TopK>,
}

struct Corpus {
    interactive: Vec<Request>,
    bulk: Vec<Request>,
}

fn render_request(rows: &[Vec<f64>], query: &str) -> Vec<u8> {
    let body: String = rows
        .iter()
        .map(|row| {
            let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            line.join(",") + "\n"
        })
        .collect();
    format!(
        "POST /predict{query} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `class=<c> generation=1 topk=<c>:<s>,…` per row, as the daemon renders it.
fn render_body(expected: &[TopK]) -> String {
    expected
        .iter()
        .map(|t| {
            let ranked: Vec<String> = t
                .classes
                .iter()
                .zip(&t.scores)
                .map(|(c, s)| format!("{c}:{s}"))
                .collect();
            format!(
                "class={} generation=1 topk={}\n",
                t.classes[0],
                ranked.join(",")
            )
        })
        .collect()
}

fn build_corpus(model_path: &Path, seed: u64) -> R<Corpus> {
    // Expectations come from the artifact as the daemon loads it.
    let engine = ScoringEngine::load(model_path).map_err(err("ScoringEngine::load"))?;
    let mut rng = Rng::new(seed ^ 0xC0_4905);
    let mut make = |requests: usize, rows: usize, k: usize, query: &str| {
        let x = gen::feature_rows(requests * rows, MODEL.feature_dim, &mut rng);
        let ranked = engine.predict_topk(&x, BULK_K);
        (0..requests)
            .map(|r| {
                let rows_of: Vec<Vec<f64>> = (r * rows..(r + 1) * rows)
                    .map(|i| x.row(i).to_vec())
                    .collect();
                let expected: Vec<TopK> = ranked[r * rows..(r + 1) * rows]
                    .iter()
                    .map(|t| TopK {
                        classes: t.classes[..k].to_vec(),
                        scores: t.scores[..k].to_vec(),
                    })
                    .collect();
                Request {
                    http: render_request(&rows_of, query),
                    body: render_body(&expected),
                    rows: rows_of,
                    expected,
                }
            })
            .collect()
    };
    let interactive = make(INTERACTIVE_CORPUS, 1, 1, "");
    let bulk = make(BULK_CORPUS, BULK_ROWS, BULK_K, "?k=5");
    Ok(Corpus { interactive, bulk })
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request; return whether the status was 200, and the body.
    fn call(&mut self, request: &[u8]) -> std::io::Result<(bool, String)> {
        use std::io::{Error, ErrorKind};
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let ok = line.starts_with("HTTP/1.1 200 ");
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "eof in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("Content-Length:") {
                length = v.trim().parse::<usize>().ok();
            }
        }
        let length =
            length.ok_or_else(|| Error::new(ErrorKind::InvalidData, "no content-length"))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
        Ok((ok, body))
    }
}

/// What one client thread saw during a phase.
#[derive(Default)]
struct ClientLog {
    /// When each recorded request was due, after recording began.
    due_s: Vec<f64>,
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(what);
        }
    }
}

/// Where a phase sends its requests: over HTTP, or straight into a
/// coalescer.
#[derive(Clone, Copy)]
enum Target<'a> {
    Http(SocketAddr),
    Coalescer(&'a Coalescer),
}

impl<'a> Target<'a> {
    fn connect(self) -> Result<Client<'a>, String> {
        match self {
            Target::Http(addr) => Conn::open(addr)
                .map(Client::Http)
                .map_err(|e| format!("connect: {e}")),
            Target::Coalescer(c) => Ok(Client::Direct(c)),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Target::Http(_) => "serve.http.request",
            Target::Coalescer(_) => "serve.batch.predict",
        }
    }
}

/// One client's path to the scorer.
enum Client<'a> {
    Http(Conn),
    Direct(&'a Coalescer),
}

impl Client<'_> {
    /// One request's round trip; `Err` describes a failed operation.
    fn round_trip(&mut self, req: &Request, k: usize) -> Result<(), String> {
        match self {
            Client::Http(conn) => {
                let (ok, body) = conn
                    .call(&req.http)
                    .map_err(|e| format!("request failed: {e}"))?;
                if !ok {
                    return Err(format!("non-200 response: {}", body.trim_end()));
                }
                if body != req.body {
                    return Err(format!(
                        "response mismatch: got {:?}, expected {:?}",
                        truncate(&body),
                        truncate(&req.body)
                    ));
                }
            }
            Client::Direct(coalescer) => {
                let replies: Vec<_> = req
                    .rows
                    .iter()
                    .map(|row| coalescer.enqueue(row.clone(), k))
                    .collect();
                for (reply, expected) in replies.into_iter().zip(&req.expected) {
                    let got = reply
                        .recv_timeout(REPLY_TIMEOUT)
                        .map_err(|e| format!("no reply: {e}"))?
                        .map_err(|e| format!("coalescer error: {e}"))?;
                    if got.class != expected.classes[0] || got.topk != *expected {
                        return Err(format!(
                            "coalescer result mismatch: {got:?} vs {expected:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(120)]
}

/// One open-loop client: send `requests` in turn on `schedule` until `end`,
/// recording requests due from `record_from` on.
fn open_loop(
    target: Target,
    requests: &[Request],
    k: usize,
    schedule: Schedule,
    record_from: Instant,
    end: Instant,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match target.connect() {
        Ok(c) => c,
        Err(e) => {
            log.fail(e);
            return log;
        }
    };
    for i in 0.. {
        let due = schedule.due(i);
        if due >= end {
            break;
        }
        Schedule::wait_for(due);
        let req = &requests[i as usize % requests.len()];
        let sent = Instant::now();
        log.attempted += 1;
        let result = {
            let mut span = tracer.span(target.span());
            span.items(req.rows.len() as u64);
            client.round_trip(req, k)
        };
        let done = Instant::now();
        if let Err(e) = result {
            log.fail(e);
            break;
        }
        if due >= record_from {
            let (latency, lateness) = open_loop_sample(due, sent, done);
            log.due_s.push((due - record_from).as_secs_f64());
            log.latency_us.push(latency.as_secs_f64() * 1e6);
            log.lateness_us.push(lateness.as_secs_f64() * 1e6);
        }
    }
    log
}

/// Host CPU ticks at the bounds of `windows` windows of `width` from
/// `from` on.
fn window_ticks(from: Instant, width: Duration, windows: u32) -> Vec<Option<(u64, u64)>> {
    (0..=windows)
        .map(|w| {
            let at = from + width * w;
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            report::cpu_ticks()
        })
        .collect()
}

/// What both clients of a mix saw, and which windows of its recorded time
/// were calm.
struct Mix {
    interactive: ClientLog,
    bulk: ClientLog,
    window_s: f64,
    /// Host CPU stolen in each window, in percent.
    steal_pct: Vec<Option<f64>>,
    calm: Vec<usize>,
}

impl Mix {
    /// Latencies of `log`'s requests due in the calm windows.
    fn calm_latency_us(&self, log: &ClientLog) -> Vec<f64> {
        let last = self.steal_pct.len().saturating_sub(1);
        log.due_s
            .iter()
            .zip(&log.latency_us)
            .filter(|(due, _)| {
                let window = ((*due / self.window_s) as usize).min(last);
                self.calm.binary_search(&window).is_ok()
            })
            .map(|(_, latency)| *latency)
            .collect()
    }

    /// Mean host CPU stolen over the windows `which`, in percent.
    fn mean_steal_pct(&self, which: impl Iterator<Item = usize>) -> f64 {
        let shares: Vec<f64> = which.filter_map(|w| self.steal_pct[w]).collect();
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }
}

/// Run the interactive and bulk clients against `target` for `duration`,
/// recording after `warmup`.
fn run_mix(
    target: Target,
    corpus: &Corpus,
    warmup: Duration,
    duration: Duration,
    tracer: &Tracer,
) -> Mix {
    let start = Instant::now();
    let (record_from, end) = (start + warmup, start + duration);
    let recorded = duration.saturating_sub(warmup);
    let windows = (recorded.as_secs_f64() / WINDOW.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let width = recorded / windows;
    let (interactive, bulk, ticks) = std::thread::scope(|scope| {
        let interactive = scope.spawn(|| {
            let schedule = Schedule::new(start, INTERACTIVE_RATE);
            open_loop(
                target,
                &corpus.interactive,
                1,
                schedule,
                record_from,
                end,
                tracer,
            )
        });
        let bulk = scope.spawn(|| {
            let schedule = Schedule::new(start + BULK_OFFSET, BULK_RATE);
            open_loop(
                target,
                &corpus.bulk,
                BULK_K,
                schedule,
                record_from,
                end,
                tracer,
            )
        });
        let ticks = scope.spawn(|| window_ticks(record_from, width, windows));
        (
            interactive.join().expect("interactive client panicked"),
            bulk.join().expect("bulk client panicked"),
            ticks.join().expect("steal sampler panicked"),
        )
    });
    let steal_pct: Vec<Option<f64>> = ticks
        .windows(2)
        .map(|w| report::steal_pct(w[0], w[1]))
        .collect();
    Mix {
        interactive,
        bulk,
        window_s: width.as_secs_f64(),
        calm: stats::calm_windows(&steal_pct),
        steal_pct,
    }
}

struct Setup {
    model_path: PathBuf,
    corpus: Corpus,
    server: Server,
}

/// Boot the daemon `repeats` times, timing each `Server::start` through
/// `timer`; return the last boot.
fn boot(model_path: &Path, timer: &mut SetupTimer, repeats: usize) -> R<Server> {
    let mut server = None;
    // Stopping a daemon waits out its artifact watcher's poll interval, so
    // each earlier boot is stopped on a thread of its own; all have stopped
    // when the scope ends.
    std::thread::scope(|scope| {
        for _ in 0..repeats.max(1) {
            if let Some(earlier) = server.take() {
                scope.spawn(move || drop(earlier));
            }
            let booted = timer.time(|| Server::start(model_path, ServerConfig::default()));
            server = Some(booted.map_err(err("Server::start"))?);
        }
        Ok::<_, String>(())
    })?;
    Ok(server.expect("at least one boot"))
}

/// Generate the model and the corpus (untimed), then boot the daemon the
/// first half of [`SETUP_REPEATS`] times; keep the last boot.
fn setup(ctx: &Ctx, timer: &mut SetupTimer) -> R<Setup> {
    std::fs::create_dir_all(&ctx.work).map_err(err("create work dir"))?;
    let model_path = ctx.work.join("model.zsm");
    gen::serving_engine(&MODEL, ctx.seed)
        .save(&model_path)
        .map_err(err("ScoringEngine::save"))?;
    let corpus = build_corpus(&model_path, ctx.seed)?;
    let server = boot(&model_path, timer, SETUP_REPEATS.div_ceil(2))?;
    Ok(Setup {
        model_path,
        corpus,
        server,
    })
}

fn merge(outcome: &mut Outcome, log: &ClientLog) {
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    outcome.failures.extend(log.failures.iter().cloned());
}

fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> (f64, f64, f64, f64) {
    let batches = (after.batches - before.batches) as f64;
    (
        (after.rows - before.rows) as f64 / batches.max(1.0),
        after.max_batch_rows as f64,
        (after.coalesced_batches - before.coalesced_batches) as f64,
        (after.rejected - before.rejected) as f64,
    )
}

pub fn mixed(ctx: &Ctx, outcome: &mut Outcome) -> R<()> {
    let mut timer = SetupTimer::default();
    let s = setup(ctx, &mut timer)?;
    let addr = s.server.addr();
    let seconds = Duration::from_secs_f64(ctx.seconds);
    let off = Tracer::new(false);

    // Untraced: one phase over the whole run. Traced: an untraced phase as
    // the overhead baseline, the same traffic traced, then the same mix
    // replayed straight into a coalescer, each a third of the run.
    let phase = if ctx.trace {
        (seconds.saturating_sub(WARMUP)) / 3
    } else {
        seconds.saturating_sub(WARMUP)
    };
    let before = s.server.stats();
    let mix = run_mix(Target::Http(addr), &s.corpus, WARMUP, WARMUP + phase, &off);
    let after = s.server.stats();
    // The other half of the boots, while the first daemon stands idle.
    let booted = boot(&s.model_path, &mut timer, SETUP_REPEATS / 2);
    timer.finish(outcome);
    drop(booted?);
    let (inter, bulk) = (&mix.interactive, &mix.bulk);
    merge(outcome, inter);
    merge(outcome, bulk);
    let (rows_per_batch, max_batch_rows, coalesced, rejected) = stats_delta(&before, &after);
    outcome.check(
        !inter.latency_us.is_empty() && !bulk.latency_us.is_empty(),
        || "a client recorded no completed requests".into(),
    );
    if !outcome.failures.is_empty() || outcome.failed > 0 {
        return Ok(());
    }
    let calm_inter = mix.calm_latency_us(inter);
    let calm_bulk = mix.calm_latency_us(bulk);
    outcome.check(!calm_inter.is_empty() && !calm_bulk.is_empty(), || {
        "a client recorded no requests in the calm windows".into()
    });
    if !outcome.failures.is_empty() {
        return Ok(());
    }
    outcome.results_ms = calm_inter.iter().map(|us| us / 1e3).collect();
    // The rows a bulk request is answered at: its rows over its median
    // latency. (Rows answered per second is the offered rate.)
    let bulk_rows_per_s = BULK_ROWS as f64 * 1e6 / median(&calm_bulk);
    outcome.rows_per_s = bulk_rows_per_s;
    // Every response matched its expected body: a mismatch returned above.
    outcome.quality = 1.0;
    let windows = mix.steal_pct.len();
    outcome.native = vec![
        Metric::value("calm_windows", "count", mix.calm.len() as f64, windows),
        Metric::value(
            "steal_calm_windows_pct",
            "%",
            mix.mean_steal_pct(mix.calm.iter().copied()),
            mix.calm.len(),
        ),
        Metric::value(
            "steal_all_windows_pct",
            "%",
            mix.mean_steal_pct(0..windows),
            windows,
        ),
        Metric::median_of("interactive_calm_p50_us", "us", &calm_inter),
        Metric::median_of("bulk_calm_p50_us", "us", &calm_bulk),
        Metric::median_of("interactive_p50_us", "us", &inter.latency_us),
        Metric::tail_of("interactive", "us", &inter.latency_us),
        Metric::median_of("bulk_p50_us", "us", &bulk.latency_us),
        Metric::tail_of("bulk", "us", &bulk.latency_us),
        Metric::value(
            "bulk_rows_per_s",
            "1/s",
            bulk_rows_per_s,
            bulk.latency_us.len(),
        ),
        Metric::median_of("interactive_lateness_p50_us", "us", &inter.lateness_us),
        Metric::tail_of("interactive_lateness", "us", &inter.lateness_us),
        Metric::tail_of("bulk_lateness", "us", &bulk.lateness_us),
        Metric::median_of("setup_s", "s", &outcome.setup_s),
    ];
    if !ctx.trace {
        return Ok(());
    }

    let tracer = Tracer::new(true);
    let traced = run_mix(
        Target::Http(addr),
        &s.corpus,
        Duration::ZERO,
        phase,
        &tracer,
    );
    merge(outcome, &traced.interactive);
    merge(outcome, &traced.bulk);
    let stats = Arc::new(ServeStats::new());
    let handle = ModelHandle::boot_with_options(
        &s.model_path,
        stats.clone(),
        BootOptions {
            engine_threads: zsl_core::default_threads(),
            ..BootOptions::default()
        },
    )
    .map_err(err("ModelHandle::boot_with_options"))?;
    let coalescer = Coalescer::start(Arc::new(handle), stats, BatchConfig::default());
    let batched = run_mix(
        Target::Coalescer(&coalescer),
        &s.corpus,
        Duration::ZERO,
        phase,
        &tracer,
    );
    drop(coalescer);
    merge(outcome, &batched.interactive);
    merge(outcome, &batched.bulk);
    let t_inter = traced.calm_latency_us(&traced.interactive);
    let b_inter = batched.calm_latency_us(&batched.interactive);
    let b_bulk = batched.calm_latency_us(&batched.bulk);
    if t_inter.is_empty() || b_inter.is_empty() || b_bulk.is_empty() {
        outcome.check(false, || "a traced phase recorded no requests".into());
        return Ok(());
    }

    let probes = probes(&s, rows_per_batch, &tracer)?;
    // Calm windows only, as the untraced result line.
    let untraced_p50 = median(&calm_inter);
    let traced_p50 = median(&t_inter);
    let batch_p50 = median(&b_inter);
    let kernel_p50 = median(&probes.topk1_us);
    outcome.overhead_pct = 100.0 * (traced_p50 - untraced_p50) / untraced_p50;
    // The median calm interactive request split by nesting: the kernel alone,
    // the coalescer round trip around it, the HTTP round trip around that.
    outcome.layer_pct = [
        ("core.infer", kernel_p50),
        ("serve.batch", batch_p50 - kernel_p50),
        ("serve.http", untraced_p50 - batch_p50),
    ]
    .into_iter()
    .map(|(layer, us)| (layer, 100.0 * us / untraced_p50))
    .collect();
    let one = |name: &str, unit: &'static str, value: f64| Metric::value(name, unit, value, 1);
    outcome.layers = vec![
        Metric::median_of("core.artifact.load_s", "s", &probes.load_s),
        Metric::median_of("serve.model.boot_s", "s", &outcome.setup_s),
        Metric::median_of("serve.model.reload_ms", "ms", &probes.reload_ms),
        Metric::median_of("serve.batch.predict_us", "us", &b_inter),
        Metric::tail_of("serve.batch.predict", "us", &b_inter),
        Metric::median_of("serve.batch.bulk_predict_us", "us", &b_bulk),
        one("serve.batch.rows_per_batch", "rows", rows_per_batch),
        one("serve.batch.max_batch_rows", "rows", max_batch_rows),
        one("serve.batch.coalesced_batches", "count", coalesced),
        one("serve.http.overhead_us", "us", untraced_p50 - batch_p50),
        one("serve.http.rejected", "count", rejected),
        Metric::median_of("core.infer.topk_us_per_row.batch1", "us", &probes.topk1_us),
        Metric::median_of(
            "core.infer.topk_us_per_row.mean_batch",
            "us",
            &probes.topk_mean_us,
        ),
        Metric::median_of("trace.http_p50_us", "us", &t_inter),
        one("trace.overhead_us", "us", traced_p50 - untraced_p50),
    ];
    outcome.spans = tracer.spans();
    Ok(())
}

struct Probes {
    load_s: Vec<f64>,
    reload_ms: Vec<f64>,
    topk1_us: Vec<f64>,
    topk_mean_us: Vec<f64>,
}

/// Artifact load, hot-swap reload (after all traffic, so responses keep
/// generation 1), and the scoring kernel at batch 1 and at the mean batch
/// the daemon formed.
fn probes(s: &Setup, mean_batch: f64, t: &Tracer) -> R<Probes> {
    let mut p = Probes {
        load_s: Vec::new(),
        reload_ms: Vec::new(),
        topk1_us: Vec::new(),
        topk_mean_us: Vec::new(),
    };
    let mut engine = None;
    for _ in 0..PROBE_REPEATS {
        let clock = Instant::now();
        engine = Some(
            t.time("core.artifact.load", || ScoringEngine::load(&s.model_path))
                .map_err(err("ScoringEngine::load"))?,
        );
        p.load_s.push(clock.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("PROBE_REPEATS > 0");
    engine.set_threads(zsl_core::default_threads());
    for _ in 0..PROBE_REPEATS {
        let clock = Instant::now();
        t.time("serve.model.reload", || s.server.model().reload())
            .map_err(err("ModelHandle::reload"))?;
        p.reload_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    let rows: Vec<&Vec<f64>> = s.corpus.bulk.iter().flat_map(|r| &r.rows).collect();
    for (batch, k, out) in [
        (1, 1, &mut p.topk1_us),
        (
            mean_batch.round().max(1.0) as usize,
            BULK_K,
            &mut p.topk_mean_us,
        ),
    ] {
        for i in 0..TOPK_PROBE_ROWS / batch.min(TOPK_PROBE_ROWS) {
            let flat: Vec<f64> = (0..batch)
                .flat_map(|r| rows[(i * batch + r) % rows.len()].iter().copied())
                .collect();
            let x = Matrix::from_vec(batch, MODEL.feature_dim, flat);
            let clock = Instant::now();
            let mut span = t.span("core.infer.topk");
            span.items(batch as u64);
            black_box(engine.predict_topk(&x, k));
            drop(span);
            out.push(clock.elapsed().as_secs_f64() * 1e6 / batch as f64);
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        // The generator was held up 5 ms (a stall ahead of this request):
        // the wait counts in the latency and shows as lateness.
        let (latency, lateness) = open_loop_sample(at(10_000), at(15_000), at(16_000));
        assert_eq!(latency, Duration::from_millis(6));
        assert_eq!(lateness, Duration::from_millis(5));
        // Sent on time.
        let (latency, lateness) = open_loop_sample(at(10_000), at(10_000), at(10_400));
        assert_eq!(
            (latency, lateness),
            (Duration::from_micros(400), Duration::ZERO)
        );
    }

    #[test]
    fn calm_latencies_are_those_due_in_calm_windows() {
        let steal_pct = vec![Some(0.0), Some(20.0), Some(0.5)];
        let log = ClientLog {
            due_s: vec![0.1, 1.5, 2.2, 2.999],
            latency_us: vec![1.0, 2.0, 3.0, 4.0],
            ..ClientLog::default()
        };
        let mix = Mix {
            interactive: ClientLog::default(),
            bulk: ClientLog::default(),
            window_s: 1.0,
            calm: stats::calm_windows(&steal_pct),
            steal_pct,
        };
        assert_eq!(mix.calm, vec![0, 2]);
        assert_eq!(mix.calm_latency_us(&log), vec![1.0, 3.0, 4.0]);
        assert_eq!(mix.mean_steal_pct(0..3), 20.5 / 3.0);
    }

    #[test]
    fn schedule_spaces_requests_at_the_rate() {
        let start = Instant::now();
        let s = Schedule::new(start, 200.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(200) - start, Duration::from_secs(1));
        assert_eq!(s.due(3) - s.due(2), Duration::from_millis(5));
    }

    #[test]
    fn rendered_bodies_match_the_daemon_format() {
        let t = TopK {
            classes: vec![7, 2],
            scores: vec![0.5, -0.25],
        };
        assert_eq!(
            render_body(&[t]),
            "class=7 generation=1 topk=7:0.5,2:-0.25\n"
        );
        let req = String::from_utf8(render_request(&[vec![1.0, -0.5]], "?k=5")).unwrap();
        assert!(req.starts_with("POST /predict?k=5 HTTP/1.1\r\n"));
        assert!(req.ends_with("Content-Length: 7\r\n\r\n1,-0.5\n"));
    }
}
