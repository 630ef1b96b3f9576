//! The offline workloads: a user importing a new dataset and selecting an
//! ESZSL model by cross-validation (`offline-eszsl`), and a user fitting the
//! other model families on a bundle and saving them (`offline-families`).
//!
//! Set-up generates the inputs (untimed), then times what the user path
//! does once before its repeated work: the import (`MatBundle::open` and
//! `convert_to_zsb`) or `StreamingBundle::open`.
//!
//! Every pass calls the public front doors through a timing `FeatureSource`
//! and `Trainer`, which pass straight through when the tracer is off. After
//! a traced pass, the layers a front door hides (import decode/write, Gram
//! fold, solves, factorizations, scoring) are replayed or probed by calling
//! their public functions on the same inputs; every replay is checked against
//! the pass it mirrors. Replays and probes are reported as their own absolute
//! figures and kept out of the layer shares, which split the pass alone.

use crate::gen::{self, DataShape};
use crate::report::{self, Metric, Outcome};
use crate::stats;
use crate::trace::{layer_times_under, self_times, Span, Tracer};
use crate::{err, median, Ctx, SetupTimer, R, SETUP_REPEATS};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use zsl_core::{
    cross_validate_with, evaluate_gzsl, evaluate_gzsl_with, solve_sylvester, CrossValConfig,
    CrossValReport, EszslConfig, FeatureSource, GramAccumulator, GzslReport, KernelEszslConfig,
    KernelKind, Matrix, ModelFamily, Pipeline, SaeConfig, ScoringEngine, Similarity, SourceStream,
    SplitKind, StreamingBundle, TrainedModel, Trainer, ZsbWriter, ZslError,
};
use zsl_mat::{MatBundle, MatFile, DEFAULT_CHUNK_ROWS};

/// AWA2-like classes and attributes. `d = 256` keeps one pass (7x7x3 CV,
/// fit, evaluate) at 3-7 s on a 2-core host, so a run holds several passes.
/// At this noise the CV choice is stable across seeds and H sits near 0.65;
/// the large unseen test split keeps H's seed-to-seed spread near 1%.
const ESZSL_SHAPE: DataShape = DataShape {
    seen: 40,
    unseen: 10,
    attr_dim: 85,
    feature_dim: 256,
    train_per_class: 200,
    test_seen_per_class: 50,
    test_unseen_per_class: 400,
    noise: 1.5,
};

/// `d = 256` bounds the d x d Jacobi eigendecomposition of the SAE fit
/// (about 1 s); 4k trainval rows bound the kernel Gram fold. Less noise than
/// offline-eszsl: H near 0.8 (SAE) and 0.88 (kernel) moves less with the
/// seed than the fixed-hyperparameter fits do at higher noise.
const FAMILIES_SHAPE: DataShape = DataShape {
    seen: 40,
    unseen: 10,
    attr_dim: 85,
    feature_dim: 256,
    train_per_class: 100,
    test_seen_per_class: 50,
    test_unseen_per_class: 400,
    noise: 1.0,
};
const SAE_LAMBDA: f64 = 0.2;
/// `k(x, y) = exp(-width |x - y|^2)`; squared distances here are ~1e3.
const RBF_WIDTH: f64 = 5e-4;
const KERNEL_ANCHORS: usize = 1000;
/// Imports in offline-eszsl's set-up: each takes about half a second.
const IMPORT_REPEATS: usize = 5;

// ---------------------------------------------------------------------------
// Timing wrappers
// ---------------------------------------------------------------------------

/// A source whose streams record a `core.data.read` span per chunk (nothing
/// when the tracer is off).
struct TimedSource<'a, S: ?Sized> {
    inner: &'a S,
    tracer: &'a Tracer,
}

fn timed_stream<'a>(mut inner: SourceStream<'a>, tracer: &'a Tracer) -> SourceStream<'a> {
    Box::new(std::iter::from_fn(move || {
        let mut span = tracer.span("core.data.read");
        let next = inner.next();
        if let Some(Ok((x, _))) = &next {
            span.items(x.rows() as u64);
        }
        next
    }))
}

impl<S: FeatureSource + ?Sized> FeatureSource for TimedSource<'_, S> {
    fn split_len(&self, split: SplitKind) -> usize {
        self.inner.split_len(split)
    }
    fn seen_signatures(&self) -> Cow<'_, Matrix> {
        self.inner.seen_signatures()
    }
    fn unseen_signatures(&self) -> Cow<'_, Matrix> {
        self.inner.unseen_signatures()
    }
    fn num_seen_classes(&self) -> usize {
        self.inner.num_seen_classes()
    }
    fn num_unseen_classes(&self) -> usize {
        self.inner.num_unseen_classes()
    }
    fn union_signatures(&self) -> Matrix {
        self.inner.union_signatures()
    }
    fn stream(&self, split: SplitKind) -> Result<SourceStream<'_>, ZslError> {
        Ok(timed_stream(self.inner.stream(split)?, self.tracer))
    }
    fn stream_trainval_subset(&self, positions: &[usize]) -> Result<SourceStream<'_>, ZslError> {
        Ok(timed_stream(
            self.inner.stream_trainval_subset(positions)?,
            self.tracer,
        ))
    }
}

/// A trainer recording `core.trainer.fit.<family>` and
/// `core.trainer.fit_grid` spans around the wrapped trainer's calls
/// (nothing when the tracer is off).
#[derive(Clone)]
struct TimedTrainer {
    inner: Box<dyn Trainer>,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for TimedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Timed({:?})", self.inner)
    }
}

impl Trainer for TimedTrainer {
    fn family(&self) -> ModelFamily {
        self.inner.family()
    }
    fn fit(&self, source: &dyn FeatureSource) -> Result<TrainedModel, ZslError> {
        let _span = self.tracer.span(match self.family() {
            ModelFamily::Eszsl => "core.trainer.fit.eszsl",
            ModelFamily::Sae => "core.trainer.fit.sae",
            ModelFamily::KernelEszsl => "core.trainer.fit.kernel",
        });
        self.inner.fit(source)
    }
    fn fit_grid(
        &self,
        source: &dyn FeatureSource,
        subset: &[usize],
        points: &[(f64, f64)],
    ) -> Result<Vec<TrainedModel>, ZslError> {
        let _span = self.tracer.span("core.trainer.fit_grid");
        self.inner.fit_grid(source, subset, points)
    }
    fn grid_points(&self, gammas: &[f64], lambdas: &[f64]) -> Vec<(f64, f64)> {
        self.inner.grid_points(gammas, lambdas)
    }
    fn with_point(&self, gamma: f64, lambda: f64) -> Box<dyn Trainer> {
        Box::new(TimedTrainer {
            inner: self.inner.with_point(gamma, lambda),
            tracer: self.tracer.clone(),
        })
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn clone_box(&self) -> Box<dyn Trainer> {
        Box::new(self.clone())
    }
}

impl TimedTrainer {
    fn new(inner: impl Trainer + 'static, tracer: &Arc<Tracer>) -> TimedTrainer {
        TimedTrainer {
            inner: Box::new(inner),
            tracer: tracer.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Span arithmetic for one traced pass
// ---------------------------------------------------------------------------

struct PassSpans {
    spans: Vec<Span>,
    own: std::collections::BTreeMap<u32, u64>,
}

impl PassSpans {
    fn new(tracer: &Tracer) -> PassSpans {
        let spans = tracer.spans();
        let own = self_times(&spans);
        PassSpans { spans, own }
    }
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
    fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64 * 1e-9).sum()
    }
    fn self_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| self.own[&s.id] as f64 * 1e-9)
            .sum()
    }
    fn count(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }
    /// Spans of `name` that handled some work (a stream's final, empty
    /// `next` is not a chunk).
    fn count_busy(&self, name: &str) -> f64 {
        self.named(name).filter(|s| s.items > 0).count() as f64
    }
    fn items(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.items as f64).sum()
    }
    fn median_s(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .map(|s| s.dur_ns() as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    }
}

/// Per-layer samples, one value per traced pass, kept in insertion order.
#[derive(Default)]
struct LayerSamples(Vec<(String, &'static str, Vec<f64>)>);

impl LayerSamples {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name.to_string(), unit, vec![value])),
        }
    }
}

/// Pass times of a run, and the per-layer figures of its traced passes.
#[derive(Default)]
struct PassLog {
    untraced_s: Vec<f64>,
    /// Host CPU stolen during each untraced pass, in percent.
    untraced_steal_pct: Vec<Option<f64>>,
    traced_s: Vec<f64>,
    layers: LayerSamples,
    /// Self time by layer of the traced passes' own spans, and their total.
    pass_ns_by_layer: BTreeMap<&'static str, u64>,
    pass_ns: u64,
}

impl PassLog {
    /// Record a pass of `total_s` begun at host CPU ticks `started`; a
    /// traced pass's spans go to the outcome and through `layers_of` into
    /// per-layer figures.
    fn record(
        &mut self,
        outcome: &mut Outcome,
        tracer: &Tracer,
        total_s: f64,
        started: Option<(u64, u64)>,
        layers_of: fn(&PassSpans, &mut LayerSamples),
    ) {
        if tracer.enabled() {
            self.traced_s.push(total_s);
            let spans = PassSpans::new(tracer);
            layers_of(&spans, &mut self.layers);
            let (by_layer, total) = layer_times_under(&spans.spans, "pass");
            for (layer, ns) in by_layer {
                *self.pass_ns_by_layer.entry(layer).or_default() += ns;
            }
            self.pass_ns += total;
            outcome.spans.extend(spans.spans);
        } else {
            self.untraced_s.push(total_s);
            self.untraced_steal_pct
                .push(report::steal_pct(started, report::cpu_ticks()));
        }
    }

    /// Fill in the result times and throughput from the calm untraced
    /// passes (see [`stats::calm_windows`]), set-up, per-layer figures
    /// (after `setup_layers`, the set-up calls' own), layer shares of the
    /// traced passes, and tracing overhead (median traced minus median
    /// untraced pass; replays and probes run after a traced pass and are
    /// not part of it).
    fn finish(self, outcome: &mut Outcome, rows_per_pass: usize, setup_layers: Vec<Metric>) {
        let calm = stats::calm_windows(&self.untraced_steal_pct);
        let calm_s: Vec<f64> = calm.iter().map(|&i| self.untraced_s[i]).collect();
        outcome.results_ms = calm_s.iter().map(|s| s * 1e3).collect();
        outcome.rows_per_s = rows_per_pass as f64 / median(&calm_s);
        let setup = Metric::median_of("setup_s", "s", &outcome.setup_s);
        outcome.native.push(setup);
        outcome.native.push(Metric::value(
            "calm_passes",
            "count",
            calm.len() as f64,
            self.untraced_s.len(),
        ));
        outcome
            .native
            .push(Metric::median_of("pass_all_s", "s", &self.untraced_s));
        if self.traced_s.is_empty() {
            return;
        }
        outcome.layers = setup_layers;
        outcome.layers.extend(
            self.layers
                .0
                .into_iter()
                .map(|(name, unit, values)| Metric::median_of(name, unit, &values)),
        );
        let pass_ns = self.pass_ns.max(1) as f64;
        outcome.layer_pct = self
            .pass_ns_by_layer
            .into_iter()
            .map(|(layer, ns)| (layer, 100.0 * ns as f64 / pass_ns))
            .collect();
        let untraced = median(&self.untraced_s);
        let overhead = median(&self.traced_s) - untraced;
        outcome.overhead_pct = 100.0 * overhead / untraced;
        outcome.layers.push(Metric::value(
            "trace.overhead_ms",
            "ms",
            overhead * 1e3,
            self.traced_s.len(),
        ));
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Alternate untraced and traced passes (untraced only when `ctx.trace` is
/// off) until `ctx.seconds` have passed, at least one of each kind.
fn pass_schedule(ctx: &Ctx, mut pass: impl FnMut(bool) -> R<()>) -> R<()> {
    let start = Instant::now();
    let mut traced_turn = false;
    let mut ran = [0usize; 2];
    loop {
        let traced = ctx.trace && traced_turn;
        pass(traced)?;
        ran[traced as usize] += 1;
        if ctx.trace {
            traced_turn = !traced_turn;
        }
        let enough = ran[0] > 0 && (!ctx.trace || ran[1] > 0);
        if enough && secs(start) >= ctx.seconds {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// offline-eszsl
// ---------------------------------------------------------------------------

struct EszslPass {
    /// cv, fit, eval.
    stages_s: [f64; 3],
    cv: CrossValReport,
    gzsl: GzslReport,
}

pub fn eszsl(ctx: &Ctx, outcome: &mut Outcome) -> R<()> {
    let raw = ctx.work.join("xlsa");
    let bundle_dir = ctx.work.join("bundle");
    let replay_dir = ctx.work.join("replay");
    let ds = gen::dataset(&ESZSL_SHAPE, ctx.seed);
    let (res, att) = gen::write_xlsa_pair(&ds, &raw, ctx.seed).map_err(err("write .mat pair"))?;
    drop(ds);
    // Set-up is the import: a user converts a new dataset once, then
    // selects, fits and evaluates models on the bundle.
    let (mut open_s, mut convert_s) = (Vec::new(), Vec::new());
    let mut import = || {
        let clock = Instant::now();
        let mat = MatBundle::open(&res, &att).map_err(err("MatBundle::open"))?;
        open_s.push(secs(clock));
        let clock = Instant::now();
        let summary = mat
            .convert_to_zsb(&bundle_dir, DEFAULT_CHUNK_ROWS)
            .map_err(err("MatBundle::convert_to_zsb"))?;
        convert_s.push(secs(clock));
        Ok((mat, summary))
    };
    let mut timer = SetupTimer::default();
    let (mat, summary) = timer.repeat(IMPORT_REPEATS.div_ceil(2), &mut import)?;
    outcome.check(
        summary.num_samples == ESZSL_SHAPE.samples()
            && summary.feature_dim == ESZSL_SHAPE.feature_dim
            && summary.unseen_classes == ESZSL_SHAPE.unseen,
        || format!("import summary {summary:?} disagrees with the generated shape"),
    );

    let mut stages: [Vec<f64>; 3] = Default::default();
    let mut log = PassLog::default();
    let mut reference: Option<(CrossValReport, GzslReport)> = None;
    pass_schedule(ctx, |traced| {
        let tracer = Arc::new(Tracer::new(traced));
        outcome.attempted += 3;
        let started = report::cpu_ticks();
        let pass = eszsl_pass(&mat, &res, &bundle_dir, &replay_dir, &tracer, outcome)
            .inspect_err(|_| outcome.failed += 1)?;
        match &reference {
            None => reference = Some((pass.cv.clone(), pass.gzsl.clone())),
            Some((cv, gzsl)) => outcome.check(*cv == pass.cv && *gzsl == pass.gzsl, || {
                format!("pass (traced={traced}) CV/GZSL reports differ from the first pass's")
            }),
        }
        check_h(outcome, &pass.gzsl);
        if !traced {
            for (samples, s) in stages.iter_mut().zip(pass.stages_s) {
                samples.push(s);
            }
        }
        let total = pass.stages_s.iter().sum();
        log.record(outcome, &tracer, total, started, eszsl_layers);
        Ok(())
    })?;
    timer.repeat(IMPORT_REPEATS / 2, &mut import)?;
    timer.finish(outcome);

    let (_, gzsl) = reference.expect("at least one pass");
    outcome.quality = gzsl.harmonic_mean;
    outcome
        .native
        .push(Metric::median_of("import_s", "s", &outcome.setup_s));
    for (name, samples) in ["cv_s", "fit_s", "eval_s"].iter().zip(&stages) {
        outcome.native.push(Metric::median_of(*name, "s", samples));
    }
    outcome
        .native
        .push(Metric::value("gzsl_h", "ratio", gzsl.harmonic_mean, 1));
    let setup_layers = vec![
        Metric::median_of("mat.xlsa.open_s", "s", &open_s),
        Metric::median_of("mat.xlsa.convert_s", "s", &convert_s),
    ];
    log.finish(outcome, ESZSL_SHAPE.samples(), setup_layers);
    Ok(())
}

/// H of a working model on this data: well above chance, below perfect.
fn check_h(outcome: &mut Outcome, report: &GzslReport) {
    let h = report.harmonic_mean;
    outcome.check(h > 0.2 && h < 1.0, || {
        format!("GZSL H {h} outside (0.2, 1)")
    });
}

fn eszsl_pass(
    mat: &MatBundle,
    res: &Path,
    bundle_dir: &Path,
    replay_dir: &Path,
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
) -> R<EszslPass> {
    let t = &**tracer;
    let cv_config = CrossValConfig::default();
    let mut stages_s = [0.0; 3];

    let pass = t.span("pass");
    let clock = Instant::now();
    let trainer = TimedTrainer::new(EszslConfig::new().build(), tracer);
    let (bundle, cv) = {
        let _s = t.span("cv");
        let bundle = t
            .time("core.data.open", || {
                StreamingBundle::open(bundle_dir, DEFAULT_CHUNK_ROWS)
            })
            .map_err(err("StreamingBundle::open"))?;
        let source = TimedSource {
            inner: &bundle,
            tracer: t,
        };
        let cv = t
            .time("core.eval.cross_validate", || {
                cross_validate_with(&trainer, &source, &cv_config)
            })
            .map_err(err("cross_validate_with"))?;
        (bundle, cv)
    };
    stages_s[0] = secs(clock);

    let source = TimedSource {
        inner: &bundle,
        tracer: t,
    };
    let clock = Instant::now();
    let model = {
        let _s = t.span("fit");
        trainer
            .with_point(cv.best.gamma, cv.best.lambda)
            .fit(&source)
            .map_err(err("Trainer::fit"))?
    };
    stages_s[1] = secs(clock);

    let clock = Instant::now();
    let gzsl = {
        let _s = t.span("eval");
        t.time("core.eval.evaluate_gzsl", || {
            evaluate_gzsl(&model, &source, Similarity::Cosine)
        })
        .map_err(err("evaluate_gzsl"))?
    };
    stages_s[2] = secs(clock);
    drop(pass);

    if t.enabled() {
        replay_import(res, mat, bundle_dir, replay_dir, t, outcome)?;
        eszsl_probes(&bundle, &model, &cv, &cv_config, t, outcome)?;
    }
    Ok(EszslPass { stages_s, cv, gzsl })
}

/// Redo the import's feature conversion through `MatFile::stream_columns`,
/// `ColumnChunkReader::next_chunk` and `ZsbWriter`, timing decode and write
/// apart, and check the bytes match what `convert_to_zsb` wrote.
fn replay_import(
    res: &Path,
    imported: &MatBundle,
    bundle_dir: &Path,
    replay_dir: &Path,
    t: &Tracer,
    outcome: &mut Outcome,
) -> R<()> {
    let _r = t.span("replay");
    std::fs::create_dir_all(replay_dir).map_err(err("create replay dir"))?;
    let out = replay_dir.join("features.zsb");
    let d = imported.feature_dim();
    let mut writer = t
        .time("core.data.zsb_write", || {
            ZsbWriter::create(&out, imported.labels(), d)
        })
        .map_err(err("ZsbWriter::create"))?;
    let mut columns = t
        .time("mat.stream.open", || {
            MatFile::open(res)?.stream_columns("features", DEFAULT_CHUNK_ROWS)
        })
        .map_err(err("MatFile::stream_columns"))?;
    loop {
        let chunk = {
            let mut span = t.span("mat.stream.decode");
            let chunk = columns.next_chunk().map_err(err("next_chunk"))?;
            if let Some(c) = &chunk {
                span.items((c.rows() * c.cols() * 8) as u64);
            }
            chunk
        };
        let Some(chunk) = chunk else { break };
        t.time("core.data.zsb_write", || writer.append_rows(&chunk))
            .map_err(err("ZsbWriter::append_rows"))?;
    }
    t.time("core.data.zsb_write", || writer.finish())
        .map_err(err("ZsbWriter::finish"))?;
    let replayed = std::fs::read(&out).map_err(err("read replayed .zsb"))?;
    let converted = std::fs::read(bundle_dir.join(zsl_core::data::FEATURES_ZSB))
        .map_err(err("read converted .zsb"))?;
    outcome.check(replayed == converted, || {
        "replayed import's features.zsb differs from convert_to_zsb's".into()
    });
    Ok(())
}

/// Gram fold over the full trainval split, every grid point's solve, one
/// `d x d` Cholesky per γ, and scoring of the test splits.
fn eszsl_probes(
    bundle: &StreamingBundle,
    model: &TrainedModel,
    cv: &CrossValReport,
    cv_config: &CrossValConfig,
    t: &Tracer,
    outcome: &mut Outcome,
) -> R<()> {
    let _p = t.span("probe");
    let problem = {
        let mut acc = GramAccumulator::new(&bundle.seen_signatures());
        for chunk in FeatureSource::stream(bundle, SplitKind::Trainval).map_err(err("stream"))? {
            let (x, labels) = chunk.map_err(err("read trainval"))?;
            let mut span = t.span("core.model.gram_fold");
            span.items(x.rows() as u64);
            acc.fold(&x, &labels)
                .map_err(err("GramAccumulator::fold"))?;
        }
        acc.finish().map_err(err("GramAccumulator::finish"))?
    };
    for &gamma in &cv_config.gammas {
        for &lambda in &cv_config.lambdas {
            let solved = t
                .time("core.model.solve", || problem.solve(gamma, lambda))
                .map_err(err("EszslProblem::solve"))?;
            if (gamma, lambda) == (cv.best.gamma, cv.best.lambda) {
                outcome.check(
                    model.projection().map(|p| p.weights().as_slice())
                        == Some(solved.weights().as_slice()),
                    || "probe solve at the selected point differs from the fitted model".into(),
                );
            }
        }
    }
    for &gamma in &cv_config.gammas {
        let mut shifted = problem.xtx().clone();
        shifted.add_scaled_identity(gamma);
        t.time("core.linalg.cholesky", || shifted.cholesky().map(black_box))
            .map_err(err("Matrix::cholesky"))?;
    }
    predict_probe(bundle, model, t)
}

/// `ScoringEngine::predict` over both test splits.
fn predict_probe(bundle: &StreamingBundle, model: &TrainedModel, t: &Tracer) -> R<()> {
    let engine =
        ScoringEngine::try_new(model.clone(), bundle.union_signatures(), Similarity::Cosine)
            .map_err(err("ScoringEngine::try_new"))?;
    for split in [SplitKind::TestSeen, SplitKind::TestUnseen] {
        for chunk in FeatureSource::stream(bundle, split).map_err(err("stream"))? {
            let (x, _) = chunk.map_err(err("read test split"))?;
            let mut span = t.span("core.infer.predict");
            span.items(x.rows() as u64);
            black_box(engine.predict(&x));
        }
    }
    Ok(())
}

fn eszsl_layers(p: &PassSpans, out: &mut LayerSamples) {
    let decode_s = p.total_s("mat.stream.decode");
    out.push("mat.stream.decode_s", "s", decode_s);
    out.push(
        "mat.stream.decode_mib_per_s",
        "MiB/s",
        p.items("mat.stream.decode") / decode_s / (1 << 20) as f64,
    );
    out.push(
        "core.data.zsb_write_s",
        "s",
        p.total_s("core.data.zsb_write"),
    );
    out.push("core.data.open_s", "s", p.total_s("core.data.open"));
    data_reads(p, out);
    out.push(
        "core.trainer.fit_grid_s",
        "s",
        p.total_s("core.trainer.fit_grid"),
    );
    out.push(
        "core.trainer.fit_grid_calls",
        "count",
        p.count("core.trainer.fit_grid"),
    );
    out.push(
        "core.trainer.fit_s.eszsl",
        "s",
        p.total_s("core.trainer.fit.eszsl"),
    );
    out.push(
        "core.eval.cv_self_s",
        "s",
        p.self_s("core.eval.cross_validate"),
    );
    out.push(
        "core.eval.gzsl_self_s",
        "s",
        p.self_s("core.eval.evaluate_gzsl"),
    );
    gram_fold(p, out);
    out.push("core.model.solve_s", "s", p.median_s("core.model.solve"));
    out.push(
        "core.model.solve_total_s",
        "s",
        p.total_s("core.model.solve"),
    );
    out.push(
        "core.model.solve_calls",
        "count",
        p.count("core.model.solve"),
    );
    out.push(
        "core.linalg.cholesky_s",
        "s",
        p.median_s("core.linalg.cholesky"),
    );
    predict(p, out);
}

fn data_reads(p: &PassSpans, out: &mut LayerSamples) {
    out.push("core.data.read_s", "s", p.total_s("core.data.read"));
    out.push("core.data.rows_read", "count", p.items("core.data.read"));
    out.push(
        "core.data.chunks_read",
        "count",
        p.count_busy("core.data.read"),
    );
}

fn gram_fold(p: &PassSpans, out: &mut LayerSamples) {
    let fold_s = p.total_s("core.model.gram_fold");
    out.push("core.model.gram_fold_s", "s", fold_s);
    out.push(
        "core.model.gram_rows_per_s",
        "1/s",
        p.items("core.model.gram_fold") / fold_s,
    );
}

fn predict(p: &PassSpans, out: &mut LayerSamples) {
    let predict_s = p.total_s("core.infer.predict");
    out.push("core.infer.predict_s", "s", predict_s);
    out.push(
        "core.infer.rows_per_s",
        "1/s",
        p.items("core.infer.predict") / predict_s,
    );
}

// ---------------------------------------------------------------------------
// offline-families
// ---------------------------------------------------------------------------

struct FamilyPass {
    /// fit, eval, save per family (SAE first).
    stages_s: [[f64; 3]; 2],
    reports: [GzslReport; 2],
}

pub fn families(ctx: &Ctx, outcome: &mut Outcome) -> R<()> {
    let bundle_dir = ctx.work.join("bundle");
    let ds = gen::dataset(&FAMILIES_SHAPE, ctx.seed);
    gen::write_bundle(&ds, &bundle_dir).map_err(err("write bundle"))?;
    drop(ds);
    let open = || {
        StreamingBundle::open(&bundle_dir, DEFAULT_CHUNK_ROWS).map_err(err("StreamingBundle::open"))
    };
    let mut timer = SetupTimer::default();
    let bundle = timer.repeat(SETUP_REPEATS.div_ceil(2), open)?;

    let mut stages: [Vec<f64>; 3] = Default::default();
    let mut log = PassLog::default();
    let mut reference: Option<[GzslReport; 2]> = None;
    let mut first = true;
    pass_schedule(ctx, |traced| {
        let tracer = Arc::new(Tracer::new(traced));
        outcome.attempted += 6;
        let started = report::cpu_ticks();
        let pass = families_pass(&bundle, &ctx.work, &tracer, first, outcome)
            .inspect_err(|_| outcome.failed += 1)?;
        first = false;
        match &reference {
            None => reference = Some(pass.reports.clone()),
            Some(r) => outcome.check(*r == pass.reports, || {
                format!("pass (traced={traced}) GZSL reports differ from the first pass's")
            }),
        }
        for r in &pass.reports {
            check_h(outcome, r);
        }
        let [sae, kernel] = pass.stages_s;
        if !traced {
            stages[0].push(sae[0]);
            stages[1].push(kernel[0]);
            stages[2].push(sae[1] + kernel[1]);
        }
        let total = sae.iter().chain(&kernel).sum();
        log.record(outcome, &tracer, total, started, families_layers);
        Ok(())
    })?;
    timer.repeat(SETUP_REPEATS / 2, open)?;
    timer.finish(outcome);

    let [sae, kernel] = reference.expect("at least one pass");
    outcome.quality = (sae.harmonic_mean + kernel.harmonic_mean) / 2.0;
    for (name, samples) in ["fit_sae_s", "fit_kernel_s", "eval_s"].iter().zip(&stages) {
        outcome.native.push(Metric::median_of(*name, "s", samples));
    }
    outcome
        .native
        .push(Metric::value("gzsl_h_sae", "ratio", sae.harmonic_mean, 1));
    outcome.native.push(Metric::value(
        "gzsl_h_kernel",
        "ratio",
        kernel.harmonic_mean,
        1,
    ));
    let open_s = Metric::median_of("core.data.open_s", "s", &outcome.setup_s);
    log.finish(outcome, FAMILIES_SHAPE.samples(), vec![open_s]);
    Ok(())
}

fn families_pass(
    bundle: &StreamingBundle,
    work: &Path,
    tracer: &Arc<Tracer>,
    check_artifacts: bool,
    outcome: &mut Outcome,
) -> R<FamilyPass> {
    let t = &**tracer;
    let pass = t.span("pass");
    let source = TimedSource {
        inner: bundle,
        tracer: t,
    };
    let sae = family(
        &source,
        SaeConfig::new().lambda(SAE_LAMBDA).build(),
        "sae.zsm",
        work,
        tracer,
    )?;
    let kernel = family(
        &source,
        KernelEszslConfig::new()
            .kernel(KernelKind::Rbf { width: RBF_WIDTH })
            .max_anchors(KERNEL_ANCHORS)
            .build(),
        "kernel.zsm",
        work,
        tracer,
    )?;
    drop(pass);
    if check_artifacts {
        for (round, file) in [(&sae, "sae.zsm"), (&kernel, "kernel.zsm")] {
            let loaded =
                ScoringEngine::load(&work.join(file)).map_err(err("ScoringEngine::load"))?;
            let again = evaluate_gzsl_with(&loaded, bundle).map_err(err("evaluate_gzsl_with"))?;
            outcome.check(again == round.report, || {
                format!("{file} reloaded scores a different GZSL report")
            });
        }
    }

    if t.enabled() {
        sae_probes(bundle, &sae.model, t, outcome)?;
        predict_probe(bundle, &sae.model, t)?;
        predict_probe(bundle, &kernel.model, t)?;
    }
    Ok(FamilyPass {
        stages_s: [sae.stages_s, kernel.stages_s],
        reports: [sae.report, kernel.report],
    })
}

struct FamilyRound {
    /// fit, eval, save.
    stages_s: [f64; 3],
    report: GzslReport,
    model: TrainedModel,
}

/// Fit `trainer` through the pipeline front door, evaluate GZSL, and save
/// the `.zsm` to `work/file`.
fn family<T: Trainer + 'static>(
    source: &dyn FeatureSource,
    trainer: T,
    file: &str,
    work: &Path,
    tracer: &Arc<Tracer>,
) -> R<FamilyRound> {
    let t = &**tracer;
    let mut stages_s = [0.0; 3];
    let clock = Instant::now();
    let trained = {
        let _s = t.span("fit");
        Pipeline::from(source)
            .with_trainer(TimedTrainer::new(trainer, tracer))
            .train()
            .map_err(err("Pipeline::train"))?
    };
    stages_s[0] = secs(clock);
    let clock = Instant::now();
    let report = {
        let _s = t.span("eval");
        t.time("core.eval.evaluate_gzsl", || trained.evaluate())
            .map_err(err("TrainedPipeline::evaluate"))?
    };
    stages_s[1] = secs(clock);
    let clock = Instant::now();
    {
        let _s = t.span("save");
        t.time("core.artifact.save", || trained.save(&work.join(file)))
            .map_err(err("TrainedPipeline::save"))?;
    }
    stages_s[2] = secs(clock);
    Ok(FamilyRound {
        stages_s,
        report,
        model: trained.model().clone(),
    })
}

/// Rebuild the SAE system `A W + W B = C` from `GramAccumulator` and
/// `EszslProblem` accessors, as `SaeTrainer` forms it, and time the fold,
/// the `d x d` eigendecomposition of `B = λ·XᵀX`, and the Sylvester solve.
fn sae_probes(
    bundle: &StreamingBundle,
    model: &TrainedModel,
    t: &Tracer,
    outcome: &mut Outcome,
) -> R<()> {
    let _p = t.span("probe");
    let mut acc = GramAccumulator::new(&bundle.seen_signatures());
    for chunk in FeatureSource::stream(bundle, SplitKind::Trainval).map_err(err("stream"))? {
        let (x, labels) = chunk.map_err(err("read trainval"))?;
        let mut span = t.span("core.model.gram_fold");
        span.items(x.rows() as u64);
        acc.fold(&x, &labels)
            .map_err(err("GramAccumulator::fold"))?;
    }
    let prepared = acc.signatures().clone();
    let mut weighted = prepared.clone();
    for (r, &count) in acc.class_counts().iter().enumerate() {
        for v in weighted.row_mut(r) {
            *v *= count;
        }
    }
    let a = prepared.transpose().matmul(&weighted);
    let problem = acc.finish().map_err(err("GramAccumulator::finish"))?;
    let scaled = |m: &Matrix, f: f64| {
        Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|v| v * f).collect(),
        )
    };
    let b = scaled(problem.xtx(), SAE_LAMBDA);
    let c = scaled(&problem.xtys().transpose(), 1.0 + SAE_LAMBDA);
    t.time("core.linalg.eigen", || b.symmetric_eigen().map(black_box))
        .map_err(err("Matrix::symmetric_eigen"))?;
    let w = t
        .time("core.linalg.sylvester", || solve_sylvester(&a, &b, &c))
        .map_err(err("solve_sylvester"))?;
    outcome.check(
        model.projection().map(|p| p.weights().as_slice()) == Some(w.transpose().as_slice()),
        || "rebuilt SAE system solves to different weights than SaeTrainer".into(),
    );
    Ok(())
}

fn families_layers(p: &PassSpans, out: &mut LayerSamples) {
    data_reads(p, out);
    out.push(
        "core.trainer.fit_s.sae",
        "s",
        p.total_s("core.trainer.fit.sae"),
    );
    out.push(
        "core.trainer.fit_s.kernel",
        "s",
        p.total_s("core.trainer.fit.kernel"),
    );
    out.push(
        "core.eval.gzsl_self_s",
        "s",
        p.self_s("core.eval.evaluate_gzsl"),
    );
    gram_fold(p, out);
    out.push("core.linalg.eigen_s", "s", p.total_s("core.linalg.eigen"));
    out.push(
        "core.linalg.sylvester_s",
        "s",
        p.total_s("core.linalg.sylvester"),
    );
    predict(p, out);
    out.push("core.artifact.save_s", "s", p.total_s("core.artifact.save"));
}
