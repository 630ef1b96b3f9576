//! Batch inference and evaluation for trained ZSL models.
//!
//! The workhorse is the [`ScoringEngine`]: it validates and (for cosine)
//! pre-normalizes the signature bank **once at construction**, projects
//! feature batches into attribute space, and scores them against the cached
//! bank through the multi-threaded packed `X·Sᵀ` kernel in [`crate::linalg`].
//! [`ScoringEngine::scores_chunked`] streams scores chunk-by-chunk so
//! million-sample workloads never materialize one giant score matrix.
//!
//! Evaluation helpers cover the standard ZSL protocol (mean per-class
//! accuracy) and the generalized protocol (harmonic mean of seen and unseen
//! accuracy).
//!
//! Every scoring call runs one pass: project a row chunk once, then score
//! it against the bank one [`BankShards`] band at a time and fold each band
//! into the caller's reduction (full scores, argmax, or a bounded top-k
//! heap). By default the bank is one band; more bands bound peak score
//! memory at large class counts without changing a bit (pinned by
//! `tests/shard_equiv.rs`). The bank can also be borrowed zero-copy from an
//! mmap'd `.zsm` artifact instead of the heap. Calibrated stacking (a
//! seen-class score penalty `γ_cal`, the classic fix for GZSL
//! seen-swamping) is applied inside the same pass.

use crate::error::ZslError;
use crate::linalg::{default_threads, gemm_bt_parallel, Matrix, BLOCK, NORM_EPSILON};
use crate::mmap::MappedFile;
use crate::source::{FeatureSource, SplitKind};
use crate::trainer::{KernelKind, TrainedModel};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Rows per chunk used by [`ScoringEngine::predict`] and
/// [`ScoringEngine::predict_topk`]: scores are reduced chunk-by-chunk, so
/// peak score memory is `DEFAULT_CHUNK_ROWS * num_classes` doubles no matter
/// how many samples are scored.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Scoring function between a projected sample and a class signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Cosine similarity — scale invariant, the usual ZSL choice.
    #[default]
    Cosine,
    /// Raw dot product — cheaper, appropriate when signatures are already
    /// normalized.
    Dot,
}

impl std::fmt::Display for Similarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Similarity::Cosine => write!(f, "cosine"),
            Similarity::Dot => write!(f, "dot"),
        }
    }
}

impl std::str::FromStr for Similarity {
    type Err = String;

    /// Parse `"cosine"` or `"dot"` (case-insensitive) — the spelling used by
    /// CLI flags and config files.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cosine" => Ok(Similarity::Cosine),
            "dot" => Ok(Similarity::Dot),
            other => Err(format!(
                "unknown similarity '{other}', expected 'cosine' or 'dot'"
            )),
        }
    }
}

/// Numeric precision the engine scores in. Training always runs in `f64`;
/// [`ScoringPrecision::F32`] casts the model parameters, the (already
/// normalized) signature bank, and each input batch to `f32` once, runs the
/// same banded kernels in single precision (roughly half the memory
/// traffic), and widens the final scores back to `f64` losslessly. Within
/// each precision, results stay bit-identical across thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScoringPrecision {
    /// Full double precision — the default, bit-compatible with training.
    #[default]
    F64,
    /// Opt-in single-precision serving (train f64, serve f32).
    F32,
}

impl std::fmt::Display for ScoringPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoringPrecision::F64 => write!(f, "f64"),
            ScoringPrecision::F32 => write!(f, "f32"),
        }
    }
}

impl std::str::FromStr for ScoringPrecision {
    type Err = String;

    /// Parse `"f64"` or `"f32"` (case-insensitive) — the spelling used by
    /// CLI flags and artifact metadata.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f64" => Ok(ScoringPrecision::F64),
            "f32" => Ok(ScoringPrecision::F32),
            other => Err(format!(
                "unknown scoring precision '{other}', expected 'f64' or 'f32'"
            )),
        }
    }
}

/// A ranked prediction: class indices ordered best-first with their scores.
#[derive(Clone, Debug, PartialEq)]
pub struct TopK {
    /// Class indices, best first.
    pub classes: Vec<usize>,
    /// Similarity scores aligned with `classes`.
    pub scores: Vec<f64>,
}

/// Layout of the signature bank as contiguous row bands ("shards") scored
/// independently and merged per sample row.
///
/// Band boundaries are always multiples of the matmul kernel's 64-column
/// cache tile: `gemm_bt`'s SIMD cascade (8-wide, 4-wide, scalar remainder)
/// assigns kernels by a class's position *within* its 64-wide tile, so
/// tile-aligned bands score every class through the same kernel with the same
/// accumulation order as one monolithic pass. That makes sharded results
/// bit-identical to the unsharded engine at every shard count — structurally,
/// not within a tolerance. A requested count is therefore a *hint*: it is
/// clamped to the number of 64-row tiles the bank actually has.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankShards {
    /// Exclusive end row of each band, ascending; the last entry is the class
    /// count. Band `i` covers `ends[i-1]..ends[i]` (band 0 starts at row 0).
    ends: Vec<usize>,
}

impl BankShards {
    /// Split `num_classes` bank rows into (at most) `requested` bands of
    /// near-equal tile counts. `requested` is clamped to `[1, ceil(z / 64)]`;
    /// every boundary except the last is a multiple of 64.
    pub fn uniform(num_classes: usize, requested: usize) -> Self {
        let tiles = num_classes.div_ceil(BLOCK).max(1);
        let bands = requested.clamp(1, tiles);
        let mut ends = Vec::with_capacity(bands);
        for b in 1..=bands {
            ends.push((b * tiles / bands * BLOCK).min(num_classes));
        }
        BankShards { ends }
    }

    /// Number of bands.
    pub fn count(&self) -> usize {
        self.ends.len()
    }

    /// Global class-row range of band `i`.
    pub fn band(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Widest band, in classes — the per-chunk score-block width bound.
    pub fn max_band_classes(&self) -> usize {
        (0..self.count())
            .map(|i| self.band(i).len())
            .max()
            .unwrap_or(0)
    }
}

/// The engine's cached signature bank: either owned rows on the heap or rows
/// borrowed zero-copy from a memory-mapped `.zsm` artifact.
#[derive(Clone, Debug)]
pub(crate) enum Bank {
    /// Heap-owned `num_classes x attr_dim` rows — the default.
    Owned(Matrix),
    /// Rows borrowed from a mapped artifact: `offset` bytes into the mapping,
    /// `rows x cols` little-endian `f64`s. Built only through
    /// [`Bank::mapped`], which checks the region.
    Mapped {
        map: Arc<MappedFile>,
        offset: usize,
        rows: usize,
        cols: usize,
    },
}

impl Bank {
    /// Borrow `rows x cols` `f64`s starting `offset` bytes into `map`.
    /// Panics unless the target is little-endian and the region is in bounds
    /// and 8-byte aligned — exactly what [`Bank::as_slice`] relies on. The
    /// `.zsm` loader only asks for a 64-byte-aligned payload in a
    /// page-aligned mapping, which passes.
    pub(crate) fn mapped(map: Arc<MappedFile>, offset: usize, rows: usize, cols: usize) -> Bank {
        let bytes = map.as_bytes();
        let in_bounds = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_add(offset))
            .is_some_and(|end| end <= bytes.len());
        let aligned = bytes
            .as_ptr()
            .wrapping_add(offset)
            .cast::<f64>()
            .is_aligned();
        assert!(
            cfg!(target_endian = "little") && in_bounds && aligned,
            "mapped bank region {offset}+{rows}x{cols} is out of bounds or misaligned"
        );
        Bank::Mapped {
            map,
            offset,
            rows,
            cols,
        }
    }

    fn rows(&self) -> usize {
        match self {
            Bank::Owned(m) => m.rows(),
            Bank::Mapped { rows, .. } => *rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            Bank::Owned(m) => m.cols(),
            Bank::Mapped { cols, .. } => *cols,
        }
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            Bank::Owned(m) => m.as_slice(),
            Bank::Mapped {
                map,
                offset,
                rows,
                cols,
            } => {
                let bytes = &map.as_bytes()[*offset..*offset + rows * cols * 8];
                // SAFETY: `Bank::mapped` checked bounds, 8-byte alignment and
                // a little-endian target at construction, and the mapping is
                // immutable and lives as long as the `Arc`, so these bytes
                // *are* the bank's f64 rows.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, rows * cols) }
            }
        }
    }

    /// Heap bytes this bank keeps resident (0 when mapped).
    fn resident_bytes(&self) -> usize {
        match self {
            Bank::Owned(m) => std::mem::size_of_val(m.as_slice()),
            Bank::Mapped { .. } => 0,
        }
    }
}

/// Borrowed, read-only view of an engine's cached signature bank, uniform
/// over heap-owned and mmap-borrowed storage. Replaces the old `&Matrix`
/// accessor so callers never assume the bank lives on the heap.
#[derive(Clone, Copy, Debug)]
pub struct BankView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> BankView<'a> {
    /// Number of classes (bank rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Attribute dimension (bank columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The full bank as one row-major slice.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy the viewed rows into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }
}

/// Which classes a calibration penalty applies to.
#[derive(Clone, Debug)]
enum Penalized {
    /// The first `n` bank rows — the seen-class prefix of a GZSL union bank.
    /// This is the persistable form (`.zsm` calibration block).
    Prefix(usize),
    /// Arbitrary class subset — used internally by cross-validation, where
    /// each fold penalizes its pseudo-seen classes. Never persisted.
    Mask(Arc<Vec<bool>>),
}

/// Calibrated stacking: subtract `gamma` from every penalized class's score
/// at scoring time. With a union bank ordered seen-then-unseen, penalizing
/// the seen prefix counteracts the seen-class swamping that collapses GZSL
/// unseen accuracy at large class counts.
#[derive(Clone, Debug)]
struct Calibration {
    gamma: f64,
    penalized: Penalized,
}

/// Cached, parallel batch scorer: the hot path of the serving stack.
///
/// Construction validates the signature bank (non-empty, non-zero-width, all
/// finite) and — for [`Similarity::Cosine`] — L2-normalizes it **once**, so
/// per-call scoring does no bank clone, no renormalization, and no transpose:
/// the cached bank rows are already the packed transposed-B layout the
/// contiguous `X·Sᵀ` kernel wants. Batches are projected and scored through
/// the row-banded multi-threaded matmul paths in [`crate::linalg`], one
/// [`BankShards`] band at a time.
///
/// Results are bit-identical for every thread count and chunk size, so the
/// engine can be tuned freely without perturbing golden numerics.
#[derive(Clone, Debug)]
pub struct ScoringEngine {
    /// Any trained model family; a bare [`crate::model::ProjectionModel`]
    /// converts in as ESZSL, so pre-trainer call sites keep compiling.
    model: TrainedModel,
    /// `num_classes x attr_dim`, one row per candidate class; pre-normalized
    /// when the similarity is cosine. Heap-owned or mmap-borrowed.
    bank: Bank,
    /// Row-band layout the scoring pass walks; one band by default.
    shards: BankShards,
    /// Optional seen-class score penalty (calibrated stacking); `None` means
    /// scoring is exactly the uncalibrated pipeline, bit-for-bit.
    calibration: Option<Calibration>,
    similarity: Similarity,
    threads: usize,
    precision: ScoringPrecision,
    /// Eagerly-cast single-precision mirror of the model and bank, present
    /// exactly when `precision == F32` so scoring never casts parameters
    /// per call.
    f32_parts: Option<F32Parts>,
    /// Free-form provenance, written into and restored from `.zsm`
    /// artifacts.
    metadata: String,
}

/// Single-precision mirror of an engine's parameters: the trained model's
/// matrices and the (already f64-normalized) signature bank, cast to `f32`
/// once at [`ScoringEngine::with_precision`] time.
#[derive(Clone, Debug)]
struct F32Parts {
    model: F32Model,
    /// `num_classes x attr_dim` bank, cast from the cached f64 rows — the
    /// cosine normalization already happened in f64, so the cast preserves
    /// the bank semantics exactly up to rounding.
    bank: Vec<f32>,
}

#[derive(Clone, Debug)]
enum F32Model {
    /// Linear families (ESZSL, SAE): `w` is `d x a` row-major.
    Projection { w: Vec<f32>, d: usize, a: usize },
    /// Kernel family: dual weights `alpha : k x a` over `anchors : k x d`.
    Kernel {
        alpha: Vec<f32>,
        anchors: Vec<f32>,
        k: usize,
        d: usize,
        a: usize,
        kernel: KernelKind,
    },
}

fn cast_f32(data: &[f64]) -> Vec<f32> {
    data.iter().map(|&v| v as f32).collect()
}

fn build_f32_parts(model: &TrainedModel, bank: &[f64]) -> F32Parts {
    let model32 = match model {
        TrainedModel::Eszsl(p) | TrainedModel::Sae(p) => F32Model::Projection {
            w: cast_f32(p.weights().as_slice()),
            d: p.weights().rows(),
            a: p.weights().cols(),
        },
        TrainedModel::Kernel(km) => F32Model::Kernel {
            alpha: cast_f32(km.alpha().as_slice()),
            anchors: cast_f32(km.anchors().as_slice()),
            k: km.anchors().rows(),
            d: km.anchors().cols(),
            a: km.alpha().cols(),
            kernel: km.kernel(),
        },
    };
    F32Parts {
        model: model32,
        bank: cast_f32(bank),
    }
}

impl ScoringEngine {
    /// [`ScoringEngine::try_new`] for trusted, in-process data: panics where
    /// `try_new` returns an error. Code handling *untrusted* inputs (a
    /// serving daemon booting from an artifact it did not write) must use
    /// `try_new`.
    pub fn new(model: impl Into<TrainedModel>, signatures: Matrix, similarity: Similarity) -> Self {
        match Self::try_new(model, signatures, similarity) {
            Ok(engine) => engine,
            Err(ZslError::Config(msg)) => panic!("{msg}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Build an engine over `signatures` (`num_classes x attr_dim`) using one
    /// worker thread per available core ([`ScoringEngine::set_threads`]
    /// resizes it). An empty, zero-width or non-finite bank, a width that
    /// does not match the model's attribute dimension, or non-finite model
    /// parameters are a typed [`ZslError::Config`]: bad data fails here, at
    /// construction, never at scoring time. For [`Similarity::Cosine`] the
    /// bank is L2-normalized once, here.
    pub fn try_new(
        model: impl Into<TrainedModel>,
        signatures: Matrix,
        similarity: Similarity,
    ) -> Result<Self, ZslError> {
        let mut engine = Self::from_bank(model.into(), Bank::Owned(signatures), similarity)
            .map_err(ZslError::Config)?;
        if let (Similarity::Cosine, Bank::Owned(bank)) = (similarity, &mut engine.bank) {
            bank.l2_normalize_rows();
        }
        Ok(engine)
    }

    /// The one constructor body: validate the parts and assemble an `f64`,
    /// single-band, uncalibrated engine over `bank` **exactly as given**.
    ///
    /// The `.zsm` loaders call this directly with a stored bank (heap copy or
    /// mmap borrow), which a cosine engine normalized once when it was first
    /// built; normalizing again would divide by norms of ≈1.0 (not exactly
    /// 1.0) and perturb the cached bits, so skipping that step is what makes
    /// a save/load round trip bit-identical. Validation failures are error
    /// messages, never panics: this sits on the daemon's load path, where
    /// input is untrusted.
    pub(crate) fn from_bank(
        model: TrainedModel,
        bank: Bank,
        similarity: Similarity,
    ) -> Result<Self, String> {
        check_engine_parts(&model, bank.rows(), bank.cols(), bank.as_slice())?;
        Ok(ScoringEngine {
            model,
            shards: BankShards::uniform(bank.rows(), 1),
            bank,
            calibration: None,
            similarity,
            threads: default_threads(),
            precision: ScoringPrecision::F64,
            f32_parts: None,
            metadata: String::new(),
        })
    }

    /// Attach free-form provenance metadata (hyperparameters, source
    /// dataset, …). [`ScoringEngine::save`] writes it into the `.zsm`
    /// artifact and the loaders restore it, so it survives every round trip.
    pub fn with_metadata(mut self, metadata: impl Into<String>) -> Self {
        self.metadata = metadata.into();
        self
    }

    /// The engine's provenance metadata; empty unless attached with
    /// [`ScoringEngine::with_metadata`] or loaded from an artifact.
    pub fn metadata(&self) -> &str {
        &self.metadata
    }

    /// Switch the engine's scoring precision, (re)building or dropping the
    /// cached `f32` mirror as needed. Consuming-builder style so artifact
    /// loaders and pipelines can chain it after construction:
    /// `engine.with_precision(ScoringPrecision::F32)`.
    pub fn with_precision(mut self, precision: ScoringPrecision) -> Self {
        self.precision = precision;
        self.f32_parts = match precision {
            ScoringPrecision::F64 => None,
            ScoringPrecision::F32 => Some(build_f32_parts(&self.model, self.bank.as_slice())),
        };
        self
    }

    /// Split the cached bank into (at most) `shards` row bands scored one
    /// at a time and merged per row — see [`BankShards`]. Results are
    /// bit-identical at every shard count; what changes is peak memory:
    /// `predict`/`predict_topk` hold one `chunk_rows x band_classes` score
    /// block at a time instead of `chunk_rows x num_classes`.
    pub fn set_bank_shards(&mut self, shards: usize) {
        self.shards = BankShards::uniform(self.bank.rows(), shards);
    }

    /// The bank's current shard layout.
    pub fn bank_shards(&self) -> &BankShards {
        &self.shards
    }

    /// Heap bytes resident for the signature bank (the `f64` rows plus the
    /// `f32` mirror when reduced-precision scoring is on). `0` + mirror for
    /// an mmap-borrowed bank — the gauge a serving box watches to confirm
    /// zero-copy boot took effect.
    pub fn bank_resident_bytes(&self) -> usize {
        let mirror = self
            .f32_parts
            .as_ref()
            .map_or(0, |p| p.bank.len() * std::mem::size_of::<f32>());
        self.bank.resident_bytes() + mirror
    }

    /// Whether the bank is borrowed from a memory-mapped artifact.
    pub fn is_bank_mapped(&self) -> bool {
        matches!(self.bank, Bank::Mapped { .. })
    }

    /// Enable calibrated stacking: subtract `gamma_cal` from the scores of
    /// the first `seen_classes` bank rows (the seen prefix of a GZSL union
    /// bank) at scoring time. `gamma_cal = 0` clears calibration and restores
    /// the uncalibrated pipeline bit-for-bit. Rejects non-finite or negative
    /// `gamma_cal` and a prefix longer than the bank.
    pub fn with_calibration(
        mut self,
        gamma_cal: f64,
        seen_classes: usize,
    ) -> Result<Self, ZslError> {
        if !gamma_cal.is_finite() || gamma_cal < 0.0 {
            return Err(ZslError::Config(format!(
                "calibration penalty gamma_cal must be finite and >= 0, got {gamma_cal}"
            )));
        }
        if seen_classes > self.num_classes() {
            return Err(ZslError::Config(format!(
                "calibration seen-class prefix {seen_classes} exceeds the bank's {} classes",
                self.num_classes()
            )));
        }
        self.calibration = (gamma_cal > 0.0).then_some(Calibration {
            gamma: gamma_cal,
            penalized: Penalized::Prefix(seen_classes),
        });
        Ok(self)
    }

    /// Cross-validation-internal calibration over an arbitrary class mask
    /// (`true` = penalized). Never persisted; `gamma_cal = 0` clears.
    pub(crate) fn with_calibration_mask(mut self, gamma_cal: f64, mask: Arc<Vec<bool>>) -> Self {
        debug_assert_eq!(mask.len(), self.num_classes());
        self.calibration = (gamma_cal > 0.0).then_some(Calibration {
            gamma: gamma_cal,
            penalized: Penalized::Mask(mask),
        });
        self
    }

    /// The persistable seen-prefix calibration `(gamma_cal, seen_classes)`,
    /// if any. CV-internal mask calibrations (never persisted) return `None`.
    pub fn seen_calibration(&self) -> Option<(f64, usize)> {
        match &self.calibration {
            Some(Calibration {
                gamma,
                penalized: Penalized::Prefix(seen),
            }) => Some((*gamma, *seen)),
            _ => None,
        }
    }

    /// The active calibration penalty, `0.0` when uncalibrated.
    pub fn gamma_cal(&self) -> f64 {
        self.calibration.as_ref().map_or(0.0, |c| c.gamma)
    }

    /// Whether the engine carries a CV-internal mask calibration, which the
    /// artifact writer must refuse to persist.
    pub(crate) fn has_mask_calibration(&self) -> bool {
        matches!(
            self.calibration,
            Some(Calibration {
                penalized: Penalized::Mask(_),
                ..
            })
        )
    }

    /// Subtract the calibration penalty from a `rows x (hi - lo)` score block
    /// covering global classes `lo..hi`. No-op when uncalibrated, so the
    /// `gamma_cal = 0` pipeline performs zero extra float operations.
    fn apply_calibration(&self, block: &mut [f64], lo: usize, hi: usize) {
        let Some(cal) = &self.calibration else {
            return;
        };
        let width = hi - lo;
        match &cal.penalized {
            Penalized::Prefix(seen) => {
                let end = (*seen).min(hi);
                if end > lo {
                    for row in block.chunks_mut(width) {
                        for v in &mut row[..end - lo] {
                            *v -= cal.gamma;
                        }
                    }
                }
            }
            Penalized::Mask(mask) => {
                for row in block.chunks_mut(width) {
                    for (j, v) in row.iter_mut().enumerate() {
                        if mask[lo + j] {
                            *v -= cal.gamma;
                        }
                    }
                }
            }
        }
    }

    /// The precision scores are computed in.
    pub fn precision(&self) -> ScoringPrecision {
        self.precision
    }

    /// Resize the engine's worker-thread budget in place (`0` is treated as
    /// `1`). Serving stacks call this once at boot so every connection thread
    /// shares one deliberately-sized engine instead of each assuming the full
    /// machine.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of candidate classes.
    pub fn num_classes(&self) -> usize {
        self.bank.rows()
    }

    /// The underlying trained model (any family).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Input feature width the engine scores — the trained model's.
    pub fn feature_dim(&self) -> usize {
        self.model.feature_dim()
    }

    /// The cached signature bank (L2-normalized when the similarity is
    /// cosine), as a storage-agnostic view: the rows may live on the heap or
    /// be borrowed from a memory-mapped artifact.
    pub fn signatures(&self) -> BankView<'_> {
        BankView {
            data: self.bank.as_slice(),
            rows: self.bank.rows(),
            cols: self.bank.cols(),
        }
    }

    /// The configured similarity.
    pub fn similarity(&self) -> Similarity {
        self.similarity
    }

    /// Worker threads used by the scoring matmuls.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Full score matrix: `n_samples x num_classes`, including any active
    /// calibration penalty.
    pub fn scores(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, self.num_classes());
        self.scores_chunked(x, x.rows(), |_, chunk| out = chunk);
        out
    }

    /// Stream scores in row chunks of at most `chunk_rows` (`0` is treated as
    /// `1`): `consume(row_offset, chunk)` receives each
    /// `chunk_rows x num_classes` score block in order, so arbitrarily large
    /// sample matrices are scored without materializing the full
    /// `n x num_classes` result.
    pub fn scores_chunked<F>(&self, x: &Matrix, chunk_rows: usize, mut consume: F)
    where
        F: FnMut(usize, Matrix),
    {
        let z = self.num_classes();
        self.score_pass(
            x,
            chunk_rows,
            |rows| (rows, Vec::new()),
            |(rows, out): &mut (usize, Vec<f64>), r, block| {
                if r.len() == z {
                    // One band covers the bank: its block is the chunk.
                    *out = block;
                    return;
                }
                out.resize(*rows * z, 0.0);
                for (dst, src) in out.chunks_mut(z).zip(block.chunks(r.len())) {
                    dst[r.clone()].copy_from_slice(src);
                }
            },
            |offset, (rows, out)| consume(offset, Matrix::from_vec(rows, z, out)),
        );
    }

    /// The one scoring pass behind [`ScoringEngine::scores`],
    /// [`ScoringEngine::scores_chunked`], [`ScoringEngine::predict`] and
    /// [`ScoringEngine::predict_topk`]. Per row chunk of `x` it projects
    /// once, L2-normalizes for cosine, then for each [`BankShards`] band runs
    /// the `X·Sᵀ` kernel over that band's rows (in the engine's precision,
    /// widened to `f64`), applies calibration, and hands the
    /// `rows x band_classes` block to `band`. `init(rows)` builds the
    /// chunk's merge state and `done(row_offset, state)` consumes it after
    /// the last band. Peak score memory is one band-wide block.
    ///
    /// Band boundaries are multiples of the kernel's 64-column tile (see
    /// [`BankShards`]), so every score element carries the same bits at
    /// every shard count, and any order-respecting merge is bit-identical to
    /// reducing the full row.
    fn score_pass<S>(
        &self,
        x: &Matrix,
        chunk_rows: usize,
        init: impl Fn(usize) -> S,
        mut band: impl FnMut(&mut S, Range<usize>, Vec<f64>),
        mut done: impl FnMut(usize, S),
    ) {
        let n = x.rows();
        let chunk_rows = chunk_rows.max(1);
        let a_dim = self.bank.cols();
        let mut start = 0;
        while start < n {
            let end = (start + chunk_rows).min(n);
            let rows = end - start;
            let slab;
            let chunk: &Matrix = if rows == n {
                x
            } else {
                slab = x.row_block(start..end);
                &slab
            };
            let projected = match &self.f32_parts {
                None => {
                    let mut p = self.model.project(chunk, self.threads);
                    if self.similarity == Similarity::Cosine {
                        p.l2_normalize_rows();
                    }
                    Projected::F64(p)
                }
                Some(parts) => Projected::F32(self.project_f32(parts, chunk), &parts.bank),
            };
            let mut state = init(rows);
            for b in 0..self.shards.count() {
                let r = self.shards.band(b);
                let cols = r.start * a_dim..r.end * a_dim;
                let mut block = match &projected {
                    Projected::F64(p) => gemm_bt_parallel(
                        p.as_slice(),
                        rows,
                        a_dim,
                        &self.bank.as_slice()[cols],
                        r.len(),
                        self.threads,
                    ),
                    Projected::F32(p, bank32) => {
                        gemm_bt_parallel(p, rows, a_dim, &bank32[cols], r.len(), self.threads)
                            .into_iter()
                            .map(f64::from)
                            .collect()
                    }
                };
                self.apply_calibration(&mut block, r.start, r.end);
                band(&mut state, r, block);
            }
            done(start, state);
            start = end;
        }
    }

    /// The single-precision projection: cast the batch once, run project →
    /// normalize through the generic `f32` kernels.
    fn project_f32(&self, parts: &F32Parts, x: &Matrix) -> Vec<f32> {
        use crate::linalg::{gemm_parallel, l2_normalize_rows_slab, rbf_gram_parallel};
        let n = x.rows();
        let d_in = self.model.feature_dim();
        assert_eq!(
            x.cols(),
            d_in,
            "scores shape mismatch: {}x{} features vs projection dim {}",
            n,
            x.cols(),
            d_in
        );
        let x32 = cast_f32(x.as_slice());
        let mut proj: Vec<f32> = match &parts.model {
            F32Model::Projection { w, d, a } => gemm_parallel(&x32, n, *d, w, *a, self.threads),
            F32Model::Kernel {
                alpha,
                anchors,
                k,
                d,
                a,
                kernel,
            } => {
                let phi = match kernel {
                    KernelKind::Linear => gemm_bt_parallel(&x32, n, *d, anchors, *k, self.threads),
                    KernelKind::Rbf { width } => {
                        rbf_gram_parallel(&x32, n, *d, anchors, *k, *width as f32, self.threads)
                    }
                };
                gemm_parallel(&phi, n, *k, alpha, *a, self.threads)
            }
        };
        if self.similarity == Similarity::Cosine {
            l2_normalize_rows_slab(&mut proj, self.bank.cols());
        }
        proj
    }

    /// Argmax prediction per sample, computed chunk-by-chunk.
    ///
    /// Selection uses [`f64::total_cmp`], a total order, so results are
    /// deterministic even for non-finite scores. Positive NaN ranks above
    /// every finite score and surfaces in the output; negative NaN ranks
    /// below everything, and a NaN *feature* poisons its entire score row —
    /// callers that must detect corrupt inputs should check
    /// [`ScoringEngine::scores`] for non-finite values rather than rely on
    /// predictions alone.
    ///
    /// Each band's per-row argmax folds into a running best with a
    /// strictly-greater test; bands ascend and the in-band argmax is
    /// first-wins, so ties resolve to the lowest class id at every shard
    /// count.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let mut out = Vec::with_capacity(x.rows());
        self.score_pass(
            x,
            DEFAULT_CHUNK_ROWS,
            |rows| vec![(0usize, 0.0f64); rows],
            |best: &mut Vec<(usize, f64)>, r, block| {
                for (row_best, row) in best.iter_mut().zip(block.chunks(r.len())) {
                    let local = argmax(row);
                    let cand = (r.start + local, row[local]);
                    if r.start == 0 || cand.1.total_cmp(&row_best.1) == Ordering::Greater {
                        *row_best = cand;
                    }
                }
            },
            |_, best| out.extend(best.into_iter().map(|(class, _)| class)),
        );
        out
    }

    /// Guard for the `Result`-returning serving paths: a feature chunk whose
    /// width disagrees with the projection must surface as a typed error
    /// (e.g. a `.zsm` model served against a bundle from a different feature
    /// space), not as the `matmul` shape assert the in-memory `predict`
    /// reserves for programming errors.
    pub(crate) fn check_feature_width(&self, cols: usize) -> Result<(), ZslError> {
        let d = self.model.feature_dim();
        if cols != d {
            return Err(ZslError::Config(format!(
                "source features have {cols} columns but the engine's projection expects {d}; \
                 the model was trained on a different feature space"
            )));
        }
        Ok(())
    }

    /// The ONE generic batch-prediction entry point: argmax predictions over
    /// one split of any [`FeatureSource`], chunk by chunk.
    ///
    /// Projection, normalization, and scoring are all row-local, so the
    /// predictions are **bit-identical** to calling
    /// [`ScoringEngine::predict`] on the concatenated rows — for every source
    /// kind and chunk size. Only the `Vec<usize>` of predictions grows with
    /// the stream; peak feature memory stays one chunk (zero extra copies for
    /// in-memory sources, which lend their matrix as one borrowed chunk).
    ///
    /// A source whose feature width disagrees with the model (e.g. a `.zsm`
    /// engine from a different feature space) is a typed
    /// [`ZslError::Config`], never a panic.
    pub fn predict_source<S: FeatureSource + ?Sized>(
        &self,
        source: &S,
        split: SplitKind,
    ) -> Result<Vec<usize>, ZslError> {
        let mut out = Vec::new();
        for chunk in source.stream(split)? {
            let (x, _) = chunk?;
            self.check_feature_width(x.cols())?;
            out.extend(self.predict(&x));
        }
        Ok(out)
    }

    /// Best-`k` ranked predictions per sample (`k` clamped to the class
    /// count), computed chunk-by-chunk: each row streams its band scores
    /// through a bounded worst-first k-heap, ordered by descending score with
    /// ties broken by ascending class id — the order a full sort of the row
    /// gives — without holding more than one band of scores plus `k`
    /// candidates per row.
    pub fn predict_topk(&self, x: &Matrix, k: usize) -> Vec<TopK> {
        let k = k.min(self.num_classes());
        let mut out = Vec::with_capacity(x.rows());
        self.score_pass(
            x,
            DEFAULT_CHUNK_ROWS,
            |rows| vec![BinaryHeap::<Reverse<Cand>>::with_capacity(k + 1); rows],
            |heaps: &mut Vec<BinaryHeap<Reverse<Cand>>>, r, block| {
                for (heap, row) in heaps.iter_mut().zip(block.chunks(r.len())) {
                    for (j, &score) in row.iter().enumerate() {
                        offer(
                            heap,
                            k,
                            Cand {
                                score,
                                class: r.start + j,
                            },
                        );
                    }
                }
            },
            |_, heaps| out.extend(heaps.into_iter().map(ranked)),
        );
        out
    }
}

/// One row chunk projected (and, for cosine, normalized) in the engine's
/// scoring precision; the `f32` form carries the bank mirror it scores
/// against.
enum Projected<'a> {
    F64(Matrix),
    F32(Vec<f32>, &'a [f32]),
}

/// One streaming top-k candidate. The ordering is "better = greater": higher
/// score first (under [`f64::total_cmp`]), ties broken by *lower* class id,
/// so heap merges agree with a full sort on every tie, including ties that
/// straddle shard boundaries.
#[derive(Clone, Copy, Debug)]
struct Cand {
    score: f64,
    class: usize,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.class.cmp(&self.class))
    }
}

/// Push `cand` into a worst-first heap holding at most `k` candidates.
fn offer(heap: &mut BinaryHeap<Reverse<Cand>>, k: usize, cand: Cand) {
    if heap.len() < k {
        heap.push(Reverse(cand));
    } else if heap.peek().is_some_and(|worst| cand > worst.0) {
        heap.pop();
        heap.push(Reverse(cand));
    }
}

/// Drain a top-k heap into a best-first ranking.
fn ranked(heap: BinaryHeap<Reverse<Cand>>) -> TopK {
    let mut best: Vec<Cand> = heap.into_iter().map(|Reverse(cand)| cand).collect();
    best.sort_unstable_by(|a, b| b.cmp(a));
    TopK {
        classes: best.iter().map(|c| c.class).collect(),
        scores: best.iter().map(|c| c.score).collect(),
    }
}

/// The ONE construction-time validation behind every engine constructor:
/// empty, zero-width, or non-finite signature banks, attribute-dimension
/// mismatches and non-finite model parameters are reported as an error
/// message. [`ScoringEngine::try_new`] and the `.zsm` loaders turn it into a
/// typed error; [`ScoringEngine::new`] panics with it.
fn check_engine_parts(
    model: &TrainedModel,
    rows: usize,
    cols: usize,
    data: &[f64],
) -> Result<(), String> {
    if rows == 0 {
        return Err("scoring engine needs at least one class signature".into());
    }
    if cols == 0 {
        return Err(
            "scoring engine signature bank is zero-width (attr_dim = 0); every class needs at \
             least one attribute"
                .into(),
        );
    }
    debug_assert_eq!(data.len(), rows * cols);
    for (r, row) in data.chunks(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!(
                    "signature bank contains non-finite value {v} at row {r}, col {c}; clean the \
                     bank before constructing a scoring engine"
                ));
            }
        }
    }
    if model.attr_dim() != cols {
        return Err(format!(
            "model attribute dim {} != signature dim {}",
            model.attr_dim(),
            cols
        ));
    }
    if !model.is_finite() {
        return Err(format!(
            "{} model contains non-finite parameters; refuse to score with it",
            model.family()
        ));
    }
    Ok(())
}

/// Index of the row maximum under [`f64::total_cmp`], first index winning
/// ties. `total_cmp` gives NaN a defined (maximal, for positive NaN) rank, so
/// a NaN score is *selected* — and therefore visible downstream — rather than
/// losing every `>` comparison and silently defaulting to class 0.
fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate().skip(1) {
        if v.total_cmp(&row[best]) == Ordering::Greater {
            best = i;
        }
    }
    best
}

/// Fraction of samples where `predicted[i] == truth[i]`.
/// Panics if lengths differ; returns 0 for empty input.
pub fn overall_accuracy(predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let hits = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / truth.len() as f64
}

/// Incremental per-class accuracy counter — the one implementation behind
/// [`per_class_accuracy`] / [`mean_per_class_accuracy`] *and* the streamed
/// evaluators in [`crate::eval`].
///
/// Hits and totals are integers, so observation order (and chunking) cannot
/// perturb anything; the only float operations are the final `hits / counts`
/// divisions and the mean over defined classes. Batch and streamed metrics
/// sharing this type is what makes their bit-identity structural rather than
/// a documentation promise.
#[derive(Clone, Debug)]
pub struct ClassAccuracyCounter {
    hits: Vec<usize>,
    counts: Vec<usize>,
}

impl ClassAccuracyCounter {
    /// Counter over `num_classes` classes, all zero.
    pub fn new(num_classes: usize) -> Self {
        ClassAccuracyCounter {
            hits: vec![0; num_classes],
            counts: vec![0; num_classes],
        }
    }

    /// Fold one batch of aligned predictions and ground-truth labels.
    /// Panics on length mismatch or an out-of-range truth label, matching
    /// [`per_class_accuracy`].
    pub fn observe(&mut self, predicted: &[usize], truth: &[usize]) {
        assert_eq!(predicted.len(), truth.len(), "length mismatch");
        for (&p, &t) in predicted.iter().zip(truth) {
            assert!(t < self.counts.len(), "truth label {t} out of range");
            self.counts[t] += 1;
            if p == t {
                self.hits[t] += 1;
            }
        }
    }

    /// Per-class accuracies; classes with no observed samples yield `None`.
    pub fn per_class(&self) -> Vec<Option<f64>> {
        self.hits
            .iter()
            .zip(&self.counts)
            .map(|(&h, &c)| (c > 0).then(|| h as f64 / c as f64))
            .collect()
    }

    /// Mean of the defined per-class accuracies, 0 when none are defined.
    pub fn mean(&self) -> f64 {
        mean_defined(&self.per_class())
    }
}

/// Mean of the defined entries, 0 when none are defined — the one reduction
/// behind [`ClassAccuracyCounter::mean`], [`mean_per_class_accuracy`], and
/// the [`crate::eval::GzslReport`] accuracies, so every report derives its
/// headline numbers from identical float operations.
pub(crate) fn mean_defined(per_class: &[Option<f64>]) -> f64 {
    let defined: Vec<f64> = per_class.iter().copied().flatten().collect();
    if defined.is_empty() {
        return 0.0;
    }
    defined.iter().sum::<f64>() / defined.len() as f64
}

/// Per-class accuracy over `num_classes` classes. Classes with no ground-truth
/// samples yield `None`. One-shot wrapper over [`ClassAccuracyCounter`].
pub fn per_class_accuracy(
    predicted: &[usize],
    truth: &[usize],
    num_classes: usize,
) -> Vec<Option<f64>> {
    let mut counter = ClassAccuracyCounter::new(num_classes);
    counter.observe(predicted, truth);
    counter.per_class()
}

/// Mean of the defined per-class accuracies — the standard ZSL metric, which
/// is robust to class imbalance. Returns 0 when no class has samples.
pub fn mean_per_class_accuracy(predicted: &[usize], truth: &[usize], num_classes: usize) -> f64 {
    let mut counter = ClassAccuracyCounter::new(num_classes);
    counter.observe(predicted, truth);
    counter.mean()
}

/// Harmonic mean `2·s·u / (s + u)` of seen and unseen accuracy — the headline
/// generalized-ZSL metric. Returns 0 when both inputs are (near) zero.
pub fn harmonic_mean(seen_acc: f64, unseen_acc: f64) -> f64 {
    let denom = seen_acc + unseen_acc;
    if denom <= NORM_EPSILON {
        return 0.0;
    }
    2.0 * seen_acc * unseen_acc / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::model::ProjectionModel;

    /// Identity projection over 2-dim "attributes" with two orthogonal classes.
    fn toy_classifier(similarity: Similarity) -> ScoringEngine {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let signatures = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        ScoringEngine::new(model, signatures, similarity)
    }

    #[test]
    fn cosine_is_scale_invariant_dot_is_not() {
        let x = Matrix::from_rows(&[vec![10.0, 1.0], vec![0.1, 0.2]]);
        let cos = toy_classifier(Similarity::Cosine);
        assert_eq!(cos.predict(&x), vec![0, 1]);
        // Scaling a sample must not change its cosine prediction.
        let x_scaled = Matrix::from_rows(&[vec![1000.0, 100.0], vec![0.1, 0.2]]);
        assert_eq!(cos.predict(&x_scaled), vec![0, 1]);

        let dot = toy_classifier(Similarity::Dot);
        let dot_scores = dot.scores(&x);
        assert!((dot_scores.get(0, 0) - 10.0).abs() < 1e-12);
        let cos_scores = cos.scores(&x);
        assert!(cos_scores.get(0, 0) <= 1.0 + 1e-12);
    }

    #[test]
    fn topk_ranks_best_first_and_clamps_k() {
        let clf = toy_classifier(Similarity::Dot);
        let x = Matrix::from_rows(&[vec![0.2, 0.9]]);
        let ranked = clf.predict_topk(&x, 10);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].classes, vec![1, 0]);
        assert!(ranked[0].scores[0] >= ranked[0].scores[1]);
        let top1 = clf.predict_topk(&x, 1);
        assert_eq!(top1[0].classes, vec![1]);
    }

    #[test]
    fn accuracy_metrics_on_known_inputs() {
        let predicted = [0, 1, 1, 2, 2, 2];
        let truth = [0, 1, 0, 2, 2, 1];
        assert!((overall_accuracy(&predicted, &truth) - 4.0 / 6.0).abs() < 1e-12);

        let per_class = per_class_accuracy(&predicted, &truth, 4);
        assert_eq!(per_class[0], Some(0.5));
        assert_eq!(per_class[1], Some(0.5));
        assert_eq!(per_class[2], Some(1.0));
        assert_eq!(per_class[3], None);

        let mpca = mean_per_class_accuracy(&predicted, &truth, 4);
        assert!((mpca - (0.5 + 0.5 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one class signature")]
    fn classifier_rejects_empty_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        ScoringEngine::new(model, Matrix::zeros(0, 2), Similarity::Cosine);
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn classifier_rejects_zero_width_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::zeros(2, 0));
        ScoringEngine::new(model, Matrix::zeros(3, 0), Similarity::Cosine);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn classifier_rejects_nan_in_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, f64::NAN]]);
        ScoringEngine::new(model, bank, Similarity::Cosine);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn classifier_rejects_infinity_in_signature_bank() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, f64::INFINITY]]);
        ScoringEngine::new(model, bank, Similarity::Dot);
    }

    #[test]
    fn argmax_surfaces_nan_instead_of_defaulting_to_class_zero() {
        // Regression: the old `v > row[best]` loop lost every comparison
        // against NaN, so a NaN score anywhere right of class 0 silently
        // predicted class 0.
        assert_eq!(argmax(&[0.5, f64::NAN, 0.9]), 1);
        assert_eq!(argmax(&[1.0, f64::NAN]), 1);
        // Finite rows keep ordinary argmax semantics, first index wins ties.
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }

    #[test]
    fn nan_feature_scores_are_visible_and_predictions_deterministic() {
        // A NaN feature poisons its whole score row (every dot picks the NaN
        // up, even through zero signature entries). The scores expose the
        // corruption to callers, and predict/predict_topk stay deterministic
        // (total_cmp is a total order) instead of depending on incomparable
        // `>` results.
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let clf = ScoringEngine::new(model, bank, Similarity::Dot);
        let x = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![0.0, 1.0]]);
        let scores = clf.scores(&x);
        assert!(
            scores.row(0).iter().all(|v| v.is_nan()),
            "corruption hidden"
        );
        assert!(scores.row(1).iter().all(|v| v.is_finite()));
        // The clean sample is unaffected; the poisoned one resolves to the
        // lowest NaN-scored index under the documented total_cmp order.
        let predictions = clf.predict(&x);
        assert_eq!(predictions[1], 1);
        assert_eq!(predictions[0], 0);
        let ranked = clf.predict_topk(&x, 2);
        assert_eq!(ranked[0].classes, vec![0, 1]);
        assert!(ranked[0].scores.iter().all(|v| v.is_nan()));
    }

    /// The production top-k merge fed one whole row.
    fn heap_topk(row: &[f64], k: usize) -> TopK {
        let mut heap = BinaryHeap::new();
        for (class, &score) in row.iter().enumerate() {
            offer(&mut heap, k, Cand { score, class });
        }
        ranked(heap)
    }

    #[test]
    fn topk_heap_matches_full_sort_reference() {
        let mut rng = crate::data::Rng::new(2027);
        for z in [1usize, 2, 7, 64, 201] {
            let row: Vec<f64> = (0..z).map(|_| rng.normal()).collect();
            for k in [0usize, 1, 3, z / 2, z.saturating_sub(1), z, z + 5] {
                let k = k.min(z);
                // Reference: full (stable) sort then truncate.
                let mut order: Vec<usize> = (0..z).collect();
                order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
                order.truncate(k);
                let expected_scores: Vec<f64> = order.iter().map(|&c| row[c]).collect();

                let got = heap_topk(&row, k);
                assert_eq!(got.classes, order, "z={z} k={k}");
                assert_eq!(got.scores, expected_scores, "z={z} k={k}");
            }
        }
    }

    #[test]
    fn topk_handles_ties_and_nans_like_full_sort() {
        let row = [1.0, 1.0, f64::NAN, 0.5, 1.0];
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        for k in 0..=row.len() {
            let got = heap_topk(&row, k);
            assert_eq!(got.classes, order[..k], "k={k}");
        }
    }

    #[test]
    fn predict_on_zero_samples_returns_empty() {
        let clf = toy_classifier(Similarity::Cosine);
        let x = Matrix::zeros(0, 2);
        assert!(clf.predict(&x).is_empty());
        assert!(clf.predict_topk(&x, 1).is_empty());
        let scores = clf.scores(&x);
        assert_eq!((scores.rows(), scores.cols()), (0, 2));
    }

    #[test]
    fn single_class_bank_always_predicts_class_zero() {
        let model = ProjectionModel::from_weights(Matrix::identity(2));
        let bank = Matrix::from_rows(&[vec![0.3, 0.7]]);
        let clf = ScoringEngine::new(model, bank, Similarity::Cosine);
        let x = Matrix::from_rows(&[vec![5.0, -1.0], vec![-2.0, 0.4]]);
        assert_eq!(clf.predict(&x), vec![0, 0]);
        let ranked = clf.predict_topk(&x, 4);
        assert_eq!(ranked[0].classes, vec![0]);
        assert_eq!(ranked[1].classes, vec![0]);
    }

    #[test]
    fn engine_caches_normalized_bank_and_streams_chunks() {
        let model = ProjectionModel::from_weights(Matrix::identity(3));
        let bank = Matrix::from_rows(&[vec![3.0, 0.0, 0.0], vec![0.0, 0.0, 5.0]]);
        let engine = ScoringEngine::new(model, bank, Similarity::Cosine);
        // Bank was normalized once at construction.
        for r in 0..engine.num_classes() {
            let norm: f64 = engine
                .signatures()
                .row(r)
                .iter()
                .map(|v| v * v)
                .sum::<f64>();
            assert!((norm - 1.0).abs() < 1e-12);
        }

        let mut rng = crate::data::Rng::new(9);
        let x = Matrix::from_vec(10, 3, (0..30).map(|_| rng.normal()).collect());
        let full = engine.scores(&x);
        for chunk_rows in [0usize, 1, 3, 10, 64] {
            let mut seen_rows = 0;
            let mut stitched = Vec::new();
            engine.scores_chunked(&x, chunk_rows, |offset, chunk| {
                assert_eq!(offset, seen_rows);
                assert_eq!(chunk.cols(), 2);
                seen_rows += chunk.rows();
                stitched.extend_from_slice(chunk.as_slice());
            });
            assert_eq!(seen_rows, 10);
            assert_eq!(stitched, full.as_slice(), "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn predict_source_matches_predict_on_every_split() {
        let ds = crate::data::SyntheticConfig::new()
            .classes(6, 2)
            .seed(8)
            .build();
        let model = crate::model::EszslConfig::new()
            .build()
            .train(&ds.train_x, &ds.train_labels, &ds.seen_signatures)
            .expect("train");
        let engine = ScoringEngine::new(model, ds.all_signatures(), Similarity::Cosine);
        for (split, x) in [
            (SplitKind::Trainval, &ds.train_x),
            (SplitKind::TestSeen, &ds.test_seen_x),
            (SplitKind::TestUnseen, &ds.test_unseen_x),
        ] {
            assert_eq!(
                engine.predict_source(&ds, split).expect("predict_source"),
                engine.predict(x),
                "{split:?}"
            );
        }
    }

    #[test]
    fn engine_results_identical_across_thread_counts() {
        let mut rng = crate::data::Rng::new(33);
        let w = Matrix::from_vec(4, 3, (0..12).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(5, 3, (0..15).map(|_| rng.normal()).collect());
        let x = Matrix::from_vec(40, 4, (0..160).map(|_| rng.normal()).collect());
        let mut baseline =
            ScoringEngine::new(ProjectionModel::from_weights(w), bank, Similarity::Cosine);
        baseline.set_threads(1);
        for threads in [2usize, 4, 9] {
            let mut engine = baseline.clone();
            engine.set_threads(threads);
            assert_eq!(
                engine.scores(&x).as_slice(),
                baseline.scores(&x).as_slice(),
                "threads={threads}"
            );
            assert_eq!(engine.predict(&x), baseline.predict(&x));
        }
    }

    #[test]
    fn f32_precision_tracks_f64_scores_and_is_thread_invariant() {
        let mut rng = crate::data::Rng::new(0xF32);
        let w = Matrix::from_vec(6, 4, (0..24).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(5, 4, (0..20).map(|_| rng.normal()).collect());
        let x = Matrix::from_vec(32, 6, (0..192).map(|_| rng.normal()).collect());
        let mut f64_engine =
            ScoringEngine::new(ProjectionModel::from_weights(w), bank, Similarity::Cosine);
        f64_engine.set_threads(1);
        assert_eq!(f64_engine.precision(), ScoringPrecision::F64);
        let f32_engine = f64_engine.clone().with_precision(ScoringPrecision::F32);
        assert_eq!(f32_engine.precision(), ScoringPrecision::F32);
        let reference = f32_engine.scores(&x);
        // Single precision tracks double to f32 roundoff on these magnitudes.
        let drift = reference.max_abs_diff(&f64_engine.scores(&x));
        assert!(
            drift > 0.0 && drift < 1e-4,
            "f32 drift {drift} out of range"
        );
        // Bit-identical across thread counts within the f32 precision.
        for threads in [2usize, 4, 9] {
            let mut engine = f32_engine.clone();
            engine.set_threads(threads);
            assert_eq!(
                engine.scores(&x).as_slice(),
                reference.as_slice(),
                "threads={threads}"
            );
        }
        // Round-tripping back to f64 restores the exact double-precision path.
        let restored = f32_engine.clone().with_precision(ScoringPrecision::F64);
        assert_eq!(
            restored.scores(&x).as_slice(),
            f64_engine.scores(&x).as_slice()
        );
    }

    #[test]
    fn scoring_precision_parses_and_displays_round_trip() {
        for p in [ScoringPrecision::F64, ScoringPrecision::F32] {
            assert_eq!(p.to_string().parse::<ScoringPrecision>(), Ok(p));
        }
        assert_eq!("F32".parse::<ScoringPrecision>(), Ok(ScoringPrecision::F32));
        assert!("f16".parse::<ScoringPrecision>().is_err());
    }

    #[test]
    fn similarity_parses_and_displays_round_trip() {
        for sim in [Similarity::Cosine, Similarity::Dot] {
            assert_eq!(sim.to_string().parse::<Similarity>(), Ok(sim));
        }
        assert_eq!("COSINE".parse::<Similarity>(), Ok(Similarity::Cosine));
        assert!("euclidean".parse::<Similarity>().is_err());
    }

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(0.8, 0.4) - 2.0 * 0.8 * 0.4 / 1.2).abs() < 1e-12);
        assert_eq!(harmonic_mean(0.0, 0.9), 0.0);
        assert_eq!(harmonic_mean(0.0, 0.0), 0.0);
    }
}
