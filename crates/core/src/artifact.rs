//! Persistable model artifacts: the versioned `.zsm` format behind
//! [`ScoringEngine::save`] / [`ScoringEngine::load`].
//!
//! A served deployment should boot from a small, cheap-to-load artifact —
//! not re-solve the closed form against the training set. A `.zsm` file
//! captures everything a [`ScoringEngine`] needs at serving time:
//!
//! | offset | size  | field |
//! |-------:|------:|-------|
//! | 0      | 4     | magic `"ZSMF"` |
//! | 4      | 2     | version (= 2; version-1 files still load) |
//! | 6      | 2     | flags (bit 0: bank stored pre-normalized; bits 1-3, v2 only: score in f32, bank 64-byte aligned, calibration block present) |
//! | 8      | 1     | similarity (0 = cosine, 1 = dot) |
//! | 9      | 1     | model family (0 = eszsl, 1 = sae, 2 = kernel-eszsl; must be 0 in v1 files, where this byte was reserved) |
//! | 10     | 6     | reserved (= 0) |
//! | 16     | 8     | `feature_dim` d (u64) |
//! | 24     | 8     | `attr_dim` a (u64) |
//! | 32     | 8     | `class_count` z (u64) |
//! | 40     | 8     | provenance metadata byte length m (u64) |
//! | 48     | m     | provenance metadata, UTF-8 |
//! | 48+m   | 16    | calibration block (flag bit 3 only): `γ_cal` (f64) + seen-class prefix length (u64) |
//! | …      | …     | per-family model payload (below) |
//! | …      | 0-63  | zero padding to the next 64-byte boundary (flag bit 2 only) |
//! | …      | 8·z·a | signature bank, row-major f64, exactly as cached |
//!
//! Per-family model payload:
//!
//! - **eszsl / sae** (linear families): the projection `W : d x a`,
//!   row-major f64 — byte-compatible with the whole v1 payload.
//! - **kernel-eszsl**: a 24-byte kernel block — kernel code (u8; 0 = linear,
//!   1 = rbf), 7 reserved zero bytes, RBF width (f64; 0 for linear), anchor
//!   count `k` (u64) — then dual weights `alpha : k x a` and anchors
//!   `k x d`, row-major f64. This is everything kernel scoring needs: the
//!   daemon boots from the artifact alone.
//!
//! All integers and floats are little-endian. The signature bank is written
//! **exactly as the engine caches it** — already L2-normalized for cosine
//! engines (flags bit 0) — and the loader rebuilds the engine without
//! re-normalizing, so a save/load round trip reproduces scores and
//! predictions **bit-for-bit** (re-normalizing an already-normalized bank
//! would divide by norms of ≈1.0 and perturb the cached bits).
//!
//! The v2 writer zero-pads the bank payload to a 64-byte file offset (flag
//! bit 2, always set by this writer). In a page-aligned memory mapping that
//! makes the bank rows directly addressable as `f64`s, which is what lets
//! [`ScoringEngine::load_mapped`] borrow the bank zero-copy instead of heap-
//! copying it — the boot mode that matters when the class axis dominates the
//! artifact. Unaligned (legacy v1) files, non-Unix targets, and big-endian
//! hosts fall back to the heap path transparently.
//!
//! Writers always emit the current version; the reader accepts 1 and 2. A
//! v1 file parses exactly as it always did (its reserved family byte is
//! zero, so it loads as ESZSL); a v2 file whose version field is rewritten
//! to 1 fails the v1 reserved-byte check with a typed header error unless it
//! really is a plain ESZSL projection.
//!
//! Errors follow the `.zsb` loader's discipline: typed [`DataError`]s for
//! I/O failures, truncation, bad magic, version skew, unknown flags,
//! overflowing dimensions, non-finite payloads, and — because a loaded
//! cosine bank is trusted verbatim forever — bank rows whose L2 norm is not
//! 1 within [`ZSM_NORM_TOLERANCE`] — never a panic on untrusted bytes. `tests/model_artifacts.rs` covers the error paths and a
//! committed golden artifact; `tests/streaming_equiv.rs` checks that a
//! reloaded engine reproduces the golden fixture's `GzslReport` bits.

use crate::data::DataError;
use crate::error::ZslError;
use crate::infer::{Bank, ScoringEngine, ScoringPrecision, Similarity};
use crate::linalg::Matrix;
use crate::mmap::MappedFile;
use crate::model::ProjectionModel;
use crate::trainer::{KernelKind, KernelModel, ModelFamily, TrainedModel};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every `.zsm` model artifact.
pub const ZSM_MAGIC: [u8; 4] = *b"ZSMF";
/// Current `.zsm` format version (writers emit this; the reader also still
/// accepts version 1, whose files load as ESZSL).
pub const ZSM_VERSION: u16 = 2;
/// Oldest `.zsm` format version the reader accepts.
pub const ZSM_MIN_VERSION: u16 = 1;
/// Size of the kernel-family payload prelude: kernel code (1), reserved (7),
/// RBF width (8), anchor count (8).
const ZSM_KERNEL_BLOCK_LEN: usize = 24;
/// Size of the optional calibration block: `γ_cal` (f64) + seen-class prefix
/// length (u64).
const ZSM_CALIBRATION_BLOCK_LEN: usize = 16;
/// Fixed `.zsm` header length in bytes (the metadata block follows it).
pub const ZSM_HEADER_LEN: u64 = 48;
/// File-offset alignment of the signature bank payload in artifacts carrying
/// the bank-aligned flag (bit 2) — one cache line, and a multiple of 8 inside
/// a page-aligned mapping, so mapped bank bytes reinterpret as `f64`s in
/// place.
pub const ZSM_BANK_ALIGN: usize = 64;
/// How far a pre-normalized (cosine) bank row's L2 norm may drift from 1
/// before the loader rejects the artifact as corrupt. Banks normalized in
/// f64 land within ~1e-15 of 1, so this is generous for rounding and tight
/// against real corruption (an all-zero or rescaled row).
pub const ZSM_NORM_TOLERANCE: f64 = 1e-6;

/// Flags bit 0: the signature bank bytes are already L2-normalized (set iff
/// the similarity is cosine).
const FLAG_BANK_PRENORMALIZED: u16 = 1 << 0;

/// Flags bit 1 (v2 only): the engine scores in single precision. The payload
/// stays full f64 — training precision is never reduced on disk — and the
/// loader rebuilds the f32 mirror from it, so flipping the flag is always
/// lossless and reversible.
const FLAG_SCORE_F32: u16 = 1 << 1;

/// Flags bit 2 (v2 only): the bank payload starts on a [`ZSM_BANK_ALIGN`]
/// file offset, preceded by zero padding. Always set by the current writer;
/// the mmap boot path only borrows banks from files carrying it.
const FLAG_BANK_ALIGNED: u16 = 1 << 2;

/// Flags bit 3 (v2 only): a 16-byte calibration block (`γ_cal` + seen-class
/// prefix) follows the metadata. Written exactly when the engine carries a
/// persistable seen-prefix calibration, so uncalibrated artifacts are
/// byte-identical to what they were before calibration existed.
const FLAG_CALIBRATED: u16 = 1 << 3;

impl ScoringEngine {
    /// Persist this engine as a versioned `.zsm` artifact: projection `W`,
    /// cached signature bank (zero-padded to a 64-byte file offset so mmap
    /// boots can borrow it in place), similarity, normalization flag, any
    /// seen-prefix calibration, and the engine's provenance
    /// ([`ScoringEngine::metadata`]), which the loaders restore verbatim.
    ///
    /// The write is atomic: bytes land in a temporary file beside the target
    /// and are renamed over it, so a crash mid-save never leaves a truncated
    /// artifact where a serving process expects a bootable model, and a
    /// reader racing a re-save sees either the old file or the new one —
    /// never a partial write. (The rename-not-truncate discipline is also
    /// what keeps an *mmap-booted* reader's borrowed pages valid across a
    /// hot swap: the old inode lives until its last mapping drops.)
    ///
    /// Reloading reproduces predictions bit-for-bit; the worker-thread count
    /// and shard layout are runtime properties and are not stored. An engine
    /// carrying a cross-validation-internal calibration mask (as opposed to
    /// a seen-class prefix) cannot be persisted and is a typed error.
    pub fn save(&self, path: &Path) -> Result<(), ZslError> {
        let model = self.model();
        let metadata = self.metadata();
        let bank = self.signatures();
        if self.has_mask_calibration() {
            return Err(ZslError::Config(
                "cannot persist an engine carrying a cross-validation-internal calibration mask; \
                 only a seen-class prefix calibration round-trips through .zsm"
                    .into(),
            ));
        }
        // A cosine engine's cached bank must be unit-norm row by row — the
        // loader enforces exactly that (nothing downstream ever re-normalizes
        // a loaded bank), so refuse to write an artifact we would refuse to
        // read. The only way to get here is a degenerate all-zero signature
        // row, which `l2_normalize_rows` leaves at zero.
        if self.similarity() == Similarity::Cosine {
            if let Some(r) = first_non_unit_row(bank.as_slice(), bank.cols()) {
                return Err(ZslError::Config(format!(
                    "cannot persist cosine engine: cached signature bank row {r} has L2 norm \
                     {:.6e}, not 1 (an all-zero signature row cannot be cosine-scored and would \
                     be rejected at load)",
                    row_norm(bank.row(r))
                )));
            }
        }
        let d = model.feature_dim();
        let a = model.attr_dim();
        let z = bank.rows();
        let calibration = self.seen_calibration();
        let mut bytes = Vec::with_capacity(
            ZSM_HEADER_LEN as usize + metadata.len() + ZSM_BANK_ALIGN + 8 * (d * a + z * a),
        );
        bytes.extend_from_slice(&ZSM_MAGIC);
        bytes.extend_from_slice(&ZSM_VERSION.to_le_bytes());
        let mut flags = if self.similarity() == Similarity::Cosine {
            FLAG_BANK_PRENORMALIZED
        } else {
            0
        };
        if self.precision() == ScoringPrecision::F32 {
            flags |= FLAG_SCORE_F32;
        }
        flags |= FLAG_BANK_ALIGNED;
        if calibration.is_some() {
            flags |= FLAG_CALIBRATED;
        }
        bytes.extend_from_slice(&flags.to_le_bytes());
        bytes.push(match self.similarity() {
            Similarity::Cosine => 0,
            Similarity::Dot => 1,
        });
        bytes.push(model.family().code());
        bytes.extend_from_slice(&[0u8; 6]); // reserved
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
        bytes.extend_from_slice(&(a as u64).to_le_bytes());
        bytes.extend_from_slice(&(z as u64).to_le_bytes());
        bytes.extend_from_slice(&(metadata.len() as u64).to_le_bytes());
        bytes.extend_from_slice(metadata.as_bytes());
        if let Some((gamma_cal, seen)) = calibration {
            bytes.extend_from_slice(&gamma_cal.to_le_bytes());
            bytes.extend_from_slice(&(seen as u64).to_le_bytes());
        }
        match model {
            TrainedModel::Eszsl(m) | TrainedModel::Sae(m) => {
                for &v in m.weights().as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            TrainedModel::Kernel(km) => {
                bytes.push(km.kernel().code());
                bytes.extend_from_slice(&[0u8; 7]); // reserved
                let width = match km.kernel() {
                    KernelKind::Linear => 0.0f64,
                    KernelKind::Rbf { width } => width,
                };
                bytes.extend_from_slice(&width.to_le_bytes());
                bytes.extend_from_slice(&(km.anchors().rows() as u64).to_le_bytes());
                for &v in km.alpha().as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                for &v in km.anchors().as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        // Pad the bank to the next 64-byte file offset (FLAG_BANK_ALIGNED).
        // The pad length is a pure function of the preceding byte count, so
        // the reader recomputes it instead of storing it.
        let pad = bank_pad(bytes.len());
        bytes.resize(bytes.len() + pad, 0);
        for &v in bank.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // Crash-safe replace (unique temp sibling + fsync + rename) — the
        // pattern lives in `fsutil` and is shared with the bundle writers.
        crate::fsutil::write_atomic(path, &bytes)
            .map_err(|e| ZslError::Data(DataError::io(e.path, e.source)))
    }

    /// Load a `.zsm` artifact written by [`ScoringEngine::save`], provenance
    /// metadata included. The engine uses one worker thread per available
    /// core, like [`ScoringEngine::try_new`].
    ///
    /// Every header field is validated before any payload is interpreted:
    /// magic, version, flags, similarity byte, reserved bytes, non-zero
    /// dimensions, checked-arithmetic payload size (a crafted header cannot
    /// wrap the length check or abort on allocation), exact file length
    /// (truncation *and* trailing garbage are errors), UTF-8 metadata,
    /// alignment padding actually zero, calibration block sanity, and finite
    /// `W`/bank values.
    pub fn load(path: &Path) -> Result<ScoringEngine, ZslError> {
        read_zsm(path).map_err(ZslError::Data)
    }

    /// [`ScoringEngine::load`] in opt-in mmap mode: the file is
    /// memory-mapped and — when it is a v2 artifact with an aligned bank, on
    /// a little-endian Unix host — the engine *borrows* the bank rows from
    /// the mapping instead of heap-copying them, so boot-time resident memory
    /// stays O(model) no matter how large the class axis is
    /// ([`ScoringEngine::bank_resident_bytes`] reports 0 and
    /// [`ScoringEngine::is_bank_mapped`] reports `true`).
    ///
    /// Exactly the same validation runs as on the heap path, against the
    /// mapped bytes. Unaligned or legacy (v1) artifacts, non-Unix targets,
    /// big-endian hosts, and mapping failures all fall back to the heap
    /// loader transparently — the result differs only in where the bank
    /// lives, never in any scored bit.
    ///
    /// Mapping is opt-in because a mapped artifact must never be rewritten in
    /// place: `save` replaces files by rename, but a `cp` over the file
    /// truncates the mapped inode and the next bank read faults (`SIGBUS`).
    pub fn load_mapped(path: &Path) -> Result<ScoringEngine, ZslError> {
        read_zsm_mapped(path).map_err(ZslError::Data)
    }
}

/// Everything [`parse_zsm`] extracts from a `.zsm` byte image except the bank
/// payload itself, which stays in place (heap loaders copy it out, the mmap
/// loader borrows it).
struct ParsedZsm {
    model: TrainedModel,
    similarity: Similarity,
    score_f32: bool,
    metadata: String,
    /// `(γ_cal, seen-class prefix)` from the calibration block, if present.
    calibration: Option<(f64, usize)>,
    /// Byte offset of the (already finiteness- and norm-validated) bank.
    bank_offset: usize,
    /// Bank shape: `z` rows of `a` columns.
    bank_rows: usize,
    bank_cols: usize,
    /// Whether the file carries [`FLAG_BANK_ALIGNED`] (v2 writer output).
    aligned: bool,
}

/// Zero padding inserted before the bank when the payload so far ends at
/// byte offset `len` — the one formula shared by writer and reader.
fn bank_pad(len: usize) -> usize {
    (ZSM_BANK_ALIGN - len % ZSM_BANK_ALIGN) % ZSM_BANK_ALIGN
}

/// Parse and validate a complete `.zsm` byte image (a read file or a memory
/// mapping): every header, length, payload, padding, and bank check from the
/// format doc, shared verbatim by the heap and mmap loaders so the two paths
/// cannot drift. The bank bytes are validated (finite; unit-norm rows when
/// pre-normalized) but not copied.
fn parse_zsm(bytes: &[u8], path: &Path) -> Result<ParsedZsm, DataError> {
    let actual = bytes.len() as u64;
    if actual < ZSM_HEADER_LEN {
        return Err(DataError::Truncated {
            path: path.into(),
            expected: ZSM_HEADER_LEN,
            actual,
        });
    }

    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != ZSM_MAGIC {
        return Err(DataError::header(
            path,
            format!("bad magic {magic:?}, expected {ZSM_MAGIC:?} (\"ZSMF\")"),
        ));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if !(ZSM_MIN_VERSION..=ZSM_VERSION).contains(&version) {
        return Err(DataError::header(
            path,
            format!(
                "unsupported version {version}, this reader handles \
                 {ZSM_MIN_VERSION}-{ZSM_VERSION}"
            ),
        ));
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    // v1 defined only bit 0; the f32-scoring, aligned-bank, and calibration
    // bits arrived with v2, so a v1 file carrying any of them is corrupt
    // rather than merely newer.
    let known_flags = if version == 1 {
        FLAG_BANK_PRENORMALIZED
    } else {
        FLAG_BANK_PRENORMALIZED | FLAG_SCORE_F32 | FLAG_BANK_ALIGNED | FLAG_CALIBRATED
    };
    if flags & !known_flags != 0 {
        return Err(DataError::header(
            path,
            format!(
                "unknown flags 0x{flags:04x}, version {version} defines only \
                 0x{known_flags:04x} (bit 0: pre-normalized bank; bits 1-3, v2 only: f32 \
                 scoring, aligned bank, calibration block)"
            ),
        ));
    }
    let similarity = match bytes[8] {
        0 => Similarity::Cosine,
        1 => Similarity::Dot,
        other => {
            return Err(DataError::header(
                path,
                format!("unknown similarity code {other}, expected 0 (cosine) or 1 (dot)"),
            ));
        }
    };
    let prenormalized = flags & FLAG_BANK_PRENORMALIZED != 0;
    if prenormalized != (similarity == Similarity::Cosine) {
        return Err(DataError::header(
            path,
            format!(
                "flags claim pre-normalized={prenormalized} but similarity is {similarity}; \
                 cosine engines always store a normalized bank and dot engines never do"
            ),
        ));
    }
    // Byte 9 is the model family in v2; in v1 it was reserved (= 0), which is
    // exactly the ESZSL family code — so a genuine v1 file decodes as ESZSL,
    // and a v2 SAE/kernel file whose version was rewritten to 1 fails the
    // reserved-zero check rather than being misread as a projection.
    let family = if version == 1 {
        if bytes[9..16].iter().any(|&b| b != 0) {
            return Err(DataError::header(
                path,
                "reserved header bytes are non-zero",
            ));
        }
        ModelFamily::Eszsl
    } else {
        let code = bytes[9];
        let Some(family) = ModelFamily::from_code(code) else {
            return Err(DataError::header(
                path,
                format!("unknown model family code {code}, expected 0 (eszsl), 1 (sae), or 2 (kernel-eszsl)"),
            ));
        };
        if bytes[10..16].iter().any(|&b| b != 0) {
            return Err(DataError::header(
                path,
                "reserved header bytes are non-zero",
            ));
        }
        family
    };

    let d = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let a = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let z = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
    let meta_len = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes"));
    if d == 0 || a == 0 || z == 0 {
        return Err(DataError::header(
            path,
            format!("zero-sized model: feature_dim={d}, attr_dim={a}, class_count={z}"),
        ));
    }

    // Header fields are untrusted: checked arithmetic keeps crafted dims from
    // wrapping the expected length back into range, and the usize conversions
    // reject payloads unaddressable on this platform.
    let overflow = || {
        DataError::header(
            path,
            format!(
                "header dims overflow: feature_dim={d} x attr_dim={a}, class_count={z}, \
                 metadata_len={meta_len}"
            ),
        )
    };
    let calibrated = flags & FLAG_CALIBRATED != 0;
    let aligned = flags & FLAG_BANK_ALIGNED != 0;
    let cal_len = if calibrated {
        ZSM_CALIBRATION_BLOCK_LEN as u64
    } else {
        0
    };
    let prefix = ZSM_HEADER_LEN
        .checked_add(meta_len)
        .and_then(|p| p.checked_add(cal_len))
        .ok_or_else(overflow)?;
    let bank_bytes = 8u64
        .checked_mul(z)
        .and_then(|b| b.checked_mul(a))
        .ok_or_else(overflow)?;
    // The kernel family stores its anchor count inside the payload, so the
    // expected file length depends on payload bytes — which must themselves
    // be bounds-checked before they are read.
    let (model_bytes, kernel_parts) = match family {
        ModelFamily::Eszsl | ModelFamily::Sae => {
            let w_bytes = 8u64
                .checked_mul(d)
                .and_then(|b| b.checked_mul(a))
                .ok_or_else(overflow)?;
            (w_bytes, None)
        }
        ModelFamily::KernelEszsl => {
            let block_end = prefix
                .checked_add(ZSM_KERNEL_BLOCK_LEN as u64)
                .ok_or_else(overflow)?;
            if actual < block_end {
                return Err(DataError::Truncated {
                    path: path.into(),
                    expected: block_end,
                    actual,
                });
            }
            let p = prefix as usize;
            let code = bytes[p];
            if bytes[p + 1..p + 8].iter().any(|&b| b != 0) {
                return Err(DataError::header(
                    path,
                    "reserved kernel block bytes are non-zero",
                ));
            }
            let width = f64::from_le_bytes(bytes[p + 8..p + 16].try_into().expect("8 bytes"));
            let k = u64::from_le_bytes(bytes[p + 16..p + 24].try_into().expect("8 bytes"));
            let Some(kernel) = KernelKind::from_code(code, width) else {
                return Err(DataError::header(
                    path,
                    format!("unknown kernel code {code}, expected 0 (linear) or 1 (rbf)"),
                ));
            };
            match kernel {
                KernelKind::Linear if width != 0.0 => {
                    return Err(DataError::header(
                        path,
                        format!("linear kernel stores a non-zero width {width}"),
                    ));
                }
                KernelKind::Rbf { width } if !(width.is_finite() && width > 0.0) => {
                    return Err(DataError::header(
                        path,
                        format!("rbf kernel width must be positive and finite, got {width}"),
                    ));
                }
                _ => {}
            }
            if k == 0 {
                return Err(DataError::header(path, "kernel payload has zero anchors"));
            }
            let blob = a
                .checked_add(d)
                .and_then(|cols| 8u64.checked_mul(k)?.checked_mul(cols))
                .and_then(|b| b.checked_add(ZSM_KERNEL_BLOCK_LEN as u64))
                .ok_or_else(overflow)?;
            (blob, Some((kernel, k)))
        }
    };
    let model_end = prefix.checked_add(model_bytes).ok_or_else(overflow)?;
    // The pad length is recomputed from the same formula the writer used, so
    // it is never attacker-controlled; it only shifts where the bank starts.
    let pad = if aligned {
        bank_pad(usize::try_from(model_end % (ZSM_BANK_ALIGN as u64)).expect("< 64"))
    } else {
        0
    };
    let expected = model_end
        .checked_add(pad as u64)
        .and_then(|x| x.checked_add(bank_bytes))
        .ok_or_else(overflow)?;
    let dims = usize::try_from(d)
        .ok()
        .zip(usize::try_from(a).ok())
        .zip(usize::try_from(z).ok())
        .and_then(|((d, a), z)| {
            d.checked_mul(a)?.checked_mul(8)?;
            z.checked_mul(a)?.checked_mul(8)?;
            Some((d, a, z))
        });
    let Some((d, a, z)) = dims else {
        return Err(DataError::header(
            path,
            format!(
                "header dims overflow usize on this platform: feature_dim={d} x attr_dim={a}, \
                 class_count={z}"
            ),
        ));
    };
    if actual < expected {
        return Err(DataError::Truncated {
            path: path.into(),
            expected,
            actual,
        });
    }
    if actual > expected {
        return Err(DataError::header(
            path,
            format!(
                "{} trailing bytes after the model payload",
                actual - expected
            ),
        ));
    }

    let meta_end = ZSM_HEADER_LEN as usize + meta_len as usize;
    let metadata = std::str::from_utf8(&bytes[ZSM_HEADER_LEN as usize..meta_end])
        .map_err(|_| DataError::header(path, "provenance metadata is not valid UTF-8"))?
        .to_string();

    let calibration = if calibrated {
        let gamma_cal =
            f64::from_le_bytes(bytes[meta_end..meta_end + 8].try_into().expect("8 bytes"));
        let seen = u64::from_le_bytes(
            bytes[meta_end + 8..meta_end + 16]
                .try_into()
                .expect("8 bytes"),
        );
        if !gamma_cal.is_finite() || gamma_cal <= 0.0 {
            return Err(DataError::header(
                path,
                format!(
                    "calibration block carries gamma_cal={gamma_cal}, expected a finite positive \
                     penalty (uncalibrated engines omit the block entirely)"
                ),
            ));
        }
        if seen > z as u64 {
            return Err(DataError::header(
                path,
                format!("calibration block claims {seen} seen classes but the bank has only {z}"),
            ));
        }
        Some((gamma_cal, seen as usize))
    } else {
        None
    };

    let parse_block = |what: &str, start: usize, rows: usize, cols: usize| {
        let mut data = Vec::with_capacity(rows * cols);
        for (i, b) in bytes[start..start + 8 * rows * cols]
            .chunks_exact(8)
            .enumerate()
        {
            let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            if !v.is_finite() {
                return Err(DataError::header(
                    path,
                    format!(
                        "non-finite {what} value {v} at row {}, col {}",
                        i / cols,
                        i % cols
                    ),
                ));
            }
            data.push(v);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    };
    // `expected == actual` and the byte image is in memory, so every payload
    // extent below fits usize on this platform.
    let prefix = prefix as usize;
    let model = match kernel_parts {
        None => {
            let w = parse_block("weight", prefix, d, a)?;
            let m = ProjectionModel::from_weights(w);
            match family {
                ModelFamily::Eszsl => TrainedModel::Eszsl(m),
                ModelFamily::Sae => TrainedModel::Sae(m),
                ModelFamily::KernelEszsl => unreachable!("kernel family carries kernel_parts"),
            }
        }
        Some((kernel, k)) => {
            let k = k as usize;
            let alpha_start = prefix + ZSM_KERNEL_BLOCK_LEN;
            let alpha = parse_block("dual weight", alpha_start, k, a)?;
            let anchors = parse_block("anchor", alpha_start + 8 * k * a, k, d)?;
            KernelModel::from_parts(alpha, anchors, kernel)
                .map(TrainedModel::Kernel)
                .map_err(|e| DataError::header(path, format!("inconsistent kernel payload: {e}")))?
        }
    };

    let bank_offset = prefix + model_bytes as usize + pad;
    if bytes[bank_offset - pad..bank_offset]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(DataError::header(
            path,
            "bank alignment padding contains non-zero bytes",
        ));
    }

    // The bank is validated in place — finite values, and (for a
    // pre-normalized cosine bank, which the engine trusts verbatim forever)
    // unit-norm rows — so the mmap loader can borrow these exact bytes
    // without a heap copy. The norm accumulates squares in ascending column
    // order then square-roots, identical float ops to the heap path's
    // `Matrix`-based check.
    let bank_end = bank_offset + 8 * z * a;
    for (r, row) in bytes[bank_offset..bank_end].chunks_exact(8 * a).enumerate() {
        let mut sq = 0.0f64;
        for (c, b) in row.chunks_exact(8).enumerate() {
            let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            if !v.is_finite() {
                return Err(DataError::header(
                    path,
                    format!("non-finite signature value {v} at row {r}, col {c}"),
                ));
            }
            sq += v * v;
        }
        if prenormalized && (sq.sqrt() - 1.0).abs() > ZSM_NORM_TOLERANCE {
            return Err(DataError::header(
                path,
                format!(
                    "cosine signature bank row {r} has L2 norm {:.6e}, expected 1 within \
                     {ZSM_NORM_TOLERANCE:e}; the pre-normalized bank is corrupt",
                    sq.sqrt()
                ),
            ));
        }
    }

    Ok(ParsedZsm {
        model,
        similarity,
        score_f32: flags & FLAG_SCORE_F32 != 0,
        metadata,
        calibration,
        bank_offset,
        bank_rows: z,
        bank_cols: a,
        aligned,
    })
}

/// Copy the validated bank payload out of a `.zsm` byte image.
fn copy_bank(bytes: &[u8], parsed: &ParsedZsm) -> Matrix {
    let (z, a) = (parsed.bank_rows, parsed.bank_cols);
    let data = bytes[parsed.bank_offset..parsed.bank_offset + 8 * z * a]
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
        .collect();
    Matrix::from_vec(z, a, data)
}

/// The parse → engine tail shared by both loaders: assemble the engine
/// over `bank` exactly as stored (no re-normalization, which is what makes
/// the round trip bit-identical), then restore the scoring precision,
/// calibration and provenance the file carries. Validation failures — shape
/// or finiteness inconsistencies a crafted header could smuggle past
/// [`parse_zsm`] — are typed errors: this is the serving boot path, and it
/// must never panic on untrusted bytes.
fn build_engine(parsed: ParsedZsm, bank: Bank, path: &Path) -> Result<ScoringEngine, DataError> {
    let mut engine = ScoringEngine::from_bank(parsed.model, bank, parsed.similarity)
        .map_err(|msg| DataError::header(path, format!("inconsistent model payload: {msg}")))?;
    if parsed.score_f32 {
        engine = engine.with_precision(ScoringPrecision::F32);
    }
    if let Some((gamma_cal, seen)) = parsed.calibration {
        engine = engine
            .with_calibration(gamma_cal, seen)
            .map_err(|e| DataError::header(path, format!("inconsistent calibration block: {e}")))?;
    }
    Ok(engine.with_metadata(parsed.metadata))
}

/// Heap loader: read the whole file, parse, copy the bank out.
fn read_zsm(path: &Path) -> Result<ScoringEngine, DataError> {
    let bytes = std::fs::read(path).map_err(|e| DataError::io(path, e))?;
    let parsed = parse_zsm(&bytes, path)?;
    let bank = Bank::Owned(copy_bank(&bytes, &parsed));
    build_engine(parsed, bank, path)
}

/// Mmap loader: map the file, parse against the mapped bytes, and borrow the
/// bank zero-copy when the layout allows it; otherwise copy to the heap from
/// the same mapping (legacy/unaligned files) or fall back to [`read_zsm`]
/// entirely (targets or files that cannot map).
fn read_zsm_mapped(path: &Path) -> Result<ScoringEngine, DataError> {
    let file = std::fs::File::open(path).map_err(|e| DataError::io(path, e))?;
    let len = file.metadata().map_err(|e| DataError::io(path, e))?.len();
    let mapped = usize::try_from(len)
        .ok()
        .and_then(|len| MappedFile::map(&file, len));
    let Some(map) = mapped else {
        // Non-Unix target, zero-length file, or a failed syscall: the heap
        // loader produces the identical engine (or the identical typed
        // error) from a plain read.
        return read_zsm(path);
    };
    let parsed = parse_zsm(map.as_bytes(), path)?;
    // Zero-copy needs the writer's 64-byte alignment (so the mapped bank is
    // 8-byte aligned) and a little-endian host (the payload is LE f64). The
    // offset check is structural for FLAG_BANK_ALIGNED files but kept as a
    // cheap guard.
    let zero_copy = parsed.aligned
        && parsed.bank_offset % ZSM_BANK_ALIGN == 0
        && cfg!(target_endian = "little");
    let bank = if zero_copy {
        Bank::mapped(
            Arc::new(map),
            parsed.bank_offset,
            parsed.bank_rows,
            parsed.bank_cols,
        )
    } else {
        Bank::Owned(copy_bank(map.as_bytes(), &parsed))
    };
    build_engine(parsed, bank, path)
}

/// L2 norm of one bank row slice.
fn row_norm(row: &[f64]) -> f64 {
    row.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Index of the first row whose L2 norm is not within
/// [`ZSM_NORM_TOLERANCE`] of 1, if any — the check behind the cosine save
/// guard (the load-time gate runs the same float ops in [`parse_zsm`]).
fn first_non_unit_row(data: &[f64], cols: usize) -> Option<usize> {
    data.chunks_exact(cols)
        .position(|row| (row_norm(row) - 1.0).abs() > ZSM_NORM_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Rng;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("zsl_artifact_{}_{tag}.zsm", std::process::id()))
    }

    fn random_engine(seed: u64, d: usize, a: usize, z: usize, sim: Similarity) -> ScoringEngine {
        let mut rng = Rng::new(seed);
        let w = Matrix::from_vec(d, a, (0..d * a).map(|_| rng.normal()).collect());
        let bank = Matrix::from_vec(z, a, (0..z * a).map(|_| rng.normal()).collect());
        ScoringEngine::new(ProjectionModel::from_weights(w), bank, sim)
    }

    // The bit-identical round-trip property lives in
    // tests/model_artifacts.rs (one copy, the integration suite); the inline
    // tests below cover only what that suite does not.

    #[test]
    fn empty_metadata_and_missing_file_behave() {
        let path = temp_path("meta");
        let engine = random_engine(5, 3, 2, 4, Similarity::Dot);
        engine.save(&path).expect("save");
        assert_eq!(ScoringEngine::load(&path).expect("load").metadata(), "");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            ScoringEngine::load(&path),
            Err(ZslError::Data(DataError::Io { .. }))
        ));
    }

    #[test]
    fn bank_payload_is_64_byte_aligned_and_padding_round_trips() {
        // Sweep metadata lengths so the pre-bank byte count crosses several
        // alignment residues, including zero pad.
        for meta_len in [0usize, 1, 7, 15, 16, 63, 64, 100] {
            let path = temp_path(&format!("align{meta_len}"));
            let metadata = "m".repeat(meta_len);
            let engine = random_engine(meta_len as u64 + 11, 3, 2, 4, Similarity::Cosine)
                .with_metadata(metadata.clone());
            engine.save(&path).expect("save");
            let raw = std::fs::read(&path).expect("read");
            let model_end = ZSM_HEADER_LEN as usize + meta_len + 8 * 3 * 2;
            let bank_offset = model_end + bank_pad(model_end);
            assert_eq!(bank_offset % ZSM_BANK_ALIGN, 0, "meta_len={meta_len}");
            assert_eq!(raw.len(), bank_offset + 8 * 4 * 2, "meta_len={meta_len}");
            let back = ScoringEngine::load(&path).expect("load");
            assert_eq!(back.metadata(), metadata);
            assert_eq!(back.signatures().as_slice(), engine.signatures().as_slice());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn non_zero_alignment_padding_is_a_typed_header_error() {
        let path = temp_path("padcorrupt");
        let engine = random_engine(21, 3, 2, 4, Similarity::Dot).with_metadata("m");
        engine.save(&path).expect("save");
        let mut raw = std::fs::read(&path).expect("read");
        let model_end = ZSM_HEADER_LEN as usize + 1 + 8 * 3 * 2;
        let pad = bank_pad(model_end);
        assert!(pad > 0, "test needs a real pad region");
        raw[model_end] = 0xAB;
        std::fs::write(&path, &raw).expect("rewrite");
        match ScoringEngine::load(&path) {
            Err(ZslError::Data(DataError::Header { message, .. })) => {
                assert!(message.contains("padding"), "unexpected detail: {message}");
            }
            other => panic!("expected padding header error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn calibration_block_round_trips_and_rejects_corruption() {
        let path = temp_path("cal");
        let engine = random_engine(31, 3, 2, 6, Similarity::Cosine)
            .with_calibration(0.25, 4)
            .expect("calibrate")
            .with_metadata("prov");
        engine.save(&path).expect("save");
        let back = ScoringEngine::load(&path).expect("load");
        assert_eq!(back.metadata(), "prov");
        assert_eq!(back.seen_calibration(), Some((0.25, 4)));
        // Resave is byte-identical (the calibration block is deterministic).
        let path2 = temp_path("cal2");
        back.save(&path2).expect("resave");
        assert_eq!(
            std::fs::read(&path).expect("a"),
            std::fs::read(&path2).expect("b")
        );
        // Corrupt the seen count to exceed the class count.
        let mut raw = std::fs::read(&path).expect("read");
        let seen_at = ZSM_HEADER_LEN as usize + 4 + 8;
        raw[seen_at..seen_at + 8].copy_from_slice(&1000u64.to_le_bytes());
        std::fs::write(&path, &raw).expect("rewrite");
        match ScoringEngine::load(&path) {
            Err(ZslError::Data(DataError::Header { message, .. })) => {
                assert!(message.contains("seen classes"), "unexpected: {message}");
            }
            other => panic!("expected calibration header error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn mask_calibrated_engines_refuse_to_persist() {
        let path = temp_path("mask");
        let engine = random_engine(41, 3, 2, 4, Similarity::Dot);
        let mask = std::sync::Arc::new(vec![true, false, true, false]);
        let engine = engine.with_calibration_mask(0.5, mask);
        match engine.save(&path) {
            Err(ZslError::Config(msg)) => assert!(msg.contains("mask"), "unexpected: {msg}"),
            other => panic!("expected config error, got {other:?}"),
        }
        assert!(!path.exists());
    }
}
