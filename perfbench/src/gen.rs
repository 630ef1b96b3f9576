//! Seeded input generation. Everything a workload feeds the program is made
//! here from the workload seed; the program under test only ever sees these
//! generated files and rows.

use std::path::{Path, PathBuf};
use zsl_core::data::{export_dataset, FeatureFormat};
use zsl_core::model::ProjectionModel;
use zsl_core::{Dataset, Matrix, Rng, ScoringEngine, Similarity};
use zsl_mat::mat5::mi;
use zsl_mat::{ArrayOpts, ByteOrder, Compression, MatWriter};

/// Shape of a generated GZSL dataset.
#[derive(Clone, Copy, Debug)]
pub struct DataShape {
    pub seen: usize,
    pub unseen: usize,
    pub attr_dim: usize,
    pub feature_dim: usize,
    pub train_per_class: usize,
    pub test_seen_per_class: usize,
    pub test_unseen_per_class: usize,
    pub noise: f64,
}

impl DataShape {
    pub fn samples(&self) -> usize {
        self.seen * (self.train_per_class + self.test_seen_per_class)
            + self.unseen * self.test_unseen_per_class
    }
}

/// Seed of what every dataset of a shape shares: class signatures, the
/// feature map, the training samples and the class-id numbering.
const WORLD_SEED: u64 = 0x2B_0A_1D;

/// A dataset in the regime of [`zsl_core::SyntheticConfig`]: features are a
/// linear image `M s_c` of the class signature plus Gaussian noise.
///
/// The task is fixed per shape — signatures, `M` and the training split come
/// from [`WORLD_SEED`] — and `seed` draws the test splits. Cross-validation
/// and the fitted model are then the same for every seed, so the GZSL
/// harmonic mean moves only with the test draw instead of jumping when a
/// near-tie in the CV sweep resolves differently.
pub fn dataset(shape: &DataShape, seed: u64) -> Dataset {
    let mut world = Rng::new(WORLD_SEED);
    let a = shape.attr_dim;
    let d = shape.feature_dim;
    let mut signatures = |rows: usize| {
        Matrix::from_vec(
            rows,
            a,
            (0..rows * a).map(|_| world.uniform() * 2.0 - 1.0).collect(),
        )
    };
    let seen_signatures = signatures(shape.seen);
    let unseen_signatures = signatures(shape.unseen);
    let scale = 1.0 / (a as f64).sqrt();
    let mixing_t = Matrix::from_vec(a, d, (0..a * d).map(|_| world.normal() * scale).collect());

    // Samples of a split in random class order, so no prefix of a split (a
    // chunk, a kernel anchor set) covers only a few classes.
    let emit = |rng: &mut Rng, signatures: &Matrix, per_class: usize| {
        let prototypes = signatures.matmul(&mixing_t);
        let mut labels: Vec<usize> = (0..signatures.rows())
            .flat_map(|class| std::iter::repeat_n(class, per_class))
            .collect();
        rng.shuffle(&mut labels);
        let mut data = Vec::with_capacity(labels.len() * d);
        for &class in &labels {
            data.extend(
                prototypes
                    .row(class)
                    .iter()
                    .map(|p| p + shape.noise * rng.normal()),
            );
        }
        (Matrix::from_vec(labels.len(), d, data), labels)
    };
    let (train_x, train_labels) = emit(&mut world, &seen_signatures, shape.train_per_class);
    let mut rng = Rng::new(seed);
    let (test_seen_x, test_seen_labels) =
        emit(&mut rng, &seen_signatures, shape.test_seen_per_class);
    let (test_unseen_x, test_unseen_labels) =
        emit(&mut rng, &unseen_signatures, shape.test_unseen_per_class);
    Dataset {
        train_x,
        train_labels,
        test_seen_x,
        test_seen_labels,
        test_unseen_x,
        test_unseen_labels,
        seen_signatures,
        unseen_signatures,
    }
}

/// Write `ds` as an xlsa17-layout `res101.mat` + `att_splits.mat` pair with
/// every array fixed-Huffman compressed. As in the published splits, class
/// ids are permuted and the splits interleaved in the file (`seed` places
/// them), so neither the labels nor the split index arrays are sorted runs.
/// Each split keeps its sample order, so the trainval rows stream in the
/// same order for every seed.
pub fn write_xlsa_pair(ds: &Dataset, dir: &Path, seed: u64) -> std::io::Result<(PathBuf, PathBuf)> {
    let z = ds.num_classes();
    let d = ds.train_x.cols();
    let a = ds.seen_signatures.cols();
    // Dense class (seen first, then unseen) -> 1-based xlsa class id.
    let mut class_id: Vec<u32> = (1..=z as u32).collect();
    Rng::new(WORLD_SEED).shuffle(&mut class_id);
    let mut att = vec![0.0; a * z];
    let signatures = ds.all_signatures();
    for (class, &id) in class_id.iter().enumerate() {
        let col = (id - 1) as usize;
        att[col * a..(col + 1) * a].copy_from_slice(signatures.row(class));
    }

    let seen = ds.seen_signatures.rows();
    let splits: [(&Matrix, &[usize], usize); 3] = [
        (&ds.train_x, &ds.train_labels, 0),
        (&ds.test_seen_x, &ds.test_seen_labels, 0),
        (&ds.test_unseen_x, &ds.test_unseen_labels, seen),
    ];
    // The split each file position holds; each split fills its positions in
    // its own row order.
    let mut order: Vec<usize> = splits
        .iter()
        .enumerate()
        .flat_map(|(s, (x, _, _))| std::iter::repeat_n(s, x.rows()))
        .collect();
    Rng::new(seed ^ 0x0A11_5EED).shuffle(&mut order);
    let n = order.len();
    assert!(n <= u16::MAX as usize, "split indices are stored as uint16");
    assert!(z <= u8::MAX as usize, "labels are stored as uint8");

    let mut features = Vec::with_capacity(n * d);
    let mut labels = Vec::with_capacity(n);
    let mut locs: [Vec<f64>; 3] = Default::default();
    let mut next_row = [0usize; 3];
    for (pos, &s) in order.iter().enumerate() {
        let (x, split_labels, offset) = splits[s];
        let r = next_row[s];
        next_row[s] += 1;
        features.extend_from_slice(x.row(r));
        labels.push(class_id[split_labels[r] + offset] as f64);
        locs[s].push(pos as f64 + 1.0);
    }

    std::fs::create_dir_all(dir)?;
    let opts = |store_as| ArrayOpts {
        store_as,
        compression: Compression::FixedHuffman,
        ..ArrayOpts::default()
    };
    let res_path = dir.join("res101.mat");
    let mut res = MatWriter::new(ByteOrder::Little);
    res.add_array("features", &[d, n], &features, opts(mi::DOUBLE));
    res.add_array("labels", &[n, 1], &labels, opts(mi::UINT8));
    res.write_to(&res_path)?;

    let att_path = dir.join("att_splits.mat");
    let mut splits_mat = MatWriter::new(ByteOrder::Little);
    splits_mat.add_array("att", &[a, z], &att, opts(mi::DOUBLE));
    for (name, loc) in ["trainval_loc", "test_seen_loc", "test_unseen_loc"]
        .iter()
        .zip(&locs)
    {
        splits_mat.add_array(name, &[loc.len(), 1], loc, opts(mi::UINT16));
    }
    splits_mat.write_to(&att_path)?;
    Ok((res_path, att_path))
}

/// Write `ds` as a `.zsb` bundle directory.
pub fn write_bundle(ds: &Dataset, dir: &Path) -> Result<(), zsl_core::DataError> {
    export_dataset(ds, dir, FeatureFormat::Zsb).map(|_| ())
}

/// Shape of the served model.
#[derive(Clone, Copy, Debug)]
pub struct ModelShape {
    pub feature_dim: usize,
    pub attr_dim: usize,
    pub classes: usize,
}

/// A random cosine-similarity scoring engine of the given shape.
pub fn serving_engine(shape: &ModelShape, seed: u64) -> ScoringEngine {
    let mut rng = Rng::new(seed ^ 0x5E12_0DE1);
    let scale = 1.0 / (shape.feature_dim as f64).sqrt();
    let weights = Matrix::from_vec(
        shape.feature_dim,
        shape.attr_dim,
        (0..shape.feature_dim * shape.attr_dim)
            .map(|_| rng.normal() * scale)
            .collect(),
    );
    let bank = Matrix::from_vec(
        shape.classes,
        shape.attr_dim,
        (0..shape.classes * shape.attr_dim)
            .map(|_| rng.uniform() * 2.0 - 1.0)
            .collect(),
    );
    ScoringEngine::new(
        ProjectionModel::from_weights(weights),
        bank,
        Similarity::Cosine,
    )
}

/// `rows x cols` standard-normal feature rows.
pub fn feature_rows(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}
