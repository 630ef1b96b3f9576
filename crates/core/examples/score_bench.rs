//! Scoring-throughput bench binary: sweeps worker-thread counts over one
//! batch-scoring workload and prints a throughput table, so regressions in
//! the hot path are visible from the command line.
//!
//! ```sh
//! cargo run --release --example score_bench            # default workload
//! cargo run --release --example score_bench 8192 512 64 256
//! ```
//!
//! Positional args: `n_samples feature_dim attr_dim num_classes`.

use std::time::Instant;
use zsl_core::data::Rng;
use zsl_core::infer::{ScoringEngine, Similarity};
use zsl_core::linalg::{default_threads, Matrix};
use zsl_core::model::ProjectionModel;

fn arg(args: &[String], index: usize, default: usize) -> usize {
    args.get(index)
        .map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| panic!("bad argument {raw:?}"))
        })
        .unwrap_or(default)
}

fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg(&args, 1, 4096);
    let d = arg(&args, 2, 512);
    let a = arg(&args, 3, 64);
    let z = arg(&args, 4, 256);
    let hw = default_threads();

    let mut rng = Rng::new(0xBA5E);
    let model = ProjectionModel::from_weights(random_matrix(&mut rng, d, a));
    let bank = random_matrix(&mut rng, z, a);
    let x = random_matrix(&mut rng, n, d);

    println!("scoring workload: {n} samples x {d} features -> {a} attrs -> {z} classes (hardware threads: {hw})");
    println!(
        "{:>8} {:>10} {:>14} {:>9}",
        "threads", "best (s)", "samples/s", "speedup"
    );

    // 1, 2, 4, ... up to the hardware parallelism, always including it.
    let mut sweep = vec![1usize];
    while *sweep.last().expect("non-empty") * 2 < hw {
        sweep.push(sweep.last().expect("non-empty") * 2);
    }
    if hw > 1 {
        sweep.push(hw);
    }

    let mut baseline = None;
    for &threads in &sweep {
        let mut engine = ScoringEngine::new(model.clone(), bank.clone(), Similarity::Cosine);
        engine.set_threads(threads);
        engine.predict(&x); // warm-up
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let predictions = engine.predict(&x);
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(predictions.len(), n);
        }
        let single_thread_best = *baseline.get_or_insert(best);
        println!(
            "{threads:>8} {best:>10.4} {:>14.0} {:>8.2}x",
            n as f64 / best,
            single_thread_best / best
        );
    }
}
