//! Criterion microbenchmarks of the wall-clock hot paths: the local SpMV
//! kernel, CSR assembly, the partitioners, layout-metric computation, and
//! the distributed-matrix build. These measure *real* time (unlike the
//! table harnesses, which report simulated cluster time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_partition::{GpConfig, HgConfig};

fn bench_matrix() -> CsrMatrix {
    rmat(&RmatConfig::graph500(13), 7)
}

fn spmv_kernel(c: &mut Criterion) {
    let a = bench_matrix();
    let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin()).collect();
    let mut g = c.benchmark_group("spmv_local");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function(BenchmarkId::new("csr", a.nnz()), |b| {
        b.iter(|| std::hint::black_box(a.spmv_dense(&x)))
    });
    g.finish();
}

fn csr_assembly(c: &mut Criterion) {
    let a = bench_matrix();
    let coo = a.to_coo();
    let mut g = c.benchmark_group("assembly");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("from_coo", |b| {
        b.iter(|| CsrMatrix::from_coo(std::hint::black_box(&coo)))
    });
    g.bench_function("transpose", |b| {
        b.iter(|| std::hint::black_box(&a).transpose())
    });
    g.finish();
}

fn partitioners(c: &mut Criterion) {
    let a = rmat(&RmatConfig::graph500(11), 3);
    let graph = Graph::from_symmetric_matrix(&a);
    let mut g = c.benchmark_group("partitioners");
    g.sample_size(10);
    g.bench_function("gp_k16", |b| {
        b.iter(|| {
            sf2d_core::sf2d_partition::partition_graph(
                std::hint::black_box(&graph),
                16,
                &GpConfig::default(),
            )
        })
    });
    g.bench_function("hp_k16", |b| {
        b.iter(|| {
            sf2d_core::sf2d_partition::partition_hypergraph_matrix(
                std::hint::black_box(&a),
                16,
                &HgConfig::default(),
            )
        })
    });
    g.finish();
}

fn layout_machinery(c: &mut Criterion) {
    let a = bench_matrix();
    let dist = MatrixDist::block_2d(a.nrows(), 8, 8);
    let mut g = c.benchmark_group("layout");
    g.sample_size(10);
    g.bench_function("metrics_2d_block_p64", |b| {
        b.iter(|| LayoutMetrics::compute(std::hint::black_box(&a), &dist))
    });
    g.bench_function("dist_matrix_build_p64", |b| {
        b.iter(|| DistCsrMatrix::from_global(std::hint::black_box(&a), &dist))
    });
    g.finish();
}

fn distributed_spmv(c: &mut Criterion) {
    let a = bench_matrix();
    let dist = MatrixDist::block_2d(a.nrows(), 8, 8);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let x = DistVector::random(std::sync::Arc::clone(&dm.vmap), 1);
    let mut y = DistVector::zeros(std::sync::Arc::clone(&dm.vmap));
    let mut g = c.benchmark_group("spmv_distributed");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("simulated_p64", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new(Machine::cab());
            spmv(&dm, &x, &mut y, &mut ledger);
            std::hint::black_box(ledger.total)
        })
    });
    g.finish();
}

/// The PR's headline kernels: a 100-iteration SpMV sweep and a 4-column
/// SpMM, compiled local-index path vs the gid-based reference executor,
/// on the paper's 2D-GP layout, at a criterion-friendly scale.
fn spmv_hot_path(c: &mut Criterion) {
    use sf2d_core::sf2d_spmv::{reference, spmm_with, spmv_with, DistMultiVector, SpmvWorkspace};

    let a = rmat(&RmatConfig::graph500(11), 7);
    let mut builder = LayoutBuilder::new(&a, 0);
    let dist = builder.dist(Method::TwoDGp, 64);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let x = DistVector::random(std::sync::Arc::clone(&dm.vmap), 1);
    let mut y = DistVector::zeros(std::sync::Arc::clone(&dm.vmap));
    let cols: Vec<Vec<f64>> = (0..4)
        .map(|c| (0..a.nrows()).map(|i| ((i + c) as f64).cos()).collect())
        .collect();
    let xm = DistMultiVector::from_columns(std::sync::Arc::clone(&dm.vmap), &cols);
    let mut ym = DistMultiVector::zeros(std::sync::Arc::clone(&dm.vmap), 4);
    let mut ws = SpmvWorkspace::new();

    let mut g = c.benchmark_group("spmv100_2dgp_p64");
    g.sample_size(10);
    g.bench_function("compiled", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new(Machine::cab());
            for _ in 0..100 {
                spmv_with(&dm, &x, &mut y, &mut ledger, &mut ws);
            }
            std::hint::black_box(ledger.total)
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new(Machine::cab());
            for _ in 0..100 {
                reference::spmv_ref(&dm, &x, &mut y, &mut ledger);
            }
            std::hint::black_box(ledger.total)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("spmm4_2dgp_p64");
    g.sample_size(10);
    g.bench_function("compiled", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new(Machine::cab());
            spmm_with(&dm, &xm, &mut ym, &mut ledger, &mut ws);
            std::hint::black_box(ledger.total)
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new(Machine::cab());
            reference::spmm_ref(&dm, &xm, &mut ym, &mut ledger);
            std::hint::black_box(ledger.total)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    spmv_kernel,
    csr_assembly,
    partitioners,
    layout_machinery,
    distributed_spmv,
    spmv_hot_path
);

// --- appended groups: solver and redistribution kernels ---

mod extra {
    use super::*;
    use criterion::Criterion;
    use sf2d_core::sf2d_eigen::dense::{symmetric_eig, DenseMat};
    use sf2d_core::sf2d_eigen::KrylovSchurConfig;
    use sf2d_core::sf2d_spmv::{MigrationPlan, PlainSpmvOp};

    pub fn dense_eig(c: &mut Criterion) {
        let n = 40;
        let mut a = DenseMat::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let x = (((i * 31 + j * 17) % 19) as f64 - 9.0) / 9.0;
                a[(i, j)] = x;
                a[(j, i)] = x;
            }
        }
        c.bench_function("dense_jacobi_40", |b| {
            b.iter(|| symmetric_eig(std::hint::black_box(&a)))
        });
    }

    pub fn eigensolve(c: &mut Criterion) {
        let adj = rmat(&RmatConfig::graph500(10), 5);
        let l = sf2d_core::sf2d_graph::normalized_laplacian(&adj).unwrap();
        let d = MatrixDist::block_2d(l.nrows(), 4, 4);
        let op = PlainSpmvOp::new(DistCsrMatrix::from_global(&l, &d));
        let cfg = KrylovSchurConfig {
            nev: 4,
            max_basis: 24,
            tol: 1e-3,
            max_restarts: 100,
            seed: 1,
        };
        let mut g = c.benchmark_group("eigensolver");
        g.sample_size(10);
        g.bench_function("krylov_schur_nev4_p16", |b| {
            b.iter(|| {
                let mut ledger = CostLedger::new(Machine::cab());
                sf2d_core::sf2d_eigen::krylov_schur_largest(
                    std::hint::black_box(&op),
                    &cfg,
                    &mut ledger,
                )
            })
        });
        g.finish();
    }

    pub fn migration(c: &mut Criterion) {
        let a = rmat(&RmatConfig::graph500(12), 3);
        let from = MatrixDist::block_1d(a.nrows(), 64);
        let to = MatrixDist::block_2d(a.nrows(), 8, 8);
        let mut g = c.benchmark_group("migration");
        g.sample_size(10);
        g.bench_function("plan_build_p64", |b| {
            b.iter(|| MigrationPlan::build(std::hint::black_box(&a), &from, &to))
        });
        g.finish();
    }

    pub fn reorder(c: &mut Criterion) {
        let a = rmat(
            &RmatConfig {
                edge_factor: 4,
                ..RmatConfig::graph500(12)
            },
            9,
        );
        let mut g = c.benchmark_group("reorder");
        g.sample_size(10);
        g.bench_function("rcm", |b| {
            b.iter(|| sf2d_core::sf2d_graph::reorder::rcm(std::hint::black_box(&a)))
        });
        g.finish();
    }
}

criterion_group!(
    solver_benches,
    extra::dense_eig,
    extra::eigensolve,
    extra::migration,
    extra::reorder
);

criterion_main!(benches, solver_benches);
