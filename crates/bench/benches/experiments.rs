//! Criterion benches over whole (scaled-down) paper experiments — the
//! end-to-end cost of regenerating each artifact, per sweep point.
//! Full-scale regeneration is the job of `azlab run <target>`; these
//! track the harness's own efficiency.

use criterion::{criterion_group, criterion_main, Criterion};

use cloudbench::experiments::{blob, queue, table, tcp, vm};
use simlab::RunOpts;

fn bench_fig1_point(c: &mut Criterion) {
    c.bench_function("experiments/fig1_point_32clients", |b| {
        b.iter(|| {
            let cfg = blob::BlobScalingConfig {
                blob_bytes: 100.0e6,
                client_counts: vec![32],
                runs: 1,
                seed: 1,
            };
            let (r, _) = blob::run(&cfg, &RunOpts::serial());
            assert_eq!(r.rows.len(), 1);
        });
    });
}

fn bench_fig2_point(c: &mut Criterion) {
    c.bench_function("experiments/fig2_point_32clients", |b| {
        b.iter(|| {
            let cfg = table::TableScalingConfig {
                entity_kb: 4,
                client_counts: vec![32],
                inserts_per_client: 20,
                queries_per_client: 20,
                updates_per_client: 10,
                seed: 1,
            };
            let (r, _) = table::run(&cfg, &RunOpts::serial());
            assert_eq!(r.rows.len(), 4);
        });
    });
}

fn bench_fig3_point(c: &mut Criterion) {
    c.bench_function("experiments/fig3_point_32clients", |b| {
        b.iter(|| {
            let cfg = queue::QueueScalingConfig {
                message_bytes: 512.0,
                client_counts: vec![32],
                ops_per_client: 20,
                seed: 1,
            };
            let (r, _) = queue::run(&cfg, &RunOpts::serial());
            assert_eq!(r.rows.len(), 3);
        });
    });
}

fn bench_table1_runs(c: &mut Criterion) {
    c.bench_function("experiments/table1_10runs", |b| {
        b.iter(|| {
            let cfg = vm::VmLifecycleConfig {
                successful_runs: 10,
                seed: 1,
            };
            let (r, _) = vm::run(&cfg, &RunOpts::serial());
            assert_eq!(r.successes, 10);
        });
    });
}

fn bench_fig4_sampling(c: &mut Criterion) {
    c.bench_function("experiments/fig4_10k_samples", |b| {
        b.iter(|| {
            let cfg = tcp::TcpLatencyConfig {
                pairs: 10,
                samples_per_pair: 1000,
                seed: 1,
            };
            let (r, _) = tcp::run_latency(&cfg, &RunOpts::serial());
            assert_eq!(r.samples_ms.len(), 10_000);
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1_point,
        bench_fig2_point,
        bench_fig3_point,
        bench_table1_runs,
        bench_fig4_sampling
);
criterion_main!(benches);
