//! E5 (criterion form): end-to-end violation search — symbolic SMT check
//! vs explicit-state exploration, as the interleaving space grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use explicit::sleepset::SleepConfig;
use explicit::{ExploreConfig, GraphExplorer, SleepSetExplorer};
use mcapi::types::DeliveryModel;
use symbolic::checker::{check_program, CheckConfig, MatchGen, Verdict};
use workloads::race::race_with_winner_assert;

fn symbolic_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e/symbolic");
    g.sample_size(10);
    for n in [3usize, 5, 7] {
        let program = race_with_winner_assert(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let r = check_program(
                    &program,
                    &CheckConfig {
                        matchgen: MatchGen::OverApprox,
                        ..CheckConfig::default()
                    },
                );
                assert!(matches!(r.verdict, Verdict::Violation(_)));
            })
        });
    }
    g.finish();
}

fn explicit_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e/explicit-graph");
    g.sample_size(10);
    for n in [3usize, 5] {
        let program = race_with_winner_assert(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let r = GraphExplorer::new(
                    &program,
                    ExploreConfig::with_model(DeliveryModel::Unordered),
                )
                .explore();
                assert!(r.found_violation());
            })
        });
    }
    g.finish();
}

fn explicit_sleepset(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e/explicit-sleepset");
    g.sample_size(10);
    for n in [3usize, 5] {
        let program = race_with_winner_assert(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let r = SleepSetExplorer::new(&program, SleepConfig::default()).explore();
                assert!(r.found_violation());
            })
        });
    }
    g.finish();
}

fn explicit_first_violation(c: &mut Criterion) {
    // Explicit search that stops at the first violation (bug hunting mode,
    // the favourable case for explicit checkers).
    let mut g = c.benchmark_group("e2e/explicit-first-violation");
    g.sample_size(10);
    for n in [3usize, 5, 7] {
        let program = race_with_winner_assert(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cfg = ExploreConfig::with_model(DeliveryModel::Unordered);
                cfg.stop_at_first_violation = true;
                let r = GraphExplorer::new(&program, cfg).explore();
                assert!(r.found_violation());
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    symbolic_check,
    explicit_graph,
    explicit_sleepset,
    explicit_first_violation
);
criterion_main!(benches);
