//! Criterion benches for the agent pipeline: workflow generation latency
//! per case study (E1–E4's "minutes instead of days" claim — here,
//! milliseconds instead of days) and ensemble generation (E6).

use criterion::{criterion_group, criterion_main, Criterion};

use arachnet::ensemble;
use arachnet_repro::{case_study_engine, CaseStudy};
use toolkit::catalog;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    for case in CaseStudy::ALL {
        let engine = case_study_engine(case);
        let session = engine.session(&format!("cs{}", case.index())).expect("registered");
        let scenario = session.scenario();
        let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
        let context = catalog::query_context(&scenario.world, scenario.now, horizon_days);
        group.bench_function(format!("cs{}", case.index()), |b| {
            b.iter(|| {
                let solution =
                    session.generate(case.query(), &context).expect("generation succeeds");
                std::hint::black_box(solution.loc)
            })
        });
    }
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let case = CaseStudy::Cs1CableImpact;
    let engine = case_study_engine(case);
    let session = engine.session("cs1").expect("registered");
    let scenario = session.scenario();
    let context = catalog::query_context(&scenario.world, scenario.now, 10);
    let mut group = c.benchmark_group("ensemble");
    group.sample_size(10);
    group.bench_function("cs1_x5", |b| {
        b.iter(|| {
            let report = ensemble::generate_ensemble(&session, case.query(), &context, 5)
                .expect("ensemble succeeds");
            std::hint::black_box(report.consensus)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_ensemble);
criterion_main!(benches);
