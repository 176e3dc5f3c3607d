//! # benchkit — shared evaluation helpers for the `report` and
//! `bench_report` binaries.
//!
//! The experiment ids (E1–E8, F1) follow the paper's §4 evaluation; every
//! function here regenerates one of its artifacts. [`median_ms`] and
//! [`paired`] are the crate's only wall-clock timers.

use arachnet::{ensemble, DeterministicExpertModel, Session};
use arachnet_repro::{run_case_study, CaseStudy, CaseStudyRun};
use baselines::metrics;
use llm::protocol::QueryContext;
use toolkit::data::{CountryTableData, TimelineData, VerdictData};
use toolkit::{catalog, scenarios};

/// One row of a case-study comparison (E1–E4).
#[derive(Debug, Clone)]
pub struct CaseStudyRow {
    pub case: usize,
    pub query: String,
    pub paper_loc: usize,
    pub measured_loc: usize,
    pub steps: usize,
    pub frameworks: Vec<String>,
    pub function_overlap_with_expert: f64,
    pub generated_all_ok: bool,
    pub expert_all_ok: bool,
}

/// Runs a case study and summarizes the comparison row.
pub fn case_study_row(case: CaseStudy) -> (CaseStudyRow, CaseStudyRun) {
    let run = run_case_study(case);
    let row = CaseStudyRow {
        case: case.index(),
        query: case.query().to_string(),
        paper_loc: case.paper_loc(),
        measured_loc: run.solution.loc,
        steps: run.solution.workflow.steps.len(),
        frameworks: measurement_frameworks(&run),
        function_overlap_with_expert: metrics::function_overlap(
            &run.solution.workflow,
            &run.expert_workflow,
        ),
        generated_all_ok: run.report.all_ok(),
        expert_all_ok: run.expert_report.all_ok(),
    };
    (row, run)
}

/// The *measurement* frameworks a solution integrates (nautilus, xaminer,
/// bgp, traceroute) — the paper's "4 frameworks" counts these, not the
/// util/qa plumbing.
pub fn measurement_frameworks(run: &CaseStudyRun) -> Vec<String> {
    run.solution
        .frameworks
        .iter()
        .filter(|f| ["nautilus", "xaminer", "bgp", "traceroute"].contains(&f.as_str()))
        .cloned()
        .collect()
}

/// E1/E2 output similarity: generated vs expert country tables.
pub fn country_similarity(run: &CaseStudyRun) -> Option<metrics::CountrySimilarity> {
    let generated: CountryTableData = run.output_as()?;
    let expert: CountryTableData = run.expert_output_as()?;
    Some(metrics::country_table_similarity(&generated, &expert))
}

/// E3 output similarity: generated vs expert unified timelines.
pub fn timeline_similarity(run: &CaseStudyRun) -> Option<f64> {
    let generated: TimelineData = run.output_as()?;
    let expert: TimelineData = run.expert_output_as()?;
    Some(metrics::timeline_alignment(&generated, &expert, 6 * 3600))
}

/// E4: the generated verdict (and the expert one).
pub fn verdicts(run: &CaseStudyRun) -> (Option<VerdictData>, Option<VerdictData>) {
    (run.output_as(), run.expert_output_as())
}

/// Wall-clock milliseconds of one call of `f`.
fn sample_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    // conformance: allow(no-wall-clock, reason = "the bench crate's one timer")
    let t0 = std::time::Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds over `iters` runs of `f` (plus one
/// untimed warmup).
pub fn median_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    median((0..iters).map(|_| sample_ms(&mut f)).collect())
}

/// Median milliseconds of `arm` and of `baseline` over `pairs`
/// interleaved samples (A B A B …, after one untimed warmup each), so
/// machine drift lands on both arms alike.
pub fn paired<A, B>(
    pairs: usize,
    mut arm: impl FnMut() -> A,
    mut baseline: impl FnMut() -> B,
) -> (f64, f64) {
    std::hint::black_box(arm());
    std::hint::black_box(baseline());
    let (a, b) = (0..pairs).map(|_| (sample_ms(&mut arm), sample_ms(&mut baseline))).unzip();
    (median(a), median(b))
}

/// The registry sizes (extra padding entries) E5 sweeps.
pub const E5_PADDING: [usize; 6] = [0, 25, 50, 100, 200, 400];

/// One E5 point: planning and search cost at one registry size.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub entries: usize,
    pub plan_steps: usize,
    pub plan_ms: f64,
    pub search_ms: f64,
}

/// E5: registry exploration cost vs registry size. One point per
/// padding in `paddings`: one decomposition planned against the standard
/// registry padded with that many irrelevant entries, and one search
/// over the same registry, each a median.
pub fn registry_scaling_curve(paddings: &[usize]) -> Vec<ScalingPoint> {
    use llm::protocol::DecomposeRequest;
    let scenario = scenarios::cs2_scenario();
    let context = catalog::query_context(&scenario.world, scenario.now, 10);
    paddings
        .iter()
        .map(|&n| {
            let registry = padded_registry(n);
            let decomposition = llm::expert::decompose(&DecomposeRequest {
                query: CaseStudy::Cs2DisasterImpact.query().to_string(),
                context: context.clone(),
                registry: registry.clone(),
            });
            let plan = || {
                llm::planner::plan_architecture(&decomposition, &registry, 0)
                    .expect("plannable at any padding")
            };
            ScalingPoint {
                entries: registry.len(),
                plan_steps: plan().steps.len(),
                plan_ms: median_ms(15, plan),
                search_ms: median_ms(25, || {
                    registry.search("rank suspect cables by latency evidence", 5).len()
                }),
            }
        })
        .collect()
}

/// The standard registry padded with `n` irrelevant (but well-typed)
/// entries, to measure lookup/exploration scaling.
pub fn padded_registry(n: usize) -> registry::Registry {
    use registry::{CapabilityEntry, DataFormat, Param};
    let mut r = catalog::standard_registry();
    for i in 0..n {
        r.register(
            CapabilityEntry::new(
                &format!("pad.tool_{i}"),
                "pad",
                "an unrelated capability for scaling measurements",
                vec![Param::required("table", DataFormat::Table)],
                DataFormat::Table,
            )
            .with_tags(&["padding"]),
        )
        .expect("padding ids are unique");
    }
    r
}

/// A serving session over `case`'s scenario.
pub fn case_study_session(case: CaseStudy) -> Session {
    arachnet_repro::case_study_engine(case)
        .session(&format!("cs{}", case.index()))
        .expect("scenario registered by case_study_engine")
}

/// The query context a session's agents see: its scenario's cables,
/// clock and horizon.
pub fn session_context(session: &Session) -> QueryContext {
    let scenario = session.scenario();
    let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
    catalog::query_context(&scenario.world, scenario.now, horizon_days)
}

/// E6: ensemble consensus for a case-study query. Members generate
/// through a serving-engine session (sharing one epoch snapshot).
pub fn ensemble_consensus(case: CaseStudy, n: usize) -> (f64, Vec<(String, f64)>) {
    let session = case_study_session(case);
    let report = ensemble::generate_ensemble(&session, case.query(), &session_context(&session), n)
        .expect("ensemble generation succeeds");
    let agreements = report
        .agreements
        .iter()
        .map(|a| (a.function.clone(), a.agreement))
        .collect();
    (report.consensus, agreements)
}

/// E7: registry evolution — run CS1–CS3, curate, and report what was
/// added plus the before/after plan size for a repeat query.
pub struct CurationExperiment {
    pub added: Vec<String>,
    pub rejected: usize,
    pub steps_before: usize,
    pub steps_after: usize,
}

pub fn curation_experiment() -> CurationExperiment {
    let case = CaseStudy::Cs2DisasterImpact;
    let engine = arachnet_repro::case_study_engine(case);
    let key = format!("cs{}", case.index());
    let session = engine.session(&key).expect("scenario registered by case_study_engine");
    let scenario = session.scenario();
    let context = catalog::query_context(&scenario.world, scenario.now, 10);

    let before = session.generate(case.query(), &context).expect("generation succeeds");

    // A corpus of successful runs (the paper's "as workflows are built and
    // run successfully, patterns emerge").
    let corpus = vec![before.summary(true), before.summary(true), before.summary(true)];
    let outcome = engine.curate(&corpus, 2).expect("curation succeeds");

    // Sessions pin their epoch: only a fresh one sees the composites.
    let session = engine.session(&key).expect("scenario registered by case_study_engine");
    let after = session.generate(case.query(), &context).expect("generation succeeds");
    CurationExperiment {
        added: outcome.added.iter().map(|f| f.0.clone()).collect(),
        rejected: outcome.rejected.len(),
        steps_before: before.workflow.steps.len(),
        steps_after: after.workflow.steps.len(),
    }
}

// -- PR 3 serving benchmarks -------------------------------------------------

/// A CPU-bound toy runtime for executor benchmarks: every `work.unit`
/// call burns a deterministic number of hash rounds; `work.mix` folds its
/// inputs. Deterministic, allocation-light, embarrassingly parallel.
pub struct BusyRuntime {
    /// Hash rounds per `work.unit` invocation.
    pub rounds: u64,
}

impl workflow::ToolRuntime for BusyRuntime {
    fn invoke(
        &self,
        function: &registry::FunctionId,
        args: &std::collections::BTreeMap<String, workflow::Value>,
    ) -> Result<workflow::Value, workflow::ToolError> {
        use registry::DataFormat;
        match function.0.as_str() {
            "work.unit" => {
                let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
                for i in 0..self.rounds {
                    acc = acc.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ i;
                }
                Ok(workflow::Value::new(
                    DataFormat::Scalar,
                    serde_json::json!(acc % 1_000_000),
                ))
            }
            "work.mix" => {
                let mut total: i64 = 0;
                for v in args.values() {
                    total = total.wrapping_add(v.json().as_i64().unwrap_or(0));
                }
                Ok(workflow::Value::new(DataFormat::Scalar, serde_json::json!(total)))
            }
            _ => Err(workflow::ToolError::Unbound(function.clone())),
        }
    }
}

/// A fan-out/fan-in DAG workload: `width` independent `work.unit` steps
/// feeding one `work.mix` reduction — the shape the parallel executor is
/// built for. Returns the registry and the workflow.
pub fn exec_dag_workload(width: usize) -> (registry::Registry, workflow::Workflow) {
    use registry::{CapabilityEntry, DataFormat, Param};
    let mut r = registry::Registry::new();
    r.register(CapabilityEntry::new("work.unit", "work", "burns CPU", vec![], DataFormat::Scalar))
        .expect("unique");
    let inputs: Vec<Param> =
        (0..width).map(|i| Param::optional(&format!("d{i}"), DataFormat::Scalar)).collect();
    r.register(CapabilityEntry::new("work.mix", "work", "folds inputs", inputs, DataFormat::Scalar))
        .expect("unique");

    let mut wf = workflow::Workflow::new("exec-dag", "synthetic fan-out");
    for i in 0..width {
        wf.push(workflow::Step::new(&format!("u{i:02}"), "work.unit"));
    }
    let mut mix = workflow::Step::new("mix", "work.mix");
    for i in 0..width {
        mix = mix.bind_step(&format!("d{i}"), &format!("u{i:02}"));
    }
    wf.push(mix);
    (r, wf.with_output("mix"))
}

/// Serves `queries` identical queries end-to-end (generate + execute)
/// through a fresh engine with at most `threads` sessions in flight.
///
/// With `shared_store` the queries hit one scenario key, so every session
/// shares that scenario's artifact store (the engine's serving model);
/// without it each query gets its own key and therefore a cold private
/// store — the pre-engine batch-of-one behaviour, where every
/// `StandardRuntime::new` recomputed the mapping run from scratch.
///
/// Returns the total output count as a black-box guard.
pub fn serve_sessions(
    scenario: &world::Scenario,
    query: &str,
    queries: usize,
    shared_store: bool,
    threads: usize,
) -> usize {
    let engine = arachnet::Engine::new(
        std::sync::Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    );
    let keys: Vec<String> = if shared_store {
        engine.register_scenario("shared", scenario.clone());
        vec!["shared".to_string(); queries]
    } else {
        (0..queries)
            .map(|i| {
                let key = format!("cold{i}");
                engine.register_scenario(&key, scenario.clone());
                key
            })
            .collect()
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let outputs = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, keys.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(key) = keys.get(i) else { return };
                let session = engine.session(key).expect("registered");
                let run = session.run(query, &session_context(&session)).expect("query serves");
                assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);
                outputs.fetch_add(
                    run.report.outputs.len(),
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });
    outputs.load(std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_registry_grows() {
        let base = catalog::standard_registry().len();
        assert_eq!(padded_registry(10).len(), base + 10);
    }

    #[test]
    fn exec_dag_workload_runs_identically_at_any_width() {
        let (registry, wf) = exec_dag_workload(6);
        let runtime = BusyRuntime { rounds: 10 };
        let args = std::collections::BTreeMap::new();
        let one = workflow::execute_with(
            &wf, &registry, &runtime, &args,
            &workflow::ExecOptions { workers: 1, ..Default::default() },
        );
        let many = workflow::execute_with(
            &wf, &registry, &runtime, &args,
            &workflow::ExecOptions { workers: 8, ..Default::default() },
        );
        assert!(one.all_ok());
        assert_eq!(one, many);
    }

    #[test]
    fn concurrent_sessions_serve_all_queries() {
        let scenario = toolkit::scenarios::cs1_scenario();
        let query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
        assert_eq!(serve_sessions(&scenario, query, 2, true, 2), 2);
        assert_eq!(serve_sessions(&scenario, query, 2, false, 1), 2);
    }

    #[test]
    fn scaling_curve_has_requested_points() {
        let curve = registry_scaling_curve(&[0, 25]);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[1].entries, curve[0].entries + 25);
        assert!(curve.iter().all(|p| p.plan_steps > 0));
    }

    #[test]
    fn paired_alternates_the_arms_with_equal_counts() {
        let log = std::cell::RefCell::new(String::new());
        paired(3, || log.borrow_mut().push('A'), || log.borrow_mut().push('B'));
        // One warmup each, then three interleaved pairs.
        assert_eq!(log.into_inner(), "ABABABAB");
    }
}
