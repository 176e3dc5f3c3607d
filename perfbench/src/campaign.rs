//! The `campaign_cold` workload: every scenario family, Monte Carlo
//! swept at the workload seed, served cold through `CampaignRunner`.
//!
//! Worlds and world-keyed artifacts live in process-wide caches with no
//! reset, so a campaign is cold only in a process that has built no
//! world of its seed: run each repetition in a fresh process.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arachnet::{DeterministicExpertModel, Engine, FamilyScenario};
use campaign::{
    CampaignFamily, CampaignReport, CampaignRunner, CampaignSpec, ComposedFamily, EnsembleSpec,
    Family, FamilyParams,
};

use crate::digest::{fold, Fnv};
use crate::layers::LayerTotals;
use crate::serving::{serve_traced, ServingConfig};
use crate::timing::TimingModel;

/// Monte Carlo draws per family: 6 draws of 39 scenarios each give 234
/// scenario-queries over 60 worlds.
pub const DRAWS: usize = 6;

/// The campaign of `seed`: all 11 base and 2 composed families at
/// `draws` draws each, asked the CS5 forensics question.
pub fn spec(seed: u64, draws: usize) -> CampaignSpec {
    let params = FamilyParams { seed, ..FamilyParams::default() };
    let families = Family::ALL.iter().map(|&f| CampaignFamily::from(f));
    let composed = ComposedFamily::ALL.iter().map(|&f| CampaignFamily::from(f));
    let ensembles = families
        .chain(composed)
        .map(|f| EnsembleSpec::new(f, params.clone()).with_draws(draws))
        .collect();
    CampaignSpec::new(ensembles, vec![toolkit::scenarios::CS5_QUERY.to_string()])
}

/// An engine with every draw of `spec` registered, and what that took.
pub struct Prepared {
    pub engine: Engine,
    pub model: Arc<TimingModel>,
    /// Every registered scenario, in the runner's task order.
    pub scenarios: Vec<FamilyScenario>,
    pub register_time: Duration,
}

/// Pre-registers the fleet the way `CampaignRunner::run` registers it
/// (same key prefixes, same order), so world generation happens here
/// and the runner's own registration pass finds every key warm.
pub fn prepare(spec: &CampaignSpec) -> Prepared {
    let model =
        Arc::new(TimingModel::new(Arc::new(DeterministicExpertModel::new())).with_query_marks());
    let engine = ServingConfig::healthy().engine(model.clone(), toolkit::standard_registry());
    let start = Instant::now();
    let mut scenarios = Vec::new();
    for ensemble in &spec.ensembles {
        let family = ensemble.family.id();
        for draw in ensemble.expand() {
            let prefix = format!("{family}/d{}", draw.draw);
            scenarios.extend(engine.register_blueprints(&prefix, &draw.blueprints));
        }
    }
    Prepared { engine, model, scenarios, register_time: start.elapsed() }
}

/// The campaign digest: the scorecard plus every provenance hash, in
/// task order.
pub fn digest(report: &CampaignReport) -> u64 {
    let scorecard = Fnv::default().str(&format!("{:?}", report.scorecard)).finish();
    fold(std::iter::once(scorecard).chain(report.provenance_hashes()))
}

/// What one untraced campaign measured.
pub struct CampaignRun {
    pub report: CampaignReport,
    pub wall: Duration,
    /// Per-task wall times in ms, read off the model's query stamps: the
    /// gap between consecutive tasks of one runner worker. Each worker's
    /// last task has no successor and is left out.
    pub task_ms: Vec<f64>,
}

/// Serves the campaign through `CampaignRunner::run`.
pub fn run(prepared: &Prepared, spec: &CampaignSpec, workers: usize) -> CampaignRun {
    prepared.model.take_query_marks();
    let start = Instant::now();
    let report = CampaignRunner::new(&prepared.engine).with_workers(workers).run(spec);
    let wall = start.elapsed();
    let mut task_ms = Vec::new();
    for marks in prepared.model.take_query_marks().values() {
        task_ms.extend(marks.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
    }
    CampaignRun { report, wall, task_ms }
}

/// What the traced replica measured.
pub struct TracedCampaign {
    pub wall: Duration,
    pub tasks: u64,
    pub failed: u64,
    pub layers: LayerTotals,
    /// Summed per-task serve time (generate + execute).
    pub serve_time: Duration,
    /// Digest of every task's answer, in task order.
    pub digest: u64,
}

/// Serves the campaign's task list the way `CampaignRunner` does (task
/// order, contiguous chunks per worker, one session per task) but
/// through the traced replica, timing each layer.
pub fn run_traced(prepared: &Prepared, spec: &CampaignSpec, workers: usize) -> TracedCampaign {
    let tasks: Vec<(&FamilyScenario, &str)> = prepared
        .scenarios
        .iter()
        .flat_map(|scenario| spec.queries.iter().map(move |q| (scenario, q.as_str())))
        .collect();
    let config = ServingConfig::healthy();
    let chunk = tasks.len().div_ceil(workers.max(1)).max(1);
    let start = Instant::now();
    let parts: Vec<(Vec<u64>, u64, LayerTotals, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk)
            .map(|chunk| {
                let config = &config;
                scope.spawn(move || {
                    let mut digests = Vec::new();
                    let mut failed = 0;
                    let mut layers = LayerTotals::default();
                    let mut serve_time = Duration::ZERO;
                    for (registered, query) in chunk {
                        let scenario = &registered.scenario;
                        let horizon_days =
                            (scenario.horizon.duration().as_seconds() / 86_400).max(1);
                        let context =
                            toolkit::query_context(&scenario.world, scenario.now, horizon_days);
                        let session = prepared
                            .engine
                            .session(&registered.key)
                            .expect("every campaign key was registered in set-up");
                        let task_start = Instant::now();
                        let (outcome, traced) = serve_traced(config, &session, query, &context);
                        serve_time += task_start.elapsed();
                        digests.push(outcome.digest);
                        failed += u64::from(outcome.failed);
                        layers.add(&traced);
                    }
                    (digests, failed, layers, serve_time)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replica worker panicked")).collect()
    });
    let wall = start.elapsed();
    let mut traced = TracedCampaign {
        wall,
        tasks: tasks.len() as u64,
        failed: 0,
        layers: LayerTotals::default(),
        serve_time: Duration::ZERO,
        digest: 0,
    };
    let mut digests = Vec::new();
    for (d, failed, layers, serve_time) in parts {
        digests.extend(d);
        traced.failed += failed;
        traced.layers.merge(&layers);
        traced.serve_time += serve_time;
    }
    traced.digest = fold(digests);
    traced
}

/// Generates every distinct world of the campaign directly through
/// `world::generate`, returning the count and the summed time. The
/// results are dropped: this only times the generator.
pub fn time_world_generation(spec: &CampaignSpec) -> (u64, Duration) {
    let mut configs = BTreeMap::new();
    for ensemble in &spec.ensembles {
        for draw in ensemble.expand() {
            for blueprint in &draw.blueprints {
                configs.insert(blueprint.config.content_hash(), blueprint.config.clone());
            }
        }
    }
    let mut total = Duration::ZERO;
    for config in configs.values() {
        let start = Instant::now();
        std::hint::black_box(world::generate(config));
        total += start.elapsed();
    }
    (configs.len() as u64, total)
}
