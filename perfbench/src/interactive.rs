//! The `interactive` and `interactive_faults` workloads: a closed loop of
//! clients, each calling `Session::run` on the next pool query and
//! waiting for the answer before sending another.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arachnet::{DeterministicExpertModel, Engine};
use llm::protocol::QueryContext;

use crate::digest::fold;
use crate::layers::LayerTotals;
use crate::pool::{build_pool, PoolQuery, Template};
use crate::serving::{serve, serve_traced, Layers, Outcome, ServingConfig};
use crate::timing::TimingModel;

/// One interactive run's knobs.
#[derive(Debug, Clone)]
pub struct InteractiveOptions {
    pub seed: u64,
    pub faults: bool,
    pub clients: usize,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Time layers on every other query (see [`InteractiveRun::layers`]).
    pub trace: bool,
}

/// The engine, pool and reference answers a timed phase serves against.
pub struct Prepared {
    pub config: ServingConfig,
    pub engine: Engine,
    pub pool: Vec<PoolQuery>,
    /// Query context per template, in `Template::ALL` order.
    pub contexts: Vec<QueryContext>,
    /// Each pool query's set-up answer.
    pub references: Vec<Outcome>,
    pub register_time: Duration,
    /// Layer totals of the set-up pass (traced runs only).
    pub setup_layers: LayerTotals,
}

impl Prepared {
    pub fn context(&self, template: Template) -> &QueryContext {
        &self.contexts[template as usize]
    }

    /// The workload digest: every reference answer, in pool order.
    pub fn digest(&self) -> u64 {
        fold(self.references.iter().map(|o| o.digest))
    }
}

/// Builds the engine, registers the five case-study scenarios and serves
/// every pool query once across `clients` threads, recording each
/// answer as that query's reference. Traced set-ups serve through the
/// traced replica.
pub fn prepare(options: &InteractiveOptions) -> Prepared {
    let config = if options.faults {
        ServingConfig::faulted(options.seed)
    } else {
        ServingConfig::healthy()
    };
    let model = Arc::new(TimingModel::new(Arc::new(DeterministicExpertModel::new())));
    let engine = config.engine(model, toolkit::standard_registry());
    let start = Instant::now();
    let contexts: Vec<QueryContext> = Template::ALL
        .iter()
        .map(|template| {
            let registration =
                engine.register_scenario(template.scenario_key(), template.scenario());
            let scenario = &registration.scenario;
            let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
            toolkit::query_context(&scenario.world, scenario.now, horizon_days)
        })
        .collect();
    let register_time = start.elapsed();
    let pool = build_pool(options.seed, &contexts[Template::Cs1 as usize].cable_names);
    let mut prepared = Prepared {
        config,
        engine,
        pool,
        contexts,
        references: Vec::new(),
        register_time,
        setup_layers: LayerTotals::default(),
    };
    let chunk = prepared.pool.len().div_ceil(options.clients.max(1));
    let served: Vec<(Vec<Outcome>, LayerTotals)> = std::thread::scope(|scope| {
        let handles: Vec<_> = prepared
            .pool
            .chunks(chunk)
            .map(|queries| {
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut layers = LayerTotals::default();
                    let outcomes = queries
                        .iter()
                        .map(|q| {
                            let (outcome, traced) = serve_one(prepared, q, options.trace);
                            if let Some(traced) = traced {
                                layers.add(&traced);
                            }
                            outcome
                        })
                        .collect();
                    (outcomes, layers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("set-up client panicked")).collect()
    });
    for (outcomes, layers) in served {
        prepared.references.extend(outcomes);
        prepared.setup_layers.merge(&layers);
    }
    prepared
}

/// Serves one pool query on a fresh session, traced or not.
fn serve_one(prepared: &Prepared, query: &PoolQuery, traced: bool) -> (Outcome, Option<Layers>) {
    let context = prepared.context(query.template);
    let session = match prepared.engine.session(query.template.scenario_key()) {
        Ok(session) => session,
        Err(e) => return (Outcome::of_error(&e.to_string()), None),
    };
    if traced {
        let (outcome, layers) = serve_traced(&prepared.config, &session, &query.text, context);
        (outcome, Some(layers))
    } else {
        (serve(&session, &query.text, context), None)
    }
}

/// What the timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct InteractiveRun {
    pub wall: Duration,
    /// Per-query wall time of untraced queries, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Queries that errored, panicked, ended `RunHealth::Failed` or
    /// answered differently from their reference.
    pub failed: u64,
    /// Queries whose answer differs from their set-up reference.
    pub mismatched: u64,
    /// Layer totals of the traced queries (every other query, when
    /// tracing).
    pub layers: LayerTotals,
    /// Summed wall time of traced and of untraced queries.
    pub traced_time: Duration,
    pub untraced_time: Duration,
    pub traced_queries: u64,
    pub untraced_queries: u64,
}

/// Hands out pool indices until the deadline has passed *and* a pass is
/// complete, so every run serves whole passes of the pool and the
/// traffic mix is exactly the pool's.
struct Dispatcher {
    /// The next index to hand out; `None` once the run has stopped.
    next: Mutex<Option<usize>>,
    pool_len: usize,
    deadline: Instant,
}

impl Dispatcher {
    fn next(&self) -> Option<usize> {
        let mut next = self.next.lock().expect("dispatcher lock poisoned");
        let i = (*next)?;
        let pass_done = i > 0 && i.is_multiple_of(self.pool_len);
        *next = if pass_done && Instant::now() >= self.deadline { None } else { Some(i + 1) };
        next.map(|_| i)
    }
}

/// Runs the closed loop for `options.seconds` (rounded up to whole pool
/// passes). With tracing, queries alternate between untraced
/// `Session::run` and the traced replica, and a query's turn flips every
/// pass, so both arms see the same mix.
pub fn timed_phase(prepared: &Prepared, options: &InteractiveOptions) -> InteractiveRun {
    let n = prepared.pool.len();
    let start = Instant::now();
    let dispatcher = Dispatcher {
        next: Mutex::new(Some(0)),
        pool_len: n,
        deadline: start + Duration::from_secs_f64(options.seconds),
    };
    let parts: Vec<InteractiveRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|_| {
                let dispatcher = &dispatcher;
                scope.spawn(move || {
                    let mut run = InteractiveRun::default();
                    while let Some(i) = dispatcher.next() {
                        let slot = i % n;
                        let traced = options.trace && (i / n + slot).is_multiple_of(2);
                        let query_start = Instant::now();
                        let (outcome, layers) = serve_one(prepared, &prepared.pool[slot], traced);
                        let elapsed = query_start.elapsed();
                        let mismatched = outcome != prepared.references[slot];
                        run.attempted += 1;
                        run.failed += u64::from(outcome.failed || mismatched);
                        run.mismatched += u64::from(mismatched);
                        match layers {
                            Some(layers) => {
                                run.layers.add(&layers);
                                run.traced_time += elapsed;
                                run.traced_queries += 1;
                            }
                            None => {
                                run.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                                run.untraced_time += elapsed;
                                run.untraced_queries += 1;
                            }
                        }
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let mut total = InteractiveRun { wall: start.elapsed(), ..InteractiveRun::default() };
    for part in parts {
        total.latencies_ms.extend(part.latencies_ms);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.mismatched += part.mismatched;
        total.layers.merge(&part.layers);
        total.traced_time += part.traced_time;
        total.untraced_time += part.untraced_time;
        total.traced_queries += part.traced_queries;
        total.untraced_queries += part.untraced_queries;
    }
    total
}
