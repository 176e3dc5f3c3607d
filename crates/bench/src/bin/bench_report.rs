//! Bench trajectory: wall-clock medians for the substrate, planning and
//! serving hot paths, written as `BENCH_pr10.json` at the repo root (and
//! uploaded as a CI artifact alongside the committed `BENCH_pr2.json`
//! through `BENCH_pr9.json`).
//!
//! ```text
//! cargo run --release -p benchkit --bin bench_report            # repo root
//! cargo run --release -p benchkit --bin bench_report -- out.json
//! ```
//!
//! Ids are stable across PRs; new rows get new ids. Rows with a
//! `baseline` time both arms interleaved through [`benchkit::paired`].
//!
//! * `substrates/bgp/full_routing_table` — dense routing vs the retained seed engine;
//! * `substrates/xaminer/impact_report` — oracle impact report for one cable failure;
//! * `registry/search_400_entries` — four searches over a 400-entry padded registry;
//! * `world/cross_layer_lookups` — cable/link/country index lookups;
//! * `substrates/bgp/rib_capture_40_peers` — routing plus RIB paths for 40 peers;
//! * `workflow/exec_dag` — a 24-wide fan-out DAG, max workers vs 1;
//! * `engine/chaos_overhead` — that DAG through an empty-plan `ChaosRuntime` vs bare;
//! * `engine/telemetry_overhead` — that DAG with a `Recorder` attached vs untraced;
//! * `workflow/trace_export` — one recorded trace to canonical JSON and Chrome form;
//! * `engine/concurrent_sessions` — 8 served queries on one store, max threads vs 1;
//! * `world/generate_cold` / `world/generate_cached` — world generation vs a cache hit;
//! * `forge/register_family_fleet` — every family's fleet registered vs cold generation;
//! * `bgp/derive_updates_hijack` — the update stream of a prefix-hijack scenario;
//! * `toolkit/mapping_shared_world` — mapping served from the world-keyed store vs recomputed;
//! * `engine/degraded_session` — CS5 with a persistent detector outage vs healthy;
//! * `forge/campaign_10k` — a ~1k scenario-query campaign, max workers vs 1;
//! * `conformance/scan_workspace` — the parallel conformance scan vs serial;
//! * `planning/generate_cs1`…`cs5` — one workflow generation per case-study query;
//! * `planning/ensemble_cs1_x5` — a five-member CS1 ensemble;
//! * `substrates/xaminer/cascade` — cascade propagation after a cable failure;
//! * `substrates/traceroute/single_measurement` — one simulated traceroute;
//! * `substrates/nautilus/dependency_table` — the dependency table from one mapping run;
//! * `registry/plan_sweep` — E5: plan and search cost per padded registry size.

use std::sync::Arc;

use benchkit::{median_ms, paired};
use llm::LanguageModel;
use serde_json::{json, Value};
use workflow::ToolRuntime;
use world::{generate, Scenario, WorldConfig};

fn bench(id: &str, median: f64) -> Value {
    json!({ "id": id, "median_ms": median })
}

/// A row timing an arm against its `baseline`, both medians from one
/// [`paired`] run; `extra` holds the row's own fields.
fn two_arm(id: &str, baseline: &str, (median, base): (f64, f64), extra: Value) -> Value {
    let mut row = json!({
        "id": id,
        "median_ms": median,
        "baseline": baseline,
        "baseline_median_ms": base,
        "speedup": base / median,
    });
    if let (Some(fields), Value::Object(extra)) = (row.as_object_mut(), extra) {
        fields.extend(extra);
    }
    row
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // The binary lives in crates/bench; the trajectory file lives at
        // the repo root.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json").to_string()
    });

    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let world = &scenario.world;
    let mut benchmarks: Vec<Value> = Vec::new();

    let graph = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
    benchmarks.push(two_arm(
        "substrates/bgp/full_routing_table",
        "seed BTreeMap engine (bgp_sim::routing::reference)",
        paired(
            7,
            || {
                let g = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
                bgp_sim::RoutingTable::compute(&g, world).reachable_from(world.ases[0].asn)
            },
            || {
                let g = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
                bgp_sim::routing::reference::compute(&g, world).len()
            },
        ),
        json!({}),
    ));

    let engine = xaminer_sim::XaminerEngine::oracle(world);
    let cable = world.cable_by_name("SeaMeWe-5").expect("curated cable").id;
    let cable_failure = xaminer_sim::FailureEvent::CableFailure { cable };
    benchmarks.push(bench(
        "substrates/xaminer/impact_report",
        median_ms(25, || engine.impact_report(&cable_failure).total_links),
    ));

    let registry = benchkit::padded_registry(400);
    let queries = [
        "map submarine cables",
        "process failure event impact",
        "bgp updates for a time window",
        "country level impact table",
    ];
    benchmarks.push(bench(
        "registry/search_400_entries",
        median_ms(50, || {
            queries.iter().map(|q| registry.search(q, 10).len()).sum::<usize>()
        }),
    ));

    let countries: Vec<net_model::Country> =
        world.ases.iter().map(|a| a.country).collect();
    benchmarks.push(bench(
        "world/cross_layer_lookups",
        median_ms(50, || {
            let mut acc = 0usize;
            for c in &world.cables {
                acc += world.links_on_cable_ref(c.id).len();
                acc += world.cable_by_name(&c.name).map(|c| c.landings.len()).unwrap_or(0);
            }
            for &c in &countries {
                acc += world.as_count_in_country(c);
            }
            acc
        }),
    ));

    let peers: Vec<net_model::Asn> =
        world.ases.iter().take(40).map(|a| a.asn).collect();
    benchmarks.push(bench(
        "substrates/bgp/rib_capture_40_peers",
        median_ms(7, || {
            bgp_sim::RibSnapshot::capture(&scenario, &peers, net_model::SimTime::EPOCH)
                .entries
                .len()
        }),
    ));

    // Never more workers than the machine has cores: oversubscription
    // turns the parallel arms into scheduler noise. Every row that runs
    // parallel work records the cap as `workers`.
    let max_workers = workflow::exec::default_workers();
    let (dag_registry, dag_workflow) = benchkit::exec_dag_workload(24);
    let busy = benchkit::BusyRuntime { rounds: 400_000 };
    let dag_args = std::collections::BTreeMap::new();
    let run_dag = |runtime: &dyn ToolRuntime, options: workflow::ExecOptions| {
        workflow::execute_with(&dag_workflow, &dag_registry, runtime, &dag_args, &options)
            .executed
    };
    let at_max = || workflow::ExecOptions { workers: max_workers, ..Default::default() };
    benchmarks.push(two_arm(
        "workflow/exec_dag",
        "same DAG at 1 worker",
        paired(
            9,
            || run_dag(&busy, at_max()),
            || run_dag(&busy, workflow::ExecOptions { workers: 1, ..Default::default() }),
        ),
        json!({ "workers": max_workers }),
    ));

    // The chaos and telemetry taxes are pinned at ≤2%, so both rows
    // sample hard enough that scheduler jitter stays under that.
    let chaotic = arachnet::ChaosRuntime::new(
        benchkit::BusyRuntime { rounds: 400_000 },
        arachnet::FaultPlan::empty(),
    );
    let (dag_chaos, dag_bare) =
        paired(21, || run_dag(&chaotic, at_max()), || run_dag(&busy, at_max()));
    benchmarks.push(two_arm(
        "engine/chaos_overhead",
        "the same DAG on the bare runtime (workflow/exec_dag)",
        (dag_chaos, dag_bare),
        json!({ "workers": max_workers, "overhead_pct": (dag_chaos / dag_bare - 1.0) * 100.0 }),
    ));

    let traced_options = || workflow::ExecOptions {
        recorder: Some(Arc::new(arachnet::Recorder::new())),
        ..at_max()
    };
    let (dag_traced, dag_untraced) =
        paired(21, || run_dag(&busy, traced_options()), || run_dag(&busy, at_max()));
    benchmarks.push(two_arm(
        "engine/telemetry_overhead",
        "the same DAG untraced (workflow/exec_dag)",
        (dag_traced, dag_untraced),
        json!({
            "workers": max_workers,
            "overhead_pct": (dag_traced / dag_untraced - 1.0) * 100.0,
        }),
    ));

    let export_recorder = Arc::new(arachnet::Recorder::new());
    run_dag(
        &busy,
        workflow::ExecOptions { recorder: Some(Arc::clone(&export_recorder)), ..at_max() },
    );
    let export_spans = export_recorder.trace().spans.len();
    benchmarks.push(json!({
        "id": "workflow/trace_export",
        "median_ms": median_ms(50, || {
            export_recorder.trace_json().len() + export_recorder.chrome_trace().len()
        }),
        "spans": export_spans,
    }));

    // World-keyed artifact stores share the mapping run across every
    // registration of a world, so the contrast left in-tree is thread
    // scaling over one shared store.
    let serve_queries = 8usize;
    let serve_query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
    benchmarks.push(two_arm(
        "engine/concurrent_sessions",
        "same shared-store load at 1 session thread",
        paired(
            3,
            || benchkit::serve_sessions(&scenario, serve_query, serve_queries, true, max_workers),
            || benchkit::serve_sessions(&scenario, serve_query, serve_queries, true, 1),
        ),
        json!({ "queries": serve_queries, "session_threads": max_workers }),
    ));

    let world_config = WorldConfig::default();
    let world_cache = arachnet::WorldCache::new();
    world_cache.get_or_generate(&world_config); // warm the slot
    let (generate_cached, generate_cold) = paired(
        5,
        || world_cache.get_or_generate(&world_config).links.len(),
        || generate(&world_config).links.len(),
    );
    benchmarks.push(bench("world/generate_cold", generate_cold));
    benchmarks.push(two_arm(
        "world/generate_cached",
        "one full world generation (world/generate_cold)",
        (generate_cached, generate_cold),
        json!({}),
    ));

    let fleet_params = arachnet::FamilyParams::default();
    let fleet_size: usize =
        arachnet::Family::ALL.iter().map(|f| f.expand(&fleet_params).len()).sum();
    let family_count = arachnet::Family::ALL.len();
    // Registry and model construction stay outside the timed closure —
    // only engine setup + fleet registration is the path under test.
    let fleet_model: Arc<dyn LanguageModel> = Arc::new(llm::DeterministicExpertModel::new());
    let fleet_registry = benchkit::padded_registry(40);
    benchmarks.push(two_arm(
        "forge/register_family_fleet",
        "one cold world generation per scenario (no cache)",
        paired(
            1,
            || {
                arachnet::Engine::new(Arc::clone(&fleet_model), fleet_registry.clone())
                    .register_families(&arachnet::Family::ALL, &fleet_params)
                    .len()
            },
            || {
                arachnet::Family::ALL
                    .iter()
                    .flat_map(|f| f.expand(&fleet_params))
                    .map(|bp| bp.realize(Arc::new(generate(&bp.config))).events.len())
                    .sum::<usize>()
            },
        ),
        json!({ "scenarios": fleet_size, "families": family_count }),
    ));

    // Every event boundary of a hijack is topology-identical, so the
    // policy-aware memoization (not `same_topology` alone) decides the
    // captures.
    let hijack_victim = world.prefixes[0];
    let hijack_origin = world
        .ases
        .iter()
        .map(|a| a.asn)
        .find(|&a| a != hijack_victim.origin)
        .expect("another AS exists");
    let hijack_scenario = world::Scenario::quiet(scenario.world_handle(), 10).with_event(
        world::EventKind::PrefixHijack {
            origin: hijack_origin,
            victim_prefix: hijack_victim.net,
        },
        net_model::SimTime(5 * 86_400),
    );
    benchmarks.push(bench(
        "bgp/derive_updates_hijack",
        median_ms(7, || bgp_sim::updates::derive_updates(&hijack_scenario, &peers).len()),
    ));

    let mapping_scenarios = 4usize;
    let map_world = || {
        nautilus_sim::NautilusMapper::new(nautilus_sim::MappingConfig::default())
            .map_world(world)
    };
    benchmarks.push(two_arm(
        "toolkit/mapping_shared_world",
        "one Nautilus mapping run per scenario (per-scenario-key artifact stores)",
        paired(
            3,
            || {
                let mut served = 0usize;
                for _ in 0..mapping_scenarios {
                    let rt = toolkit::StandardRuntime::new(world::Scenario::quiet(
                        scenario.world_handle(),
                        10,
                    ));
                    let map = std::collections::BTreeMap::new();
                    let value = rt
                        .invoke(&registry::FunctionId::from("nautilus.map_links"), &map)
                        .expect("mapping serves");
                    served += usize::from(value.is_native());
                }
                served
            },
            || (0..mapping_scenarios).map(|_| map_world().mappings.len()).sum::<usize>(),
        ),
        json!({ "scenarios": mapping_scenarios }),
    ));

    // The degraded run skips the poisoned attribution and impact steps,
    // so it should never be slower than the healthy one.
    let cs5_session = |plan: arachnet::FaultPlan| {
        let engine = arachnet::Engine::new(
            Arc::clone(&fleet_model),
            toolkit::catalog::standard_registry(),
        )
        .with_fault_plan(plan);
        engine.register_scenario("cs5", toolkit::scenarios::cs5_hijack_scenario());
        engine.session("cs5").expect("cs5 registered")
    };
    let serve_cs5 = |plan: arachnet::FaultPlan| {
        let session = cs5_session(plan);
        let context = benchkit::session_context(&session);
        session.run(toolkit::scenarios::CS5_QUERY, &context).expect("query serves").report.executed
    };
    let degraded_plan = arachnet::FaultPlan::new(7)
        .with_fault("bgp.valley_violations", arachnet::FaultKind::Persistent);
    benchmarks.push(two_arm(
        "engine/degraded_session",
        "the same CS5 forensics query served healthy (empty fault plan)",
        paired(
            5,
            || serve_cs5(degraded_plan.clone()),
            || serve_cs5(arachnet::FaultPlan::empty()),
        ),
        json!({}),
    ));

    // Every base and composed family, with enough query phrasings that
    // scenarios × queries clears 1k tasks.
    let campaign_params = campaign::FamilyParams::default();
    let mut campaign_ensembles: Vec<campaign::EnsembleSpec> = arachnet::Family::ALL
        .iter()
        .map(|&f| campaign::EnsembleSpec::new(f, campaign_params.clone()))
        .collect();
    campaign_ensembles.extend(
        campaign::ComposedFamily::ALL
            .iter()
            .map(|&f| campaign::EnsembleSpec::new(f, campaign_params.clone())),
    );
    let campaign_scenarios: usize =
        campaign_ensembles.iter().map(|e| e.expand()[0].blueprints.len()).sum();
    let campaign_queries: Vec<String> = (0..1000usize.div_ceil(campaign_scenarios))
        .map(|i| {
            format!(
                "Case {i}: multiple origin ASes were observed announcing the same \
                 prefixes. Determine whether a prefix hijack or a route leak caused \
                 this, and identify the offending AS."
            )
        })
        .collect();
    let campaign_spec =
        campaign::CampaignSpec::new(campaign_ensembles, campaign_queries);
    // Per-query DAGs run at 1 executor worker so the campaign-level
    // worker pool is the only parallelism being contrasted.
    let campaign_engine = arachnet::Engine::new(
        Arc::clone(&fleet_model),
        toolkit::catalog::standard_registry(),
    )
    .with_exec_workers(1);
    let campaign_tasks = std::cell::Cell::new(0usize);
    benchmarks.push(two_arm(
        "forge/campaign_10k",
        "the identical campaign served at 1 worker",
        paired(
            1,
            || {
                let report = campaign::CampaignRunner::new(&campaign_engine)
                    .with_workers(max_workers)
                    .run(&campaign_spec);
                assert_eq!(report.scorecard.failed, 0, "campaign serves cleanly");
                campaign_tasks.set(report.scorecard.queries);
                report.scorecard.queries
            },
            || {
                campaign::CampaignRunner::new(&campaign_engine)
                    .with_workers(1)
                    .run(&campaign_spec)
                    .scorecard
                    .queries
            },
        ),
        json!({
            "scenario_queries": campaign_tasks.get(),
            "scenarios": campaign_scenarios,
            "workers": max_workers,
        }),
    ));

    let scan_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let scan_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    benchmarks.push(two_arm(
        "conformance/scan_workspace",
        "the same scan run serially",
        paired(
            5,
            || {
                conformance::scan::scan_parallel(scan_root, 0, None)
                    .expect("workspace scans")
                    .findings
                    .len()
            },
            || conformance::scan(scan_root).expect("workspace scans").findings.len(),
        ),
        json!({ "workers": scan_workers }),
    ));

    let mut planning: Vec<(usize, &str, arachnet::Session)> = arachnet_repro::CaseStudy::ALL
        .iter()
        .map(|&case| (case.index(), case.query(), benchkit::case_study_session(case)))
        .collect();
    planning.push((5, toolkit::scenarios::CS5_QUERY, cs5_session(arachnet::FaultPlan::empty())));
    for (index, query, session) in &planning {
        let context = benchkit::session_context(session);
        benchmarks.push(bench(
            &format!("planning/generate_cs{index}"),
            median_ms(10, || session.generate(query, &context).expect("generation succeeds").loc),
        ));
    }
    let (_, cs1_query, cs1_session) = &planning[0];
    let cs1_context = benchkit::session_context(cs1_session);
    benchmarks.push(bench(
        "planning/ensemble_cs1_x5",
        median_ms(10, || {
            arachnet::ensemble::generate_ensemble(cs1_session, cs1_query, &cs1_context, 5)
                .expect("ensemble succeeds")
                .consensus
        }),
    ));

    let initial = engine.process(&cable_failure);
    let cascade_config =
        xaminer_sim::CascadeConfig { base_load: 0.75, ..xaminer_sim::CascadeConfig::default() };
    benchmarks.push(bench(
        "substrates/xaminer/cascade",
        median_ms(25, || {
            xaminer_sim::cascade::propagate(world, &initial, &cascade_config).depth()
        }),
    ));

    let tracer = traceroute_sim::TracerouteSimulator::new(&scenario);
    let (probe, dst) = (world.probes[0].id, world.prefixes[100].net.host(1));
    benchmarks.push(bench(
        "substrates/traceroute/single_measurement",
        median_ms(25, || tracer.measure(probe, dst, net_model::SimTime(3600), 0).hops.len()),
    ));

    let mapping = map_world();
    benchmarks.push(bench(
        "substrates/nautilus/dependency_table",
        median_ms(25, || {
            nautilus_sim::DependencyTable::from_mapping(world, &mapping, 0.2).cables().len()
        }),
    ));

    let points: Vec<Value> = benchkit::registry_scaling_curve(&benchkit::E5_PADDING)
        .iter()
        .map(|p| json!({ "entries": p.entries, "plan_ms": p.plan_ms, "search_ms": p.search_ms }))
        .collect();
    benchmarks.push(json!({ "id": "registry/plan_sweep", "points": points }));

    let report = json!({
        "pr": 10,
        "world": {
            "ases": world.ases.len(),
            "links": world.links.len(),
            "cables": world.cables.len(),
            "prefixes": world.prefixes.len(),
        },
        "graph": { "nodes": graph.node_count(), "edges": graph.edge_count() },
        "benchmarks": benchmarks,
    });

    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{text}\n")).expect("write bench report");
    println!("{text}");
    eprintln!("wrote {out_path}");
}
