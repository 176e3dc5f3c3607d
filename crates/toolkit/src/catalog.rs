//! The tool table: every measurement function ArachNet can compose,
//! across the four frameworks plus utility and QA entries, declared once.
//!
//! Each `Tool` carries the registry signature the agents plan against
//! (§3 of the paper, "Registry: Measurement Capability Encoding":
//! capability sentence, typed inputs and output, cost class, reliability,
//! tags, constraint) and the handler that runs it. [`standard_registry`]
//! and [`restricted_registry`] derive the registry from the table, and
//! [`StandardRuntime`]'s `invoke` dispatches by looking the id up in it,
//! so a signature and its implementation cannot drift apart. Handlers
//! read their inputs by declared position through `Args`.

use std::collections::BTreeMap;

use bgp_sim::{
    detect_moas_conflicts, detect_update_bursts, detect_valley_violations, BgpSimulator,
    BgpUpdate, MoasConflict, UpdateBurst, ValleyViolation,
};
use llm::protocol::QueryContext;
use nautilus_sim::{DependencyTable, MappingTable};
use net_model::CableId;
use registry::{CapabilityEntry, CostClass, DataFormat as F, FunctionId, Param, Registry};
use workflow::{ToolError, Value, ValueView};
use world::World;
use xaminer_sim::{CascadeConfig, FailureEvent, FailureImpact};

use crate::analysis;
use crate::data::*;
use crate::disasters;
use crate::runtime::{
    combine_tables, control_plane_impact_table, corridor_cables, country_table, run_campaign,
    view_of, Args, StandardRuntime,
};

/// One measurement function: its registry signature and its handler.
pub(crate) struct Tool {
    /// `framework.verb_object`: the prefix names the owning framework.
    pub(crate) id: &'static str,
    capability: &'static str,
    /// Declared inputs, all required; handlers read them by position.
    pub(crate) inputs: &'static [(&'static str, F)],
    pub(crate) output: F,
    cost: CostClass,
    reliability: f64,
    tags: &'static [&'static str],
    constraint: Option<&'static str>,
    pub(crate) run: fn(&StandardRuntime, &Args<'_>) -> Result<Value, ToolError>,
}

impl Tool {
    /// The registry entry this tool declares.
    fn entry(&self) -> CapabilityEntry {
        let framework = self.id.split_once('.').map_or(self.id, |(framework, _)| framework);
        let inputs = self.inputs.iter().map(|&(name, format)| Param::required(name, format));
        let entry = CapabilityEntry::new(
            self.id,
            framework,
            self.capability,
            inputs.collect(),
            self.output,
        )
        .with_cost(self.cost)
        .with_reliability(self.reliability)
        .with_tags(self.tags);
        match self.constraint {
            Some(c) => entry.with_constraint(c),
            None => entry,
        }
    }
}

/// The tool table, grouped by framework (the registry orders entries by id).
pub(crate) static TOOLS: &[Tool] = &[
    // --- Nautilus: cross-layer cartography --------------------------------
    Tool {
        id: "nautilus.map_links",
        capability: "maps IP links to submarine cables with confidence scores",
        inputs: &[],
        output: F::MappingTable,
        cost: CostClass::Expensive,
        reliability: 0.85,
        tags: &["cable", "mapping", "cross-layer", "submarine"],
        constraint: Some("inference quality depends on geolocation accuracy"),
        run: |rt, _| rt.mapping_value(),
    },
    Tool {
        id: "nautilus.dependency_table",
        capability: "builds the cable to links/ASes/countries dependency view from a mapping",
        inputs: &[("mapping", F::MappingTable)],
        output: F::DependencyTable,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["cable", "dependency", "cross-layer"],
        constraint: None,
        run: |rt, args| {
            let mapping = args.view::<MappingTable>(0)?;
            args.out(DependencyTable::from_mapping(rt.world(), &mapping, 0.2))
        },
    },
    Tool {
        id: "nautilus.resolve_cable",
        capability: "resolves a cable system by name in the cartography catalog",
        inputs: &[("cable_name", F::Text)],
        output: F::CableRef,
        cost: CostClass::Cheap,
        reliability: 0.99,
        tags: &["cable", "lookup", "name"],
        constraint: None,
        run: |rt, args| {
            let name: String = args.de(0)?;
            let cable = rt.world().cable_by_name(&name).ok_or_else(|| {
                args.fail(format!("cable {name:?} not found in the cartography catalog"))
            })?;
            args.out(CableRefData { id: cable.id.0, name: cable.name.clone() })
        },
    },
    Tool {
        id: "nautilus.cable_dependencies",
        capability: "extracts the links, ASes and countries depending on one cable",
        inputs: &[("deps", F::DependencyTable), ("cable", F::CableRef)],
        output: F::CableDependencies,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["cable", "dependency", "extract"],
        constraint: None,
        run: |_, args| {
            let deps = args.view::<DependencyTable>(0)?;
            let cable: CableRefData = args.de(1)?;
            args.out(deps.for_cable(CableId(cable.id)))
        },
    },
    // --- Xaminer: resilience analysis --------------------------------------
    Tool {
        id: "xaminer.process_event",
        capability: "processes a failure event (cable, segment or disaster) into failed links and affected entities",
        inputs: &[("event", F::FailureEventSpec), ("deps", F::DependencyTable)],
        output: F::FailureImpact,
        cost: CostClass::Moderate,
        reliability: 0.92,
        tags: &["failure", "event", "impact", "core"],
        constraint: Some("handles every event family through one interface"),
        run: |rt, args| {
            let event = args.view::<FailureEvent>(0)?;
            let deps = args.view::<DependencyTable>(1)?;
            args.out(xaminer_sim::process_event(rt.world(), &deps, &event))
        },
    },
    Tool {
        id: "xaminer.impact_report",
        capability: "aggregates a failure impact into normalized per-country and per-AS metrics",
        inputs: &[("impact", F::FailureImpact)],
        output: F::ImpactReport,
        cost: CostClass::Cheap,
        reliability: 0.95,
        tags: &["impact", "metrics", "aggregate"],
        constraint: None,
        run: |rt, args| {
            let impact = args.view::<FailureImpact>(0)?;
            args.out(xaminer_sim::impact::aggregate(rt.world(), &impact))
        },
    },
    Tool {
        id: "xaminer.country_aggregate",
        capability: "extracts the ranked country-level impact table from an impact report",
        inputs: &[("report", F::ImpactReport)],
        output: F::CountryImpactTable,
        cost: CostClass::Cheap,
        reliability: 0.95,
        tags: &["country", "aggregate", "geographic", "table"],
        constraint: None,
        run: |_, args| {
            let report = args.view::<xaminer_sim::ImpactReport>(0)?;
            args.out(country_table(&report))
        },
    },
    Tool {
        id: "xaminer.event_impact",
        capability: "end-to-end event processing: failure events straight to a country impact table using the current cross-layer mapping",
        inputs: &[("event", F::FailureEventSpec)],
        output: F::CountryImpactTable,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["event", "impact", "country", "high-level"],
        constraint: Some("uses the framework's default dependency mapping"),
        run: |rt, args| {
            let event = args.view::<FailureEvent>(0)?;
            let deps_value = rt.default_deps_value()?;
            let deps: ValueView<'_, DependencyTable> = view_of(&deps_value, "default deps")?;
            let failure = xaminer_sim::process_event(rt.world(), &deps, &event);
            args.out(country_table(&xaminer_sim::impact::aggregate(rt.world(), &failure)))
        },
    },
    Tool {
        id: "xaminer.cascade",
        capability: "propagates an initial failure through load redistribution into a cascade timeline",
        inputs: &[("impact", F::FailureImpact)],
        output: F::CascadeTimeline,
        cost: CostClass::Expensive,
        reliability: 0.8,
        tags: &["cascade", "propagation", "load"],
        constraint: Some("assumes the documented base-load and overload thresholds"),
        run: |rt, args| {
            let impact = args.view::<FailureImpact>(0)?;
            let config = CascadeConfig { base_load: 0.75, ..CascadeConfig::default() };
            args.out(xaminer_sim::cascade::propagate(rt.world(), &impact, &config))
        },
    },
    Tool {
        id: "xaminer.risk_profiles",
        capability: "profiles each country's dependency concentration over cable systems",
        inputs: &[("deps", F::DependencyTable)],
        output: F::RiskProfiles,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["risk", "resilience", "concentration", "country"],
        constraint: None,
        run: |rt, args| {
            let deps = args.view::<DependencyTable>(0)?;
            args.out_seq(xaminer_sim::risk::all_risk_profiles(rt.world(), &deps))
        },
    },
    // --- BGP ---------------------------------------------------------------
    Tool {
        id: "bgp.updates",
        capability: "fetches the BGP update stream from route collectors for a time window",
        inputs: &[("window", F::TimeWindow)],
        output: F::BgpUpdates,
        cost: CostClass::Expensive,
        reliability: 0.95,
        tags: &["bgp", "routing", "updates", "collector"],
        constraint: None,
        run: |rt, args| {
            let window = args.window(0)?;
            let full_value = rt.updates_value()?;
            let full: ValueView<'_, Vec<BgpUpdate>> = view_of(&full_value, "bgp updates")?;
            args.out_seq(full.iter().filter(|u| window.contains(u.time)).cloned().collect())
        },
    },
    Tool {
        id: "bgp.rib_snapshot",
        capability: "captures a RIB snapshot at the end of a time window",
        inputs: &[("window", F::TimeWindow)],
        output: F::RibSnapshot,
        cost: CostClass::Expensive,
        reliability: 0.95,
        tags: &["bgp", "rib", "snapshot"],
        constraint: None,
        run: |rt, args| {
            let at = args.window(0)?.end;
            let sim = BgpSimulator::new(rt.scenario());
            let peers: Vec<net_model::Asn> = sim.collectors().iter().take(10).copied().collect();
            args.out(bgp_sim::RibSnapshot::capture(rt.scenario(), &peers, at))
        },
    },
    Tool {
        id: "bgp.detect_bursts",
        capability: "detects statistically significant bursts in a BGP update stream",
        inputs: &[("updates", F::BgpUpdates), ("window", F::TimeWindow)],
        output: F::BgpBursts,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["bgp", "anomaly", "burst", "churn", "non-critical"],
        constraint: None,
        run: |_, args| {
            let updates = args.view::<Vec<BgpUpdate>>(0)?;
            let window = args.window(1)?;
            let hours = (window.duration().as_seconds() / 3600).clamp(24, 400) as usize;
            args.out_seq(detect_update_bursts(&updates, window, hours, 3.0))
        },
    },
    Tool {
        id: "bgp.detect_moas",
        capability: "detects MOAS conflicts: prefixes announced by more than one origin AS, against the baseline RIB",
        inputs: &[("updates", F::BgpUpdates)],
        output: F::MoasConflicts,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["bgp", "moas", "hijack", "origin", "control-plane", "non-critical"],
        constraint: Some("needs the baseline RIB; the stream alone misses silent vantage points"),
        run: |rt, args| {
            let updates = args.view::<Vec<BgpUpdate>>(0)?;
            let baseline_value = rt.baseline_rib_value()?;
            let baseline: ValueView<'_, bgp_sim::RibSnapshot> =
                view_of(&baseline_value, "baseline rib")?;
            args.out_seq(detect_moas_conflicts(&updates, &baseline))
        },
    },
    Tool {
        id: "bgp.valley_violations",
        capability: "detects announced AS paths violating the valley-free export rule, with the pivot AS attributed",
        inputs: &[("updates", F::BgpUpdates)],
        output: F::ValleyViolations,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["bgp", "valley", "export", "control-plane", "non-critical"],
        constraint: Some("paths are checked against the scenario's reference topology"),
        run: |rt, args| {
            let updates = args.view::<Vec<BgpUpdate>>(0)?;
            // Reference topology: the scenario's quiet start, whose
            // adjacency set is a superset of every later instant's.
            let graph = bgp_sim::AsGraph::at_time(rt.scenario(), rt.scenario().horizon.start);
            args.out_seq(detect_valley_violations(&updates, &graph))
        },
    },
    Tool {
        id: "bgp.reachability_losses",
        capability: "lists (peer, prefix) pairs withdrawn and never re-announced",
        inputs: &[("updates", F::BgpUpdates)],
        output: F::Table,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["bgp", "reachability", "withdrawal"],
        constraint: None,
        run: |_, args| {
            let updates = args.view::<Vec<BgpUpdate>>(0)?;
            let rows: Vec<serde_json::Value> = bgp_sim::reachability_losses(&updates)
                .into_iter()
                .map(|(peer, prefix, t)| {
                    serde_json::json!({
                        "peer": peer.0,
                        "prefix": prefix.to_string(),
                        "withdrawn_at": t.0,
                    })
                })
                .collect();
            Ok(Value::new(F::Table, serde_json::Value::Array(rows)))
        },
    },
    // --- Traceroute ----------------------------------------------------------
    Tool {
        id: "traceroute.campaign",
        capability: "runs a probe campaign from one region's probes to another region's destinations over a time window",
        inputs: &[
            ("src_region", F::RegionScope),
            ("dst_region", F::RegionScope),
            ("window", F::TimeWindow),
        ],
        output: F::TracerouteCampaign,
        cost: CostClass::Expensive,
        reliability: 0.85,
        tags: &["traceroute", "probe", "campaign", "latency", "paris"],
        constraint: Some("probe coverage follows the platform's regional density"),
        run: |rt, args| {
            let src = args.region(0)?;
            let dst = args.region(1)?;
            let window = args.window(2)?;
            let key = format!("campaign:{src:?}:{dst:?}:{}:{}", window.start.0, window.end.0);
            rt.cached(rt.artifacts(), &key, || {
                args.out(run_campaign(rt.scenario(), src, dst, window))
            })
        },
    },
    Tool {
        id: "traceroute.rtt_series",
        capability: "buckets a campaign into a mean RTT time series",
        inputs: &[("campaign", F::TracerouteCampaign)],
        output: F::RttSeries,
        cost: CostClass::Cheap,
        reliability: 0.95,
        tags: &["rtt", "series", "latency"],
        constraint: None,
        run: |_, args| {
            let campaign = args.view::<CampaignData>(0)?;
            args.out(analysis::rtt_series(&campaign, 6 * 3600))
        },
    },
    Tool {
        id: "traceroute.detect_anomaly",
        capability: "detects latency anomalies against a statistical baseline, attributing affected probe/destination pairs",
        inputs: &[("campaign", F::TracerouteCampaign)],
        output: F::AnomalyReport,
        cost: CostClass::Moderate,
        reliability: 0.85,
        tags: &["anomaly", "latency", "baseline", "statistics", "non-critical"],
        constraint: Some("needs several baseline buckets before the anomaly"),
        run: |_, args| {
            let campaign = args.view::<CampaignData>(0)?;
            args.out(analysis::detect_anomaly(&campaign))
        },
    },
    // --- Utility (integration / translation layer) ---------------------------
    Tool {
        id: "util.cable_failure_event",
        capability: "builds a full-cable failure event from a resolved cable",
        inputs: &[("cable", F::CableRef)],
        output: F::FailureEventSpec,
        cost: CostClass::Cheap,
        reliability: 0.99,
        tags: &["event", "cable", "translate"],
        constraint: None,
        run: |_, args| {
            let cable: CableRefData = args.de(0)?;
            args.out(FailureEvent::CableFailure { cable: CableId(cable.id) })
        },
    },
    Tool {
        id: "util.compile_disasters",
        capability: "compiles disaster kinds and a failure probability into concrete events over the global hazard catalog",
        inputs: &[("disasters", F::DisasterSpecs), ("failure_probability", F::Scalar)],
        output: F::FailureEventSpec,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["disaster", "earthquake", "hurricane", "what-if", "compile"],
        constraint: None,
        run: |_, args| {
            #[derive(serde::Deserialize)]
            struct Kind {
                kind: String,
            }
            let kinds: Vec<Kind> = args.de(0)?;
            let p: f64 = args.de(1)?;
            let kinds: Vec<String> = kinds.into_iter().map(|k| k.kind).collect();
            let specs = disasters::compile(&kinds, p);
            if specs.is_empty() {
                return Err(args.fail(format!("no hazard zones match kinds {kinds:?}")));
            }
            let event =
                FailureEvent::Compound(specs.into_iter().map(FailureEvent::Disaster).collect());
            args.out(event)
        },
    },
    Tool {
        id: "util.combine_impact_tables",
        capability: "combines two country impact tables (independent-event composition of scores)",
        inputs: &[("a", F::CountryImpactTable), ("b", F::CountryImpactTable)],
        output: F::CountryImpactTable,
        cost: CostClass::Cheap,
        reliability: 0.95,
        tags: &["combine", "merge", "impact", "aggregate"],
        constraint: None,
        run: |_, args| {
            let a = args.view::<CountryTableData>(0)?;
            let b = args.view::<CountryTableData>(1)?;
            args.out(combine_tables(&a, &b))
        },
    },
    Tool {
        id: "util.corridor_failure_event",
        capability: "builds a compound failure of the main cable systems connecting two regions",
        inputs: &[("src_region", F::RegionScope), ("dst_region", F::RegionScope)],
        output: F::FailureEventSpec,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["corridor", "region", "cable", "compound"],
        constraint: None,
        run: |rt, args| {
            let src = args.region(0)?;
            let dst = args.region(1)?;
            let cables = corridor_cables(rt.world(), src, dst, 3);
            if cables.is_empty() {
                return Err(args.fail(format!("no cable systems connect {src} and {dst}")));
            }
            let event = FailureEvent::Compound(
                cables.into_iter().map(|cable| FailureEvent::CableFailure { cable }).collect(),
            );
            args.out(event)
        },
    },
    Tool {
        id: "util.score_suspect_cables",
        capability: "ranks candidate cables by their presence in anomaly-affected paths, weighted by latency deltas",
        inputs: &[("anomaly", F::AnomalyReport), ("deps", F::DependencyTable)],
        output: F::SuspectRanking,
        cost: CostClass::Moderate,
        reliability: 0.85,
        tags: &["forensic", "suspect", "cable", "score", "rank"],
        constraint: None,
        run: |rt, args| {
            let anomaly = args.view::<AnomalyData>(0)?;
            let deps = args.view::<DependencyTable>(1)?;
            let mut cable_links: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            let mut names: BTreeMap<u32, String> = BTreeMap::new();
            for cable in deps.cables() {
                let entry = deps.for_cable(cable);
                cable_links.insert(cable.0, entry.links.iter().map(|l| l.0).collect());
                names.insert(cable.0, rt.world().cable(cable).name.clone());
            }
            args.out(analysis::score_suspects(&anomaly, &cable_links, &names))
        },
    },
    Tool {
        id: "util.correlate_evidence",
        capability: "temporally correlates BGP bursts with a latency anomaly onset",
        inputs: &[("bursts", F::BgpBursts), ("anomaly", F::AnomalyReport)],
        output: F::CorrelationReport,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["correlate", "temporal", "evidence", "validation"],
        constraint: None,
        run: |_, args| {
            let bursts = args.view::<Vec<UpdateBurst>>(0)?;
            let anomaly = args.view::<AnomalyData>(1)?;
            let times: Vec<i64> = bursts.iter().map(|b| b.window.start.0).collect();
            args.out(analysis::correlate(&times, bursts.len(), &anomaly))
        },
    },
    Tool {
        id: "util.synthesize_verdict",
        capability: "synthesizes suspect ranking and temporal correlation into a causal verdict with confidence",
        inputs: &[
            ("suspects", F::SuspectRanking),
            ("correlation", F::CorrelationReport),
            ("anomaly", F::AnomalyReport),
        ],
        output: F::ForensicVerdict,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["forensic", "verdict", "synthesis", "causation", "confidence"],
        constraint: None,
        run: |_, args| {
            let suspects = args.view::<SuspectData>(0)?;
            let correlation = args.view::<CorrelationData>(1)?;
            let anomaly = args.view::<AnomalyData>(2)?;
            args.out(analysis::synthesize_verdict(&suspects, &correlation, &anomaly))
        },
    },
    Tool {
        id: "util.attribute_control_plane",
        capability: "attributes a control-plane incident (prefix hijack vs route leak) and identifies the offending AS",
        inputs: &[("moas", F::MoasConflicts), ("valleys", F::ValleyViolations)],
        output: F::ControlPlaneReport,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["hijack", "attribution", "control-plane", "offender", "confidence"],
        constraint: None,
        run: |rt, args| {
            let moas = args.view::<Vec<MoasConflict>>(0)?;
            let valleys = args.view::<Vec<ValleyViolation>>(1)?;
            let legit: BTreeMap<String, u32> =
                rt.world().prefixes.iter().map(|p| (p.net.to_string(), p.origin.0)).collect();
            args.out(analysis::attribute_control_plane(&moas, &valleys, &legit))
        },
    },
    Tool {
        id: "xaminer.control_plane_impact",
        capability: "quantifies which ASes and countries an attributed control-plane incident misdirects",
        inputs: &[("report", F::ControlPlaneReport)],
        output: F::CountryImpactTable,
        cost: CostClass::Moderate,
        reliability: 0.9,
        tags: &["hijack", "impact", "control-plane", "country", "misdirection"],
        constraint: Some("assessed against the world's quiet topology"),
        run: |rt, args| {
            let report = args.view::<ControlPlaneReportData>(0)?;
            args.out(control_plane_impact_table(rt.world(), &report))
        },
    },
    Tool {
        id: "util.build_timeline",
        capability: "fuses cascade rounds, routing bursts and latency anomalies into one multi-layer timeline",
        inputs: &[
            ("cascade", F::CascadeTimeline),
            ("bursts", F::BgpBursts),
            ("anomaly", F::AnomalyReport),
        ],
        output: F::UnifiedTimeline,
        cost: CostClass::Cheap,
        reliability: 0.9,
        tags: &["timeline", "synthesis", "cross-layer", "unified"],
        constraint: None,
        run: |rt, args| {
            let cascade = args.view::<xaminer_sim::CascadeTimeline>(0)?;
            let bursts = args.view::<Vec<UpdateBurst>>(1)?;
            let anomaly = args.view::<AnomalyData>(2)?;
            // Anchor cascade offsets at the first observed event (or the
            // horizon start for pure what-if analyses).
            let anchor = rt
                .scenario()
                .timeline()
                .first()
                .map(|(t, _)| *t)
                .unwrap_or(rt.scenario().horizon.start);
            let mut cascade_events: Vec<(i64, String, String)> = Vec::new();
            for round in &cascade.rounds {
                let t = (anchor + round.at_offset).0;
                if !round.newly_failed_links.is_empty() {
                    cascade_events.push((
                        t,
                        if round.round == 0 { "cable".into() } else { "ip".into() },
                        format!(
                            "round {}: {} link(s) failed",
                            round.round,
                            round.newly_failed_links.len()
                        ),
                    ));
                }
                if !round.newly_degraded_ases.is_empty() {
                    cascade_events.push((
                        t,
                        "as".into(),
                        format!(
                            "round {}: {} AS(es) degraded",
                            round.round,
                            round.newly_degraded_ases.len()
                        ),
                    ));
                }
            }
            let burst_times: Vec<i64> = bursts.iter().map(|b| b.window.start.0).collect();
            args.out(analysis::build_timeline(&cascade_events, &burst_times, &anomaly))
        },
    },
    // --- QA --------------------------------------------------------------------
    Tool {
        id: "qa.verify_output",
        capability: "verifies a final result: structural integrity, emptiness, basic plausibility",
        inputs: &[("value", F::Any)],
        output: F::QaReport,
        cost: CostClass::Cheap,
        reliability: 0.99,
        tags: &["qa", "verify", "sanity"],
        constraint: None,
        run: |_, args| {
            let value = args.value(0)?;
            let mut checks = vec!["non-null".to_string()];
            let mut notes = Vec::new();
            // Native artifacts are never null; only JSON payloads need
            // the projection inspected.
            let mut passed = value.is_native() || !value.json().is_null();
            if value.is_empty_payload() {
                passed = false;
                notes.push("result payload is empty".to_string());
            } else {
                checks.push("non-empty".to_string());
            }
            checks.push(format!("declared format {}", value.format));
            args.out(QaData { passed, checks, notes })
        },
    },
];

/// The table entry for `id`, if the table declares one.
pub(crate) fn tool(id: &FunctionId) -> Option<&'static Tool> {
    TOOLS.iter().find(|t| t.id == id.0)
}

/// Builds the standard registry: every tool in the table.
pub fn standard_registry() -> Registry {
    restricted_registry(&[])
}

/// A registry with some functions withheld — case study 1's controlled
/// setup ("we provide the agent with only core Nautilus system functions.
/// We withhold Xaminer's higher-level abstractions").
pub fn restricted_registry(withhold: &[&str]) -> Registry {
    let mut r = Registry::new();
    for tool in TOOLS.iter().filter(|t| !withhold.contains(&t.id)) {
        r.register(tool.entry()).expect("tool ids are unique");
    }
    r
}

/// Builds the query context (entity-grounding knowledge) for a scenario.
pub fn query_context(world: &World, now: net_model::SimTime, horizon_days: i64) -> QueryContext {
    QueryContext {
        cable_names: world.cables.iter().map(|c| c.name.clone()).collect(),
        now: now.seconds_since_epoch(),
        horizon_days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_frameworks() {
        let r = standard_registry();
        let fw = r.frameworks();
        for expected in ["nautilus", "xaminer", "bgp", "traceroute", "util", "qa"] {
            assert!(fw.contains(&expected.to_string()), "missing {expected}");
        }
        assert_eq!(r.len(), 30, "catalog size");
    }

    /// FNV-1a 64 over a registry's JSON: pins the exact bytes agents
    /// plan against (every prompt and perfbench digest derives from them).
    fn json_fnv(r: &Registry) -> (usize, u64) {
        let json = r.to_json().unwrap();
        let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (json.len(), hash)
    }

    #[test]
    fn registry_json_is_pinned() {
        assert_eq!(json_fnv(&standard_registry()), (19_930, 0xcda7129e714ce602));
        assert_eq!(
            json_fnv(&restricted_registry(&["xaminer.event_impact"])),
            (19_233, 0x6a00a6a4820d705)
        );
    }

    #[test]
    fn restricted_registry_withholds() {
        let r = restricted_registry(&["xaminer.event_impact"]);
        assert!(!r.contains(&registry::FunctionId::from("xaminer.event_impact")));
        assert!(r.contains(&registry::FunctionId::from("xaminer.process_event")));
        assert_eq!(r.len(), standard_registry().len() - 1);
    }

    #[test]
    fn search_finds_forensic_functions() {
        let r = standard_registry();
        let hits = r.search("rank suspect cables forensic", 3);
        assert_eq!(hits[0].entry.id.0, "util.score_suspect_cables");
    }

    #[test]
    fn context_contains_cable_names() {
        let world = crate::scenarios::standard_world();
        let ctx = query_context(&world, net_model::SimTime(86_400), 10);
        assert!(ctx.cable_names.iter().any(|n| n == "SeaMeWe-5"));
        assert_eq!(ctx.now, 86_400);
    }
}
