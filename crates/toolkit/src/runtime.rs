//! The standard tool runtime: [`StandardRuntime`] runs the functions of
//! the tool table ([`crate::catalog`]) against the substrate crates.
//!
//! `invoke` looks the called id up in the table (an unknown id is
//! [`ToolError::Unbound`]), decodes the named arguments against the
//! entry's declared inputs into positional `Args` — a missing input is
//! a [`ToolError::BadArgument`] before any handler runs — and calls the
//! entry's handler.
//!
//! Values leave the runtime as **native artifacts** (mapping tables,
//! dependency tables, BGP update streams, impact tables, campaigns) held
//! behind `Arc`s — the Arc-shared [`Value`] model projects them to JSON
//! lazily, only when something actually needs JSON. Arguments come back
//! through [`Value::view`]: zero-copy when the producing step emitted the
//! native type, a JSON deserialization otherwise.
//!
//! Expensive artifacts live in [`ArtifactStore`]s — shareable across
//! runtimes, sessions and whole engine epochs, exactly as a real
//! deployment caches collector downloads and mapping runs once per
//! dataset, not once per query. Update streams and probe campaigns are
//! per scenario. The mapping run, the default dependency table and a
//! quiet horizon-start RIB depend only on the world, so they live in the
//! world-keyed store ([`world_artifacts`]), built on first use.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use net_model::{CableId, Region, SimDuration, SimTime, TimeWindow};
use parking_lot::Mutex;
use registry::{DataFormat as F, FunctionId};
use workflow::{ToolError, ToolRuntime, Value, ValueView};
use world::{Scenario, World};

use bgp_sim::{BgpSimulator, RibSnapshot};
use nautilus_sim::{DependencyTable, MappingConfig, MappingTable, NautilusMapper};
use traceroute_sim::TracerouteSimulator;

use crate::catalog::{self, Tool};
use crate::data::*;

/// One build-once artifact slot.
type ArtifactSlot = Arc<OnceLock<Result<Value, ToolError>>>;

/// A concurrent, shareable cache of expensive measurement artifacts,
/// keyed by artifact id. Each slot is built exactly once — concurrent
/// requesters for the same key block on the builder instead of
/// duplicating the work — and the cached [`Value`]s are Arc-shared, so a
/// hit is a pointer bump.
#[derive(Default)]
pub struct ArtifactStore {
    slots: Mutex<BTreeMap<String, ArtifactSlot>>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Returns the cached value for `key`, building (once) on a miss.
    ///
    /// Only successes stay cached: a failed build is returned to everyone
    /// who was waiting on that slot, but the slot is evicted so the next
    /// request retries instead of serving the stale error for the store's
    /// lifetime.
    pub fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let slot = Arc::clone(self.slots.lock().entry(key.to_string()).or_default());
        let result = slot.get_or_init(build).clone();
        if result.is_err() {
            let mut slots = self.slots.lock();
            // Evict only if the key still points at this failed slot (a
            // concurrent retry may already have installed a fresh one).
            if slots.get(key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
                slots.remove(key);
            }
        }
        result
    }

    /// Number of artifacts cached (or being built).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Whether an artifact is cached (or being built) under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.slots.lock().contains_key(key)
    }
}

/// The process-wide store of **world-level** artifact stores,
/// content-addressed by the world's full [`world::WorldConfig`] (the
/// same bit-exact identity `scenario_forge::WorldCache` keys worlds by).
///
/// Artifacts that depend only on the world — the Nautilus mapping run,
/// the default dependency table — used to live in the per-*scenario*
/// stores, so scenarios sharing one `Arc<World>` (the whole point of the
/// scenario-forge cache) still recomputed the mapping once per scenario
/// key. Keying them by world content identity finishes the job: any
/// number of scenarios, sessions and engines over one world share one
/// mapping run per process. The collector RIB at a quiet horizon start
/// is world-level too, under a key that names the start time.
pub fn world_artifacts(world: &World) -> Arc<ArtifactStore> {
    // Keyed by the full config (bit-exact `Ord`, the same identity the
    // scenario-forge `WorldCache` uses), not the u64 content hash — a
    // hash collision must not silently alias two worlds' artifacts.
    static STORES: OnceLock<Mutex<BTreeMap<world::WorldConfig, Arc<ArtifactStore>>>> =
        OnceLock::new();
    let stores = STORES.get_or_init(|| Mutex::new(BTreeMap::new()));
    Arc::clone(stores.lock().entry(world.config.clone()).or_default())
}

/// The standard runtime over one scenario.
pub struct StandardRuntime {
    scenario: Arc<Scenario>,
    /// Scenario-level artifacts (update streams, campaigns, a disturbed
    /// start's baseline RIB): shared by every session of this scenario.
    artifacts: Arc<ArtifactStore>,
    /// World-level artifacts (mapping run, default deps, quiet start
    /// RIB): shared by every scenario over this world — see
    /// [`world_artifacts`].
    world_artifacts: Arc<ArtifactStore>,
    /// Optional telemetry sink: cached-artifact probes become
    /// `artifact_cache.hit` / `artifact_cache.miss` counters. Counters
    /// only — store warmth is process-global and arrival-order dependent,
    /// so cache probes must never enter the (byte-stable) trace.
    recorder: Option<Arc<telemetry::Recorder>>,
}

impl StandardRuntime {
    /// A runtime owning a private scenario-level artifact store (the
    /// world-level store is always the shared, content-addressed one).
    pub fn new(scenario: Scenario) -> Self {
        StandardRuntime::shared(Arc::new(scenario), Arc::new(ArtifactStore::new()))
    }

    /// A runtime over a shared scenario and artifact store — the serving
    /// engine hands every session of a scenario the same store, so
    /// artifacts are computed once across all concurrent sessions.
    pub fn shared(scenario: Arc<Scenario>, artifacts: Arc<ArtifactStore>) -> Self {
        let world_artifacts = world_artifacts(&scenario.world);
        StandardRuntime { scenario, artifacts, world_artifacts, recorder: None }
    }

    /// Attach a telemetry recorder (cache hit/miss counters).
    pub fn with_recorder(mut self, recorder: Arc<telemetry::Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// `get_or_build` with hit/miss accounting: the build closure runs
    /// only on a cold slot, so whether it ran *is* the miss signal.
    pub(crate) fn cached(
        &self,
        store: &ArtifactStore,
        key: &str,
        build: impl FnOnce() -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let mut built = false;
        let result = store.get_or_build(key, || {
            built = true;
            build()
        });
        if let Some(recorder) = &self.recorder {
            let counter = if built { "artifact_cache.miss" } else { "artifact_cache.hit" };
            recorder.counter_add(counter, 1);
        }
        result
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The scenario's world.
    pub(crate) fn world(&self) -> &World {
        &self.scenario.world
    }

    /// The scenario-level artifact store backing this runtime.
    pub fn artifacts(&self) -> &Arc<ArtifactStore> {
        &self.artifacts
    }

    /// The world-level artifact store this runtime shares with every
    /// other scenario over the same world.
    pub fn world_artifacts(&self) -> &Arc<ArtifactStore> {
        &self.world_artifacts
    }

    // -- cached artifacts ---------------------------------------------------

    pub(crate) fn mapping_value(&self) -> Result<Value, ToolError> {
        self.cached(&self.world_artifacts, "nautilus.mapping", || {
            let table = NautilusMapper::new(MappingConfig::default())
                .map_world(&self.scenario.world);
            Ok(Value::native(F::MappingTable, table, false))
        })
    }

    pub(crate) fn default_deps_value(&self) -> Result<Value, ToolError> {
        // Derive from the cached mapping artifact — the mapping run is the
        // expensive half and must not be recomputed per dependency table.
        // Both are pure functions of the world, so they live in the
        // world-keyed store.
        let mapping = self.mapping_value()?;
        self.cached(&self.world_artifacts, "nautilus.default_deps", || {
            let m: ValueView<'_, MappingTable> = view_of(&mapping, "cached mapping")?;
            let deps = DependencyTable::from_mapping(&self.scenario.world, &m, 0.2);
            Ok(Value::native(F::DependencyTable, deps, false))
        })
    }

    pub(crate) fn updates_value(&self) -> Result<Value, ToolError> {
        self.cached(&self.artifacts, "bgp.updates_full", || {
            let scenario = &self.scenario;
            let updates = if bgp_sim::updates::event_boundaries(scenario).is_empty() {
                Vec::new()
            } else {
                // The diff chain starts from the same snapshot the MOAS
                // detector reads as its baseline.
                let baseline = self.baseline_rib_value()?;
                let start: ValueView<'_, RibSnapshot> = view_of(&baseline, "baseline rib")?;
                let sim = BgpSimulator::new(scenario);
                bgp_sim::updates::derive_updates_from(scenario, sim.collectors(), &start)
            };
            let empty = updates.is_empty();
            Ok(Value::native(F::BgpUpdates, updates, empty))
        })
    }

    /// The collector RIB at the horizon start: the first state of the
    /// update stream's diff chain and the MOAS detector's baseline. When
    /// nothing is down and no incident is active at that instant, the
    /// capture is a pure function of the world and the start time, so
    /// every scenario over the world shares one, keyed by that time in the
    /// world store. Otherwise the capture is per-scenario.
    pub(crate) fn baseline_rib_value(&self) -> Result<Value, ToolError> {
        let scenario = &self.scenario;
        let start = scenario.horizon.start;
        let (store, key) = if quiet_at(scenario, start) {
            (&self.world_artifacts, format!("bgp.rib_quiet@{}", start.0))
        } else {
            (&self.artifacts, "bgp.rib_baseline".to_string())
        };
        self.cached(store, &key, || {
            let sim = BgpSimulator::new(scenario);
            let rib = RibSnapshot::capture(scenario, sim.collectors(), start);
            Ok(Value::native(F::RibSnapshot, rib, false))
        })
    }
}

/// Whether no link is down and no control-plane incident is active at
/// `t`, so routing at `t` is the world's undisturbed routing. With no
/// event active at all (the common case) the per-link scan is skipped.
fn quiet_at(scenario: &Scenario, t: SimTime) -> bool {
    !scenario.events.iter().any(|e| e.active_at(t))
        || (scenario.links_down_at(t).is_empty() && scenario.control_plane_at(t).is_quiet())
}

// -- argument decoding --------------------------------------------------------

/// One call's arguments, decoded against the called `Tool`'s declared
/// inputs: slot `i` is declared input `i`. Handlers read slots by
/// position through the typed accessors, whose errors name the declared
/// parameter, and wrap results in the declared output format.
pub(crate) struct Args<'a> {
    function: &'a FunctionId,
    output: F,
    inputs: Vec<(&'static str, &'a Value)>,
    /// The scenario's observable window; [`Args::window`] clips to it.
    horizon: TimeWindow,
}

impl<'a> Args<'a> {
    /// Binds `named` to `tool`'s declared inputs, checking presence in
    /// declared order; extra arguments are ignored. `horizon` is the
    /// scenario's observable window.
    pub(crate) fn decode(
        tool: &Tool,
        function: &'a FunctionId,
        named: &'a BTreeMap<String, Value>,
        horizon: TimeWindow,
    ) -> Result<Args<'a>, ToolError> {
        let inputs = tool
            .inputs
            .iter()
            .map(|&(name, _)| match named.get(name) {
                Some(value) => Ok((name, value)),
                None => Err(bad_argument(function, format!("missing argument {name}"))),
            })
            .collect::<Result<_, _>>()?;
        Ok(Args { function, output: tool.output, inputs, horizon })
    }

    /// Slot `i`'s raw value.
    pub(crate) fn value(&self, i: usize) -> Result<&'a Value, ToolError> {
        self.slot(i).map(|(_, value)| value)
    }

    /// Views slot `i` as `T`: zero-copy for native artifacts of that type,
    /// JSON deserialization otherwise.
    pub(crate) fn view<T: serde::de::DeserializeOwned + 'static>(
        &self,
        i: usize,
    ) -> Result<ValueView<'a, T>, ToolError> {
        let (name, value) = self.slot(i)?;
        value.view().map_err(|e| bad_argument(self.function, format!("argument {name}: {e}")))
    }

    /// Parses slot `i` into an owned `T` via the JSON projection (for
    /// small query-side values: windows, names, scalars).
    pub(crate) fn de<T: serde::de::DeserializeOwned>(&self, i: usize) -> Result<T, ToolError> {
        let (name, value) = self.slot(i)?;
        T::deserialize_json(value.json())
            .map_err(|e| bad_argument(self.function, format!("argument {name}: {e}")))
    }

    /// Parses slot `i` as a region name.
    pub(crate) fn region(&self, i: usize) -> Result<Region, ToolError> {
        let s: String = self.de(i)?;
        Region::parse(&s)
            .ok_or_else(|| bad_argument(self.function, format!("unknown region {s:?}")))
    }

    /// Parses slot `i` as a time window (reversed endpoints swap) clipped
    /// to the scenario horizon, so every later time computation stays
    /// inside it. A window that misses the horizon is a `BadArgument`:
    /// nothing was measured there.
    pub(crate) fn window(&self, i: usize) -> Result<TimeWindow, ToolError> {
        let w: WindowArg = self.de(i)?;
        let w = TimeWindow::new(SimTime(w.start), SimTime(w.end));
        let (start, end) = (w.start.max(self.horizon.start), w.end.min(self.horizon.end));
        if start >= end {
            let (name, h) = (self.slot(i)?.0, self.horizon);
            let message = format!(
                "argument {name}: [{}, {}) does not overlap the scenario horizon [{}, {})",
                w.start.0, w.end.0, h.start.0, h.end.0
            );
            return Err(bad_argument(self.function, message));
        }
        Ok(TimeWindow::new(start, end))
    }

    /// Wraps a substrate result as a native (non-empty) artifact of the
    /// declared output format.
    pub(crate) fn out<T: serde::Serialize + Send + Sync + 'static>(
        &self,
        value: T,
    ) -> Result<Value, ToolError> {
        Ok(Value::native(self.output, value, false))
    }

    /// Wraps a sequence-shaped result, preserving JSON emptiness semantics.
    pub(crate) fn out_seq<T: serde::Serialize + Send + Sync + 'static>(
        &self,
        value: Vec<T>,
    ) -> Result<Value, ToolError> {
        let empty = value.is_empty();
        Ok(Value::native(self.output, value, empty))
    }

    /// A permanent failure of the called tool.
    pub(crate) fn fail(&self, message: String) -> ToolError {
        ToolError::Failed { function: self.function.clone(), message, transient: false }
    }

    fn slot(&self, i: usize) -> Result<(&'static str, &'a Value), ToolError> {
        let slot = self.inputs.get(i).copied();
        slot.ok_or_else(|| bad_argument(self.function, format!("input {i} is not declared")))
    }
}

fn bad_argument(function: &FunctionId, message: String) -> ToolError {
    ToolError::BadArgument { function: function.clone(), message }
}

/// Views an internally cached artifact as `T`.
pub(crate) fn view_of<'a, T: serde::de::DeserializeOwned + 'static>(
    tv: &'a Value,
    what: &str,
) -> Result<ValueView<'a, T>, ToolError> {
    tv.view().map_err(|e| ToolError::Failed {
        function: FunctionId::from("internal.cache"),
        message: format!("{what}: {e}"),
        transient: false,
    })
}

/// A time window as the model writes it.
#[derive(serde::Deserialize)]
struct WindowArg {
    start: i64,
    end: i64,
}

impl ToolRuntime for StandardRuntime {
    /// Looks `function` up in the tool table, decodes `args` against its
    /// declared inputs and runs its handler.
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let tool = catalog::tool(function).ok_or_else(|| ToolError::Unbound(function.clone()))?;
        (tool.run)(self, &Args::decode(tool, function, args, self.scenario.horizon)?)
    }
}

/// Combines two country tables: counts add, scores compose as independent
/// events (`1 − (1−a)(1−b)`), rows re-sort by score.
pub(crate) fn combine_tables(a: &CountryTableData, b: &CountryTableData) -> CountryTableData {
    let mut by_country: BTreeMap<String, CountryRow> = BTreeMap::new();
    for row in a.rows.iter().chain(&b.rows) {
        match by_country.get_mut(&row.country) {
            None => {
                by_country.insert(row.country.clone(), row.clone());
            }
            Some(acc) => {
                acc.ips_affected += row.ips_affected;
                acc.links_affected += row.links_affected;
                acc.ases_affected = acc.ases_affected.max(row.ases_affected);
                acc.as_links_affected += row.as_links_affected;
                acc.impact_score = 1.0 - (1.0 - acc.impact_score) * (1.0 - row.impact_score);
            }
        }
    }
    let mut rows: Vec<CountryRow> = by_country.into_values().collect();
    rows.sort_by(|x, y| {
        y.impact_score.total_cmp(&x.impact_score).then(x.country.cmp(&y.country))
    });
    CountryTableData { rows }
}

/// Builds the country-level impact table for an attributed control-plane
/// incident: per country, how many of its registered ASes are
/// misdirected (hijack capture cone) or path-shifted (leak), scored by
/// that fraction. Physical columns (IPs/links) are zero — nothing fails.
pub(crate) fn control_plane_impact_table(
    world: &world::World,
    report: &ControlPlaneReportData,
) -> CountryTableData {
    use xaminer_sim::ControlPlaneIncident;
    let Some(offender) = report.offender else {
        return CountryTableData { rows: Vec::new() };
    };
    let offender = net_model::Asn(offender);
    let incidents: Vec<ControlPlaneIncident> = match report.kind.as_str() {
        "prefix-hijack" => report
            .victim_prefixes
            .iter()
            .filter_map(|p| net_model::Ipv4Net::parse(p).ok())
            .map(|net| ControlPlaneIncident::PrefixHijack {
                origin: offender,
                victim_prefix: net,
            })
            .collect(),
        "route-leak" => vec![ControlPlaneIncident::RouteLeak { leaker: offender }],
        _ => Vec::new(),
    };

    let mut affected: BTreeMap<net_model::Country, std::collections::BTreeSet<net_model::Asn>> =
        BTreeMap::new();
    for impact in xaminer_sim::control_plane::assess_many(world, &incidents) {
        for asn in impact.affected_ases {
            if let Some(info) = world.as_info(asn) {
                affected.entry(info.country).or_default().insert(asn);
            }
        }
    }

    let mut rows: Vec<CountryRow> = affected
        .into_iter()
        .map(|(country, ases)| {
            let total = world.as_count_in_country(country).max(1);
            CountryRow {
                country: country.code().to_string(),
                ips_affected: 0,
                links_affected: 0,
                ases_affected: ases.len(),
                as_links_affected: 0,
                impact_score: (ases.len() as f64 / total as f64).min(1.0),
            }
        })
        .collect();
    rows.sort_by(|x, y| {
        y.impact_score.total_cmp(&x.impact_score).then(x.country.cmp(&y.country))
    });
    CountryTableData { rows }
}

/// Converts an impact report into the country table schema.
pub(crate) fn country_table(report: &xaminer_sim::ImpactReport) -> CountryTableData {
    CountryTableData {
        rows: report
            .per_country
            .iter()
            .map(|c| CountryRow {
                country: c.country.code().to_string(),
                ips_affected: c.ips_affected,
                links_affected: c.links_affected,
                ases_affected: c.ases_affected,
                as_links_affected: c.as_links_affected,
                impact_score: c.impact_score,
            })
            .collect(),
    }
}

/// The main cable systems connecting two regions, by dependent-link count.
pub(crate) fn corridor_cables(
    world: &world::World,
    src: Region,
    dst: Region,
    limit: usize,
) -> Vec<CableId> {
    let mut scored: Vec<(usize, CableId)> = world
        .cables
        .iter()
        .filter(|c| {
            let regions: Vec<Region> =
                c.landings.iter().map(|&l| world.city(l).region).collect();
            regions.contains(&src) && regions.contains(&dst)
        })
        .map(|c| (world.links_on_cable(c.id).len(), c.id))
        .filter(|(n, _)| *n > 0)
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(limit).map(|(_, c)| c).collect()
}

/// Runs a probe campaign: up to 16 probes from `src`, up to 12 access-AS
/// destinations in `dst`, two Paris flows per pair, sampled every 8 hours.
/// The flow sweep broadens link coverage (MDA-style), which the forensic
/// suspect scoring depends on.
pub(crate) fn run_campaign(
    scenario: &Scenario,
    src: Region,
    dst: Region,
    window: TimeWindow,
) -> CampaignData {
    let world = &scenario.world;
    let sim = TracerouteSimulator::new(scenario);

    let all_probes: Vec<&world::Probe> =
        world.probes.iter().filter(|p| p.region == src).collect();
    let step = (all_probes.len() / 16).max(1);
    let probes: Vec<&world::Probe> = all_probes.iter().step_by(step).take(16).copied().collect();

    let all_dests: Vec<net_model::Ipv4Addr> = world
        .prefixes
        .iter()
        .filter(|p| {
            world
                .as_info(p.origin)
                .map(|a| a.region == dst && a.tier == world::AsTier::Access)
                == Some(true)
        })
        .map(|p| p.net.host(1))
        .collect();
    let dstep = (all_dests.len() / 12).max(1);
    let dests: Vec<net_model::Ipv4Addr> =
        all_dests.iter().step_by(dstep).take(12).copied().collect();

    let interval = SimDuration::hours(8);
    let mut measurements = Vec::new();
    let mut t = window.start;
    while t < window.end {
        for probe in &probes {
            for &dest in &dests {
                for flow in [0u16, 1] {
                    let fwd =
                        traceroute_sim::path::forwarding_path(&sim, probe.id, dest, t, flow);
                    let trace =
                        traceroute_sim::rtt::execute(&sim, probe.id, dest, t, flow, &fwd);
                    measurements.push(MeasurementData {
                        probe: probe.id.0,
                        dst: dest.to_string(),
                        time: t.0,
                        rtt_ms: trace.end_to_end_rtt(),
                        links: fwd.links().iter().map(|l| l.0).collect(),
                    });
                }
            }
        }
        t = t + interval;
    }

    CampaignData {
        src_region: src.name().to_string(),
        dst_region: dst.name().to_string(),
        window_start: window.start.0,
        window_end: window.end.0,
        interval_s: interval.as_seconds(),
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use xaminer_sim::FailureEvent;

    fn tv(format: F, v: serde_json::Value) -> Value {
        Value::new(format, v)
    }

    fn invoke(
        rt: &StandardRuntime,
        id: &str,
        args: Vec<(&str, Value)>,
    ) -> Result<Value, ToolError> {
        let map: BTreeMap<String, Value> =
            args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        rt.invoke(&FunctionId::from(id), &map)
    }

    #[test]
    fn resolve_and_fail_cable() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let cable = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("SeaMeWe-5")))],
        )
        .unwrap();
        let c: CableRefData = cable.parse().unwrap();
        assert_eq!(c.name, "SeaMeWe-5");

        let missing = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("Atlantis Express")))],
        );
        assert!(matches!(missing, Err(ToolError::Failed { .. })));

        let event = invoke(&rt, "util.cable_failure_event", vec![("cable", cable)]).unwrap();
        assert_eq!(event.format, F::FailureEventSpec);
    }

    #[test]
    fn cs1_manual_chain_produces_country_table() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let mapping = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        assert!(mapping.is_native(), "mapping crosses boundaries natively");
        let deps =
            invoke(&rt, "nautilus.dependency_table", vec![("mapping", mapping)]).unwrap();
        let cable = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("SeaMeWe-5")))],
        )
        .unwrap();
        let event =
            invoke(&rt, "util.cable_failure_event", vec![("cable", cable)]).unwrap();
        let impact = invoke(
            &rt,
            "xaminer.process_event",
            vec![("event", event), ("deps", deps)],
        )
        .unwrap();
        let report = invoke(&rt, "xaminer.impact_report", vec![("impact", impact)]).unwrap();
        let table =
            invoke(&rt, "xaminer.country_aggregate", vec![("report", report)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty());
        assert!(t.rows[0].impact_score >= t.rows.last().unwrap().impact_score);
    }

    #[test]
    fn event_impact_is_one_call() {
        let rt = StandardRuntime::new(scenarios::cs2_scenario());
        let disasters = tv(
            F::DisasterSpecs,
            serde_json::json!([{"kind": "earthquake", "qualifier": "severe"},
                               {"kind": "hurricane", "qualifier": "globally"}]),
        );
        let event = invoke(
            &rt,
            "util.compile_disasters",
            vec![
                ("disasters", disasters),
                ("failure_probability", tv(F::Scalar, serde_json::json!(0.1))),
            ],
        )
        .unwrap();
        let table = invoke(&rt, "xaminer.event_impact", vec![("event", event)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty(), "a 12-zone catalog at 10% must hit something");
    }

    #[test]
    fn default_deps_reuses_the_cached_mapping_artifact() {
        let rt = StandardRuntime::new(scenarios::cs2_scenario());
        let event = invoke(
            &rt,
            "util.compile_disasters",
            vec![
                (
                    "disasters",
                    tv(F::DisasterSpecs, serde_json::json!([{"kind": "earthquake"}])),
                ),
                ("failure_probability", tv(F::Scalar, serde_json::json!(0.1))),
            ],
        )
        .unwrap();
        invoke(&rt, "xaminer.event_impact", vec![("event", event)]).unwrap();
        // Mapping and default deps are *world-level* artifacts now: they
        // live in the world-keyed store, not the scenario store.
        assert!(rt.artifacts().is_empty(), "no scenario-level artifacts for event_impact");
        assert!(rt.world_artifacts().contains("nautilus.mapping"));
        assert!(rt.world_artifacts().contains("nautilus.default_deps"));
        // And the mapping the store holds is the same one map_links serves.
        let m1 = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        let m2 = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        assert!(m1.is_native());
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p2: *const MappingTable = m2.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p2), "map_links serves the cached artifact");
    }

    #[test]
    fn scenarios_sharing_a_world_share_the_mapping_artifact() {
        // The PR-5 bugfix: cs1 (quiet) and cs3 (two cable cuts) are
        // different scenarios with private scenario stores over the same
        // Arc<World> — the Nautilus mapping run must be computed once.
        let rt1 = StandardRuntime::new(scenarios::cs1_scenario());
        let rt3 = StandardRuntime::new(scenarios::cs3_scenario());
        assert!(Arc::ptr_eq(rt1.world_artifacts(), rt3.world_artifacts()));
        let m1 = invoke(&rt1, "nautilus.map_links", vec![]).unwrap();
        let m3 = invoke(&rt3, "nautilus.map_links", vec![]).unwrap();
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p3: *const MappingTable = m3.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p3), "one mapping run across scenarios sharing a world");
    }

    #[test]
    fn artifact_store_retries_after_a_failed_build() {
        let store = ArtifactStore::new();
        let err = store.get_or_build("k", || {
            Err(ToolError::Failed {
                function: FunctionId::from("t.flaky"),
                message: "transient".into(),
                transient: true,
            })
        });
        assert!(err.is_err());
        assert!(store.is_empty(), "failed slots are evicted");
        // The next request rebuilds and the success stays cached.
        let ok = store
            .get_or_build("k", || Ok(Value::new(F::Scalar, serde_json::json!(1))))
            .unwrap();
        assert_eq!(ok.json(), &serde_json::json!(1));
        let cached = store
            .get_or_build("k", || panic!("must not rebuild a cached success"))
            .unwrap();
        assert_eq!(cached, ok);
    }

    #[test]
    fn shared_artifact_store_is_computed_once_across_runtimes() {
        let scenario = Arc::new(scenarios::cs1_scenario());
        let store = Arc::new(ArtifactStore::new());
        let rt1 = StandardRuntime::shared(Arc::clone(&scenario), Arc::clone(&store));
        let rt2 = StandardRuntime::shared(Arc::clone(&scenario), Arc::clone(&store));

        let m1 = invoke(&rt1, "nautilus.map_links", vec![]).unwrap();
        let m2 = invoke(&rt2, "nautilus.map_links", vec![]).unwrap();
        assert!(store.is_empty(), "the mapping lives in the world store, not the scenario one");
        // Both runtimes serve the same native artifact.
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p2: *const MappingTable = m2.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p2), "artifact is shared, not recomputed");
    }

    #[test]
    fn probe_campaigns_count_cache_hits_and_misses() {
        let recorder = Arc::new(telemetry::Recorder::new());
        let rt = StandardRuntime::new(scenarios::cs4_scenario())
            .with_recorder(Arc::clone(&recorder));
        let args = || {
            vec![
                ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
                ("window", tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 86_400}))),
            ]
        };
        invoke(&rt, "traceroute.campaign", args()).unwrap();
        invoke(&rt, "traceroute.campaign", args()).unwrap();
        let counters = recorder.metrics_snapshot();
        assert_eq!(counters.counter("artifact_cache.miss"), 1);
        assert_eq!(counters.counter("artifact_cache.hit"), 1);
    }

    #[test]
    fn model_chosen_windows_are_clipped_to_the_horizon_or_rejected() {
        // A one-day horizon with a cut inside it keeps the probe campaign
        // small and the update stream non-empty.
        let world = scenarios::standard_world();
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::hours(12);
        let rt = StandardRuntime::new(
            Scenario::quiet(world, 1).with_event(world::EventKind::CableCut { cable }, cut),
        );
        let h = rt.scenario().horizon;
        let (max, min) = (i64::MAX, i64::MIN);
        let cases = [
            (h.start.0, h.end.0, true),
            (h.end.0, h.start.0, true), // reversed endpoints swap
            (min, max, true),           // clipped to the horizon
            (-3_600, 3_600, true),      // overlaps the horizon start
            (max - 100, max, false),    // would overflow `t + interval`
            (min, min + 1, false),
            (h.end.0, max, false), // starts where the half-open horizon ends
            (5, 5, false),         // empty
        ];
        let updates = invoke(&rt, "bgp.updates", vec![("window", window_arg(h.start.0, h.end.0))])
            .unwrap();
        assert!(!updates.is_empty_payload(), "the cut churns");
        for id in ["bgp.updates", "bgp.rib_snapshot", "bgp.detect_bursts", "traceroute.campaign"] {
            for (start, end, overlaps) in cases {
                // Extra arguments are ignored, so one binding serves all four.
                let result = invoke(
                    &rt,
                    id,
                    vec![
                        ("window", window_arg(start, end)),
                        ("updates", updates.clone()),
                        ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                        ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
                    ],
                );
                match result {
                    Ok(_) if overlaps => {}
                    Err(ToolError::BadArgument { message, .. }) if !overlaps => {
                        assert!(message.contains("does not overlap"), "{id}: {message}")
                    }
                    other => panic!("{id} over [{start}, {end}): {other:?}"),
                }
            }
        }
        // A clipped window serves exactly what the horizon itself serves.
        let full = invoke(&rt, "bgp.updates", vec![("window", window_arg(min, max))]).unwrap();
        assert_eq!(full, updates);
        let campaign = |start, end| {
            let args = vec![
                ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
                ("window", window_arg(start, end)),
            ];
            invoke(&rt, "traceroute.campaign", args).unwrap().parse::<CampaignData>().unwrap()
        };
        let clipped = campaign(min, max);
        assert_eq!((clipped.window_start, clipped.window_end), (h.start.0, h.end.0));
        assert_eq!(clipped.measurements.len(), campaign(h.start.0, h.end.0).measurements.len());
    }

    fn window_arg(start: i64, end: i64) -> Value {
        tv(F::TimeWindow, serde_json::json!({"start": start, "end": end}))
    }

    /// The oracle path: a fresh `derive_updates` and a fresh baseline
    /// capture, with no artifact store involved.
    fn oracle_moas(scenario: &Scenario) -> (Vec<bgp_sim::BgpUpdate>, Vec<bgp_sim::MoasConflict>) {
        let sim = BgpSimulator::new(scenario);
        let updates: Vec<_> = bgp_sim::updates::derive_updates(scenario, sim.collectors())
            .into_iter()
            .filter(|u| scenario.horizon.contains(u.time))
            .collect();
        let baseline = RibSnapshot::capture(scenario, sim.collectors(), scenario.horizon.start);
        let moas = bgp_sim::detect_moas_conflicts(&updates, &baseline);
        (updates, moas)
    }

    #[test]
    fn a_cut_active_at_the_horizon_start_keeps_a_per_scenario_baseline() {
        let world = scenarios::standard_world();
        let (hijacker, victim_prefix) = scenarios::cs5_actors(&world);
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let mut scenario = Scenario::quiet(world, 10);
        scenario.push_event(
            world::EventKind::CableCut { cable },
            SimTime::EPOCH - SimDuration::days(1),
            Some(SimTime::EPOCH + SimDuration::days(3)),
        );
        scenario.push_event(
            world::EventKind::PrefixHijack { origin: hijacker, victim_prefix },
            SimTime::EPOCH + SimDuration::days(6),
            None,
        );
        assert!(!scenario.links_down_at(scenario.horizon.start).is_empty());
        let (oracle_updates, oracle_moas) = oracle_moas(&scenario);
        assert!(!oracle_moas.is_empty(), "the hijack surfaces");

        // A quiet sibling first builds the world's shared start, which this
        // scenario must not read.
        let sibling = StandardRuntime::new(Scenario::quiet(scenario.world_handle(), 10));
        let no_updates = Value::native(F::BgpUpdates, Vec::<bgp_sim::BgpUpdate>::new(), true);
        invoke(&sibling, "bgp.detect_moas", vec![("updates", no_updates)]).unwrap();

        let rt = StandardRuntime::new(scenario);
        let h = rt.scenario().horizon;
        let updates =
            invoke(&rt, "bgp.updates", vec![("window", window_arg(h.start.0, h.end.0))]).unwrap();
        let moas = invoke(&rt, "bgp.detect_moas", vec![("updates", updates.clone())]).unwrap();
        assert_eq!(updates.json(), &serde_json::to_value(&oracle_updates).unwrap());
        assert_eq!(moas.json(), &serde_json::to_value(&oracle_moas).unwrap());
        assert!(rt.artifacts().contains("bgp.rib_baseline"), "the disturbed start is private");
    }

    #[test]
    fn quiet_scenarios_over_one_world_share_one_baseline_capture() {
        // A world no other test in this process builds, so its store is cold.
        let config = world::WorldConfig { seed: 0x5155_4945_5452_4942, ..Default::default() };
        let world: Arc<World> = Arc::new(world::generate(&config));
        let recorder = Arc::new(telemetry::Recorder::new());
        let runtime = |scenario: Scenario| {
            StandardRuntime::new(scenario).with_recorder(Arc::clone(&recorder))
        };
        let cable = world.cables[0].id;
        let quiet = runtime(Scenario::quiet(Arc::clone(&world), 10));
        let cut = runtime(Scenario::quiet(Arc::clone(&world), 10).with_event(
            world::EventKind::CableCut { cable },
            SimTime::EPOCH + SimDuration::days(4),
        ));
        let no_updates = Value::native(F::BgpUpdates, Vec::<bgp_sim::BgpUpdate>::new(), true);
        for rt in [&quiet, &cut] {
            invoke(rt, "bgp.detect_moas", vec![("updates", no_updates.clone())]).unwrap();
            assert!(rt.artifacts().is_empty(), "no per-scenario baseline slot");
        }
        let counters = recorder.metrics_snapshot();
        assert_eq!(counters.counter("artifact_cache.miss"), 1);
        assert_eq!(counters.counter("artifact_cache.hit"), 1);
        assert!(quiet.world_artifacts().contains("bgp.rib_quiet@0"));
        // Both serve the one capture: a pointer bump, not a copy.
        let (a, b) = (quiet.baseline_rib_value().unwrap(), cut.baseline_rib_value().unwrap());
        let pa: *const RibSnapshot = a.native_ref::<RibSnapshot>().unwrap();
        let pb: *const RibSnapshot = b.native_ref::<RibSnapshot>().unwrap();
        assert!(std::ptr::eq(pa, pb));
        // And the stream's diff chain starts from that same capture.
        let h = cut.scenario().horizon;
        let ups =
            invoke(&cut, "bgp.updates", vec![("window", window_arg(h.start.0, h.end.0))]).unwrap();
        assert_eq!(ups.json(), &serde_json::to_value(&oracle_moas(cut.scenario()).0).unwrap());
        // A quiet start at another instant is its own capture, stamped
        // with its own time.
        let mut later = Scenario::quiet(Arc::clone(&world), 10);
        later.horizon = TimeWindow::new(SimTime(86_400), SimTime(11 * 86_400));
        let later = StandardRuntime::new(later).baseline_rib_value().unwrap();
        let rib = later.native_ref::<RibSnapshot>().unwrap();
        assert_eq!(rib.at, SimTime(86_400));
        assert!(!std::ptr::eq(rib, pa));
    }

    #[test]
    fn corridor_event_connects_europe_asia() {
        let rt = StandardRuntime::new(scenarios::cs3_scenario());
        let event = invoke(
            &rt,
            "util.corridor_failure_event",
            vec![
                ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
            ],
        )
        .unwrap();
        let ev: FailureEvent = event.parse().unwrap();
        match ev {
            FailureEvent::Compound(events) => {
                assert!((1..=3).contains(&events.len()));
            }
            other => panic!("expected compound, got {other:?}"),
        }
    }

    #[test]
    fn bgp_pipeline_detects_cs3_bursts() {
        let rt = StandardRuntime::new(scenarios::cs3_scenario());
        let window = tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 10 * 86_400}));
        let updates = invoke(&rt, "bgp.updates", vec![("window", window.clone())]).unwrap();
        assert!(updates.is_native(), "update stream crosses natively");
        let bursts = invoke(
            &rt,
            "bgp.detect_bursts",
            vec![("updates", updates), ("window", window)],
        )
        .unwrap();
        let b: Vec<bgp_sim::UpdateBurst> = bursts.parse().unwrap();
        assert!(!b.is_empty(), "two cable cuts must burst");
    }

    #[test]
    fn control_plane_chain_attributes_the_cs5_hijack() {
        let rt = StandardRuntime::new(scenarios::cs5_hijack_scenario());
        let (hijacker, victim_prefix) = scenarios::cs5_actors(&rt.scenario().world);
        let window = tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 10 * 86_400}));
        let updates = invoke(&rt, "bgp.updates", vec![("window", window)]).unwrap();

        let moas =
            invoke(&rt, "bgp.detect_moas", vec![("updates", updates.clone())]).unwrap();
        let conflicts: Vec<bgp_sim::MoasConflict> = moas.parse().unwrap();
        assert!(!conflicts.is_empty(), "the hijack must surface as a MOAS conflict");
        assert!(conflicts.iter().any(|c| c.prefix == victim_prefix));
        assert!(conflicts.iter().any(|c| c.origins.contains(&net_model::Asn(hijacker.0))));

        let valleys =
            invoke(&rt, "bgp.valley_violations", vec![("updates", updates)]).unwrap();
        let violations: Vec<bgp_sim::ValleyViolation> = valleys.parse().unwrap();
        assert!(violations.is_empty(), "a pure hijack violates no export rule");

        let report = invoke(
            &rt,
            "util.attribute_control_plane",
            vec![("moas", moas), ("valleys", valleys)],
        )
        .unwrap();
        let r: ControlPlaneReportData = report.parse().unwrap();
        assert_eq!(r.kind, "prefix-hijack");
        assert_eq!(r.offender, Some(hijacker.0), "the hijacker is identified");
        assert!(r.confidence > 0.5);
        assert!(r.victim_prefixes.contains(&victim_prefix.to_string()));

        let table =
            invoke(&rt, "xaminer.control_plane_impact", vec![("report", report)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty(), "the capture cone touches some countries");
        assert!(t.rows.iter().all(|row| row.links_affected == 0), "nothing physically fails");
    }

    #[test]
    fn unknown_function_is_unbound() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        assert!(matches!(
            invoke(&rt, "frobnicate.all", vec![]),
            Err(ToolError::Unbound(_))
        ));
    }

    #[test]
    fn qa_flags_empty_results() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let bad = invoke(
            &rt,
            "qa.verify_output",
            vec![("value", tv(F::Table, serde_json::json!([])))],
        )
        .unwrap();
        let qa: QaData = bad.parse().unwrap();
        assert!(!qa.passed);

        let good = invoke(
            &rt,
            "qa.verify_output",
            vec![("value", tv(F::Table, serde_json::json!([{"x": 1}])))],
        )
        .unwrap();
        let qa: QaData = good.parse().unwrap();
        assert!(qa.passed);

        // Native sequence artifacts keep JSON emptiness semantics.
        let empty_native = Value::native(F::BgpBursts, Vec::<u32>::new(), true);
        let qa: QaData = invoke(&rt, "qa.verify_output", vec![("value", empty_native)])
            .unwrap()
            .parse()
            .unwrap();
        assert!(!qa.passed);
    }
}
