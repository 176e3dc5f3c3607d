//! The shared horizon-start RIB against its oracle: every base and
//! composed family blueprint, served over a world another scenario has
//! already warmed, answers `bgp.updates` and `bgp.detect_moas` byte for
//! byte as a fresh `derive_updates` plus a fresh baseline capture does.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgp_sim::{BgpSimulator, RibSnapshot};
use campaign::{ComposedFamily, Family, FamilyParams};
use registry::{DataFormat, FunctionId};
use scenario_forge::{ScenarioBlueprint, WorldCache};
use toolkit::StandardRuntime;
use workflow::{ToolRuntime, Value};
use world::Scenario;

fn invoke(rt: &StandardRuntime, id: &str, args: Vec<(&str, Value)>) -> Value {
    let args: BTreeMap<String, Value> =
        args.into_iter().map(|(name, value)| (name.to_string(), value)).collect();
    rt.invoke(&FunctionId::from(id), &args).unwrap_or_else(|e| panic!("{id}: {e:?}"))
}

/// `bgp.updates` over the whole horizon, then `bgp.detect_moas` on it,
/// as served JSON bytes.
fn served(rt: &StandardRuntime) -> (String, String) {
    let h = rt.scenario().horizon;
    let window = serde_json::json!({"start": h.start.0, "end": h.end.0});
    let window = Value::new(DataFormat::TimeWindow, window);
    let updates = invoke(rt, "bgp.updates", vec![("window", window)]);
    let moas = invoke(rt, "bgp.detect_moas", vec![("updates", updates.clone())]);
    let bytes = |v: &Value| serde_json::to_string(v.json()).unwrap();
    (bytes(&updates), bytes(&moas))
}

/// The same two answers from the substrate directly, with no store.
fn oracle(scenario: &Scenario) -> (String, String) {
    let sim = BgpSimulator::new(scenario);
    let updates: Vec<_> = bgp_sim::updates::derive_updates(scenario, sim.collectors())
        .into_iter()
        .filter(|u| scenario.horizon.contains(u.time))
        .collect();
    let baseline = RibSnapshot::capture(scenario, sim.collectors(), scenario.horizon.start);
    let moas = bgp_sim::detect_moas_conflicts(&updates, &baseline);
    (serde_json::to_string(&updates).unwrap(), serde_json::to_string(&moas).unwrap())
}

#[test]
fn every_family_matches_the_oracle_over_a_warm_world() {
    let params = FamilyParams::default();
    let mut fleets: Vec<(String, Vec<ScenarioBlueprint>)> =
        Family::ALL.iter().map(|f| (f.id().to_string(), f.expand(&params))).collect();
    fleets.extend(ComposedFamily::ALL.iter().map(|f| (f.id().to_string(), f.expand(&params))));
    let cache = WorldCache::new();
    for (family, fleet) in fleets {
        let blueprint = &fleet[0];
        let world = cache.get_or_generate(&blueprint.config);
        // A sibling scenario over the same world builds the shared start.
        let days = blueprint.horizon_days;
        served(&StandardRuntime::new(Scenario::quiet(Arc::clone(&world), days)));
        let rt = StandardRuntime::new(blueprint.realize(world));
        let name = format!("{family}/{}", blueprint.name);
        assert_eq!(served(&rt), oracle(rt.scenario()), "{name}");
        // Only a disturbed start keeps a baseline of its own.
        let (s, start) = (rt.scenario(), rt.scenario().horizon.start);
        let quiet = s.links_down_at(start).is_empty() && s.control_plane_at(start).is_quiet();
        assert_eq!(rt.artifacts().contains("bgp.rib_baseline"), !quiet, "{name}");
    }
}
