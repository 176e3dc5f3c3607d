//! Measurement campaigns: repeated traceroutes from probe sets to
//! destination sets over a time window — the shape of data the forensic
//! workflow consumes ("latency from European probes to Asian destinations
//! over the last two weeks").

use net_model::{Ipv4Addr, ProbeId, Region, SimDuration, SimTime, TimeWindow};
use serde::{Deserialize, Serialize};

use crate::rtt::Traceroute;
use crate::TracerouteSimulator;

/// Declarative description of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Probes to launch from.
    pub probes: Vec<ProbeId>,
    /// Destination addresses.
    pub destinations: Vec<Ipv4Addr>,
    /// Sampling window.
    pub window: TimeWindow,
    /// Interval between samples.
    pub interval: SimDuration,
    /// Paris flow id used for every measurement (keeps paths comparable).
    pub flow_id: u16,
}

impl CampaignSpec {
    /// A convenience builder: all probes of `src_region` towards the given
    /// destinations, sampled every `interval` across `window`.
    pub fn regional(
        world: &world::World,
        src_region: Region,
        destinations: Vec<Ipv4Addr>,
        window: TimeWindow,
        interval: SimDuration,
    ) -> CampaignSpec {
        let probes = world
            .probes
            .iter()
            .filter(|p| p.region == src_region)
            .map(|p| p.id)
            .collect();
        CampaignSpec { probes, destinations, window, interval, flow_id: 0 }
    }

    /// The sample instants, ascending.
    pub fn sample_times(&self) -> Vec<SimTime> {
        assert!(self.interval.as_seconds() > 0, "interval must be positive");
        let mut out = Vec::new();
        let mut t = self.window.start;
        while t < self.window.end {
            out.push(t);
            t = t + self.interval;
        }
        out
    }
}

/// Results of running a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    pub spec: CampaignSpec,
    /// Measurements in (time, probe, dst) order.
    pub measurements: Vec<Traceroute>,
}

impl Campaign {
    /// Runs the campaign.
    pub fn run(sim: &TracerouteSimulator<'_>, spec: CampaignSpec) -> Campaign {
        let mut measurements = Vec::new();
        for t in spec.sample_times() {
            for &probe in &spec.probes {
                for &dst in &spec.destinations {
                    measurements.push(sim.measure(probe, dst, t, spec.flow_id));
                }
            }
        }
        Campaign { spec, measurements }
    }

    /// All measurements between one probe and one destination, time-ordered.
    pub fn series(&self, probe: ProbeId, dst: Ipv4Addr) -> Vec<&Traceroute> {
        self.measurements
            .iter()
            .filter(|m| m.probe == probe && m.dst == dst)
            .collect()
    }

    /// Mean RTT of completed measurements within a window; `None` if there
    /// are none.
    pub fn mean_rtt_in(&self, w: TimeWindow) -> Option<f64> {
        let vals: Vec<f64> = self
            .measurements
            .iter()
            .filter(|m| w.contains(m.time))
            .filter_map(|m| m.end_to_end_rtt())
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Fraction of measurements that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.measurements.is_empty() {
            return 0.0;
        }
        self.measurements.iter().filter(|m| m.completed).count() as f64
            / self.measurements.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use world::{generate, EventKind, Scenario, WorldConfig};

    fn cut_scenario() -> (Scenario, SimTime) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        (Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut), cut)
    }

    fn asian_destinations(world: &world::World, n: usize) -> Vec<Ipv4Addr> {
        world
            .prefixes
            .iter()
            .filter(|p| {
                world.as_info(p.origin).map(|a| {
                    a.region == Region::Asia && a.tier == world::AsTier::Access
                }) == Some(true)
            })
            .take(n)
            .map(|p| p.net.host(1))
            .collect()
    }

    #[test]
    fn campaign_produces_expected_volume() {
        let (s, _) = cut_scenario();
        let sim = TracerouteSimulator::new(&s);
        let dests = asian_destinations(&s.world, 3);
        let probes: Vec<ProbeId> = s.world.probes.iter().take(4).map(|p| p.id).collect();
        let spec = CampaignSpec {
            probes: probes.clone(),
            destinations: dests.clone(),
            window: TimeWindow::new(SimTime(0), SimTime(86_400)),
            interval: SimDuration::hours(6),
            flow_id: 0,
        };
        let c = Campaign::run(&sim, spec);
        assert_eq!(c.measurements.len(), 4 /*samples*/ * probes.len() * dests.len());
        assert!(c.completion_rate() > 0.8);
    }

    #[test]
    fn cable_cut_shifts_mean_rtt_for_europe_asia() {
        let (s, cut) = cut_scenario();
        let sim = TracerouteSimulator::new(&s);
        let dests = asian_destinations(&s.world, 6);
        let spec = CampaignSpec::regional(
            &s.world,
            Region::Europe,
            dests,
            s.horizon,
            SimDuration::hours(8),
        );
        let c = Campaign::run(&sim, spec);
        let before = c
            .mean_rtt_in(TimeWindow::new(s.horizon.start, cut))
            .expect("pre-cut samples");
        let after = c
            .mean_rtt_in(TimeWindow::new(cut, s.horizon.end))
            .expect("post-cut samples");
        assert!(
            after > before,
            "cutting SeaMeWe-5 must raise Europe→Asia mean RTT ({before:.1} → {after:.1})"
        );
    }

    #[test]
    fn series_is_per_pair_and_time_ordered() {
        let (s, _) = cut_scenario();
        let sim = TracerouteSimulator::new(&s);
        let dests = asian_destinations(&s.world, 2);
        let spec = CampaignSpec {
            probes: vec![s.world.probes[0].id, s.world.probes[1].id],
            destinations: dests.clone(),
            window: TimeWindow::new(SimTime(0), SimTime(43_200)),
            interval: SimDuration::hours(3),
            flow_id: 0,
        };
        let c = Campaign::run(&sim, spec);
        let series = c.series(s.world.probes[0].id, dests[0]);
        assert_eq!(series.len(), 4);
        for w in series.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn sample_times_respect_interval() {
        let spec = CampaignSpec {
            probes: vec![],
            destinations: vec![],
            window: TimeWindow::new(SimTime(0), SimTime(100)),
            interval: SimDuration::seconds(30),
            flow_id: 0,
        };
        assert_eq!(
            spec.sample_times(),
            vec![SimTime(0), SimTime(30), SimTime(60), SimTime(90)]
        );
    }
}
