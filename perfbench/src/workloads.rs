//! The four workloads: how each one's model is built from the seed, what
//! one repetition of its timed work is, and which properties its outputs
//! must have.

use crate::report::Checks;
use netfi_core::{Direction, InjectorDevice};
use netfi_myrinet::addr::EthAddr;
use netfi_myrinet::switch::Switch;
use netfi_myrinet::Ev;
use netfi_netstack::{build_testbed_probed, Host, Testbed, TestbedOptions, Workload};
use netfi_nftape::detection::{predicted_pairs, DetectOptions, DetectResult, DetectSpec};
use netfi_nftape::{build_fabric, fabric_digest, TopoOptions};
use netfi_sample::SampledCampaign;
use netfi_sim::{ComponentId, NullProbe, Probe, SimDuration, SimTime, Simulation};

/// Worker threads of the timed fabric-1000 and inject-sample runs. Both
/// run at one worker: at two, their wall time follows the share of the
/// second core the host grants (README.md, "Noise"). The traced run
/// measures them at [`WIDE`] workers too.
pub const NARROW: usize = 1;
/// Worker threads of the timed detect-100 run, and of the traced run's
/// multi-worker figures.
pub const WIDE: usize = 2;

/// Simulated span of one testbed-saturated repetition.
pub const TESTBED_SIM_MS: u64 = 20_000;
/// Hosts in the fabric-1000 workload.
pub const FABRIC_HOSTS: usize = 1_000;
/// Simulated span of one fabric-1000 repetition.
pub const FABRIC_SIM_MS: u64 = 20;
/// Injection points drawn per inject-sample repetition.
pub const SAMPLE_POINTS: u64 = 2_048;
/// Points of the 1-worker vs 2-worker prefix comparison.
pub const SAMPLE_PREFIX: u64 = 128;
/// Hosts in the detect-100 fabric.
pub const DETECT_HOSTS: usize = 100;

/// splitmix64: spreads small `--seed` values apart, one stream per use.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Datagram fate, summed over a set of hosts and switches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// UDP datagrams the NICs put on the wire.
    pub sent: u64,
    /// UDP datagrams the NICs refused for lack of a route (sends issued
    /// before the testbed's mapper installed routes).
    pub refused: u64,
    /// UDP datagrams delivered to applications.
    pub delivered: u64,
    /// Frames dropped by an integrity or buffer check: CRC-8,
    /// truncation, malformed, overflow, UDP checksum.
    pub corrupted: u64,
    /// Frames a switch dropped for a route byte naming an unwired port.
    /// On the mapped testbed these are the mapper's scouts probing empty
    /// ports.
    pub misrouted: u64,
}

impl Fate {
    /// Reads every host's and switch's counters.
    pub fn read(
        sim: &impl Simulation<Ev>,
        hosts: &[ComponentId],
        switches: &[ComponentId],
    ) -> Fate {
        let mut fate = Fate::default();
        for host in hosts.iter().filter_map(|&id| sim.component_as::<Host>(id)) {
            let udp = host.udp_stats();
            let nic = host.nic().stats();
            fate.sent += udp.tx - nic.tx_no_route;
            fate.refused += nic.tx_no_route;
            fate.delivered += udp.rx_ok;
            fate.corrupted += udp.rx_checksum_drops
                + udp.rx_malformed
                + nic.rx_crc_drops
                + nic.rx_route_errors
                + nic.rx_misaddressed
                + nic.rx_malformed
                + nic.rx_overflow_drops
                + nic.rx_truncated;
        }
        for switch in switches
            .iter()
            .filter_map(|&id| sim.component_as::<Switch>(id))
        {
            let s = switch.stats();
            fate.corrupted += s.overflow_drops
                + s.framing_drops
                + s.truncation_drops
                + s.malformed_drops
                + s.severed_drops;
            fate.misrouted += s.misroute_drops;
        }
        fate
    }

    /// Checks that no frame was corrupted or lost on the way and at most
    /// `in_flight` datagrams on the wire are not yet delivered.
    pub fn check(&self, in_flight: u64, checks: &mut Checks) {
        checks.expect(self.corrupted == 0, || {
            format!("healthy network dropped {} frames", self.corrupted)
        });
        checks.expect(
            self.delivered <= self.sent && self.sent - self.delivered <= in_flight,
            || {
                format!(
                    "{} datagrams sent, {} delivered: more than {in_flight} unaccounted for",
                    self.sent, self.delivered
                )
            },
        );
        checks.expect(self.delivered > 0, || "nothing was delivered".into());
    }
}

// ---------------------------------------------------------------- testbed

/// The saturated 3-node testbed's options: host 1's link intercepted by
/// the injector (left in pass-through), paper-era host timing.
pub fn testbed_options(seed: u64) -> TestbedOptions {
    TestbedOptions {
        intercept_host: Some(1),
        seed: mix(seed, 1),
        paper_era_hosts: true,
        ..TestbedOptions::default()
    }
}

/// The traffic of `bench_engine`'s saturated testbed: host 0 sends bursts
/// of two 256 B datagrams every 3 ms to host 1, across the injector; host
/// 2 flood-pings host 0 with 64 B datagrams.
pub fn testbed_traffic(i: usize, host: &mut Host) {
    if i == 0 {
        host.add_workload(Workload::Sender {
            dest: EthAddr::myricom(2),
            interval: SimDuration::from_ms(3),
            payload_len: 256,
            forbidden: vec![],
            burst: 2,
        });
    }
    if i == 2 {
        host.add_workload(Workload::Flood {
            peer: EthAddr::myricom(1),
            payload_len: 64,
            timeout: SimDuration::from_ms(10),
        });
    }
}

/// Builds the testbed with `probe` installed.
pub fn build_testbed<P: Probe>(seed: u64, probe: P) -> Testbed<P> {
    build_testbed_probed(testbed_options(seed), probe, testbed_traffic)
        .expect("the 3-node testbed wires")
}

/// Datagrams one testbed can hold in flight at a deadline: a sender
/// burst of two, one flood ping or echo, and as many again queued in the
/// NICs behind them.
const TESTBED_IN_FLIGHT: u64 = 6;

/// Checks a finished testbed run: the pass-through injector changed
/// nothing, no frame was corrupted or lost, and every datagram put on
/// the wire was delivered or is still in flight.
pub fn check_testbed<P: Probe>(tb: &Testbed<P>, checks: &mut Checks) -> Fate
where
    netfi_sim::Engine<Ev, P>: Simulation<Ev>,
{
    match tb
        .injector
        .and_then(|id| tb.engine.component_as::<InjectorDevice>(id))
    {
        Some(device) => {
            let mut crossed = 0;
            for dir in [Direction::AToB, Direction::BToA] {
                let s = device.fifo_stats(dir);
                let touched = s.injections
                    + s.control_injections
                    + s.forced_injections
                    + s.random_injections
                    + s.crc_recomputes;
                checks.expect(touched == 0, || {
                    format!("pass-through injector reports {touched} injections on {dir:?}")
                });
                crossed += s.packets;
            }
            checks.expect(crossed > 0, || "no packet crossed the injector".into());
        }
        None => checks.expect(false, || "the testbed has no injector".into()),
    }
    let fate = Fate::read(&tb.engine, &tb.hosts, &[tb.switch]);
    fate.check(TESTBED_IN_FLIGHT, checks);
    fate
}

// ----------------------------------------------------------------- fabric

/// The 1,000-host leaf–spine fabric's options.
pub fn fabric_options(seed: u64) -> TopoOptions {
    TopoOptions {
        seed: mix(seed, 2),
        ..TopoOptions::sized(FABRIC_HOSTS)
    }
}

/// The fabric's switches, leaves then spines.
pub fn fabric_switches<P: Probe>(fab: &netfi_nftape::topo::Fabric<P>) -> Vec<ComponentId> {
    fab.leaves.iter().chain(&fab.spines).copied().collect()
}

/// The fabric run on the serial engine, built apart from the timed runs:
/// the digest every sharded run must reproduce.
pub fn fabric_reference(seed: u64) -> u64 {
    let mut fab = build_fabric(&fabric_options(seed), |_, _| {}).expect("the fabric wires");
    fab.engine.run_until(SimTime::from_ms(FABRIC_SIM_MS));
    let switches = fabric_switches(&fab);
    fabric_digest(&fab.engine, &fab.hosts, &switches)
}

/// Checks a finished fabric run against the serial digest; every host
/// can hold one datagram in flight at the deadline (its send interval is
/// far longer than a leaf–spine–leaf crossing).
pub fn check_fabric(
    sim: &impl Simulation<Ev>,
    hosts: &[ComponentId],
    switches: &[ComponentId],
    reference: u64,
    checks: &mut Checks,
) -> Fate {
    let digest = fabric_digest(sim, hosts, switches);
    checks.expect(digest == reference, || {
        format!("sharded fabric digest {digest:#018x} != serial {reference:#018x}")
    });
    let fate = Fate::read(sim, hosts, switches);
    fate.check(hosts.len() as u64, checks);
    checks.expect(fate.refused + fate.misrouted == 0, || {
        format!(
            "statically routed fabric refused {} and misrouted {} datagrams",
            fate.refused, fate.misrouted
        )
    });
    fate
}

/// `NullProbe` for every shard.
pub fn null_probe(_shard: usize) -> NullProbe {
    NullProbe
}

// ----------------------------------------------------------------- sample

/// Checks one sampled campaign: every drawn point classified once, the
/// class counts summing to the draw, and the same records as `first`.
pub fn check_sample(c: &SampledCampaign, first: Option<u64>, checks: &mut Checks) -> u64 {
    let classified = c.records.len() as u64;
    checks.expect(classified == SAMPLE_POINTS, || {
        format!("{classified} of {SAMPLE_POINTS} points classified")
    });
    let sum: u64 = c.histogram().iter().sum();
    checks.expect(sum == SAMPLE_POINTS, || {
        format!("class counts sum to {sum}, not {SAMPLE_POINTS}")
    });
    if let Some(fp) = first {
        checks.expect(c.fingerprint() == fp, || {
            "a repeated campaign changed its fingerprint".into()
        });
    }
    classified
}

// ----------------------------------------------------------------- detect

/// The 100-host detection campaign's options.
pub fn detect_options(seed: u64) -> DetectOptions {
    let mut options = DetectOptions::sized(DETECT_HOSTS);
    options.topo.seed = mix(seed, 3);
    options
}

/// Checks one detection campaign at the reference threshold: each
/// scenario completed, silenced exactly the pairs the wiring predicts,
/// and raised no false alarm. Returns the scenarios scored.
pub fn check_detect(
    result: &DetectResult,
    options: &DetectOptions,
    specs: &[DetectSpec],
    checks: &mut Checks,
) -> u64 {
    checks.expect(result.runs.len() == specs.len(), || {
        format!("{} of {} scenarios ran", result.runs.len(), specs.len())
    });
    let t = options.reference;
    let mut scored = 0;
    for (run, spec) in result.runs.iter().zip(specs) {
        let predicted = predicted_pairs(&options.topo, &spec.fault);
        let name = &spec.name;
        checks.expect(run.spec == *name, || {
            format!("run {} out of order", run.spec)
        });
        checks.expect(run.outcome == "complete", || {
            format!("{name}: {}", run.outcome)
        });
        checks.expect(run.predicted == predicted, || {
            format!("{name}: predicted pairs differ from the wiring's")
        });
        let Some(o) = run.outcomes.get(t) else {
            checks.expect(false, || format!("{name}: no verdict at the reference θ"));
            continue;
        };
        checks.expect(o.detected == predicted && o.missed.is_empty(), || {
            format!(
                "{name}: detected {:?}, missed {:?}, predicted {predicted:?}",
                o.detected, o.missed
            )
        });
        checks.expect(o.false_alarm_pairs.is_empty(), || {
            format!("{name}: false alarms {:?}", o.false_alarm_pairs)
        });
        if run.outcome == "complete" {
            scored += 1;
        }
    }
    checks.expect(result.mean_agreement_permille() == 1000, || {
        format!(
            "agreement {} permille, not 1000",
            result.mean_agreement_permille()
        )
    });
    scored
}
