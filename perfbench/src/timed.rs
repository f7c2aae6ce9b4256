//! The untraced runs. Each repetition times a few back-to-back set-ups,
//! then does one unit of timed work on the model the last of them built;
//! the run repeats until its seconds are spent, after one untimed warm-up
//! repetition.
//!
//! `setup_s` is the median of the set-up samples and `throughput` the
//! units completed over all timed repetitions divided by their summed
//! wall-clock time. On a shared host the machine's speed moves by ±20 %
//! in phases of one to a few seconds; spreading both kinds of sample over
//! the whole run averages over those phases instead of landing in one
//! (README.md, "Noise"). `peak_rss_mb` is the process's peak resident set
//! at the end.

use crate::report::{median, Checks, Metrics, Tally};
use crate::sys::peak_rss_mib;
use crate::workloads::*;
use netfi_myrinet::Ev;
use netfi_nftape::detection::{detect_specs, run_detection, warm_detect};
use netfi_nftape::grid::warm_campaign;
use netfi_nftape::{build_fabric, topo::Fabric};
use netfi_sample::{sample_warmed, SampleOptions};
use netfi_sim::{ComponentId, ShardedEngine, SimTime, Simulation};
use std::time::Instant;

/// Fewest timed repetitions a run reports from.
const MIN_REPS: usize = 5;
/// Set-ups timed per repetition, per workload: enough that a 20 s run
/// takes hundreds of set-up samples (tens for detect-100, whose set-up
/// is 70 ms) while set-up stays a small share of the run.
const TESTBED_SETUPS: usize = 64;
const FABRIC_SETUPS: usize = 4;
const SAMPLE_SETUPS: usize = 16;
const DETECT_SETUPS: usize = 3;
/// Times `n` back-to-back calls of `setup`, each on its own with the
/// previous result dropped outside the clock, so one model is alive at a
/// time. Appends the times to `samples` and returns the last result.
pub fn time_setups<T>(n: usize, samples: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall-clock seconds of the timed work.
    pub wall: f64,
    /// User-visible units completed.
    pub units: u64,
}

/// Set-up samples and timed totals of one untraced run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up samples, seconds.
    pub setup: Vec<f64>,
    /// Units completed by the timed repetitions.
    pub units: u64,
    /// Wall-clock seconds of the timed repetitions.
    pub wall: f64,
}

impl Measured {
    /// Runs `rep` on a fresh `setup` once untimed, then, until `seconds`
    /// have passed and at least [`MIN_REPS`] timed repetitions were made,
    /// times `setups` set-ups and runs `rep` on the last one's model.
    fn repeat<T>(
        &mut self,
        seconds: f64,
        setups: usize,
        mut setup: impl FnMut() -> T,
        mut rep: impl FnMut(T) -> Rep,
    ) {
        rep(setup());
        let start = Instant::now();
        let mut n = 0;
        while n < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
            let model = time_setups(setups, &mut self.setup, &mut setup);
            let r = rep(model);
            self.units += r.units;
            self.wall += r.wall;
            n += 1;
        }
    }

    /// Adds the three end-to-end metrics.
    pub fn report(&self, on: &'static str, metrics: &mut Metrics) {
        metrics.put(on, "setup_s", "s", median(&self.setup));
        metrics.put(on, "throughput", "1/s", self.units as f64 / self.wall);
        metrics.put(on, "peak_rss_mb", "MiB", peak_rss_mib());
    }
}

/// testbed-saturated: set-up is `build_testbed`; each repetition runs the
/// fresh testbed for [`TESTBED_SIM_MS`] on the serial engine. Unit: an
/// application datagram delivered.
pub fn testbed(seed: u64, seconds: f64, tally: &mut Tally, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let setup = || build_testbed(seed, netfi_sim::NullProbe);
    m.repeat(seconds, TESTBED_SETUPS, setup, |mut tb| {
        let t = Instant::now();
        tb.engine.run_until(SimTime::from_ms(TESTBED_SIM_MS));
        let wall = t.elapsed().as_secs_f64();
        let fate = check_testbed(&tb, checks);
        tally.add(fate.delivered + fate.corrupted, fate.corrupted);
        Rep {
            wall,
            units: fate.delivered,
        }
    });
    m
}

/// A fabric split into shards, with the handles its checks read.
pub struct ShardedFabric<P: netfi_sim::Probe> {
    /// The sharded engine.
    pub sim: ShardedEngine<Ev, P>,
    /// Host component ids.
    pub hosts: Vec<ComponentId>,
    /// Leaf then spine switch ids.
    pub switches: Vec<ComponentId>,
}

/// Splits a built fabric into shards run by `workers` threads, with
/// `probe_for` supplying each shard's probe.
pub fn shard_fabric<P0: netfi_sim::Probe, P: netfi_sim::Probe + Send>(
    fab: Fabric<P0>,
    workers: usize,
    probe_for: impl FnMut(usize) -> P,
) -> ShardedFabric<P> {
    let spec = fab.shard_spec(workers);
    let switches = fabric_switches(&fab);
    let sim = ShardedEngine::from_engine(fab.engine, spec, probe_for);
    ShardedFabric {
        sim,
        hosts: fab.hosts,
        switches,
    }
}

/// The fabric-1000 set-up: build the fabric and split it into shards.
fn sharded_fabric(seed: u64) -> ShardedFabric<netfi_sim::NullProbe> {
    let fab = build_fabric(&fabric_options(seed), |_, _| {}).expect("the fabric wires");
    shard_fabric(fab, NARROW, null_probe)
}

/// fabric-1000: set-up builds and shards the fabric; each repetition
/// runs the fresh one for [`FABRIC_SIM_MS`] at [`NARROW`] workers,
/// checked against a serial run of the same fabric. Unit: an application
/// datagram delivered.
pub fn fabric(seed: u64, seconds: f64, tally: &mut Tally, checks: &mut Checks) -> Measured {
    let reference = fabric_reference(seed);
    let mut m = Measured::default();
    m.repeat(
        seconds,
        FABRIC_SETUPS,
        || sharded_fabric(seed),
        |mut f| {
            let t = Instant::now();
            f.sim.run_until(SimTime::from_ms(FABRIC_SIM_MS));
            let wall = t.elapsed().as_secs_f64();
            let fate = check_fabric(&f.sim, &f.hosts, &f.switches, reference, checks);
            tally.add(fate.delivered + fate.corrupted, fate.corrupted);
            Rep {
                wall,
                units: fate.delivered,
            }
        },
    );
    m
}

/// inject-sample: set-up is `warm_campaign`; each repetition draws and
/// runs [`SAMPLE_POINTS`] points on forks of the fresh donor at
/// [`NARROW`] workers. A prefix of the points is also run at [`WIDE`]
/// workers and must give the same records. Unit: an injection point classified.
pub fn sample(seed: u64, seconds: f64, tally: &mut Tally, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let warm = || warm_campaign(seed).expect("the campaign donor warms");
    let options = SampleOptions {
        seed,
        points: SAMPLE_POINTS,
        workers: NARROW,
    };
    let prefix = SampleOptions {
        points: SAMPLE_PREFIX,
        workers: WIDE,
        ..options
    };
    let wide = sample_warmed(&warm(), &prefix).expect("the wide prefix runs");
    let mut first: Option<u64> = None;
    m.repeat(seconds, SAMPLE_SETUPS, warm, |warm| {
        let t = Instant::now();
        let campaign = sample_warmed(&warm, &options);
        let wall = t.elapsed().as_secs_f64();
        let classified = match campaign {
            Ok(c) => {
                if first.is_none() {
                    checks.expect(
                        c.records.get(..wide.records.len()) == Some(&wide.records[..]),
                        || "1-worker and 2-worker records differ on the prefix".into(),
                    );
                    first = Some(c.fingerprint());
                }
                check_sample(&c, first, checks)
            }
            Err(e) => {
                checks.expect(false, || format!("sampled campaign failed: {e:?}"));
                0
            }
        };
        tally.add(SAMPLE_POINTS, SAMPLE_POINTS - classified);
        Rep {
            wall,
            units: classified,
        }
    });
    m
}

/// detect-100: set-up is `warm_detect`; each repetition runs the whole
/// campaign through `run_detection` at [`WIDE`] workers, which warms its
/// own donor (the set-up's is not used) and fans the scenarios out. Unit:
/// a fault scenario scored.
pub fn detect(seed: u64, seconds: f64, tally: &mut Tally, checks: &mut Checks) -> Measured {
    let options = detect_options(seed);
    let specs = detect_specs(&options);
    let mut m = Measured::default();
    let warm = || warm_detect(&options).expect("the detection donor warms");
    let mut first: Option<u64> = None;
    m.repeat(seconds, DETECT_SETUPS, warm, |_donor| {
        let t = Instant::now();
        let result = run_detection(&options, &specs, WIDE);
        let wall = t.elapsed().as_secs_f64();
        let scored = match result {
            Ok(r) => {
                let fp = r.fingerprint();
                checks.expect(first.is_none_or(|f| f == fp), || {
                    "a repeated campaign changed its fingerprint".into()
                });
                first = Some(fp);
                check_detect(&r, &options, &specs, checks)
            }
            Err(e) => {
                checks.expect(false, || format!("detection campaign failed: {e:?}"));
                0
            }
        };
        let n = specs.len() as u64;
        tally.add(n, n - scored);
        Rep {
            wall,
            units: scored,
        }
    });
    m
}
