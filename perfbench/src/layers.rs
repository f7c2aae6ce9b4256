//! The traced run: the per-layer ledger.
//!
//! Every traced run prints the whole ledger and needs no `--workload`:
//! each layer metric is measured on the workload that exercises it, and
//! its name starts with that workload (or with no workload, for the
//! datapath microbenches that stand alone). The split of the run's
//! seconds between the sections is fixed, so every traced run does the
//! same rounds of work.
//!
//! - testbed-saturated and fabric-1000 run with a [`WallProbe`] installed
//!   through `build_testbed_probed`/`build_fabric_probed` and the
//!   sharded engine's per-shard probe factory, interleaved with untraced
//!   runs of the same model, so the attribution and `trace.overhead` come
//!   from the same minutes.
//! - The campaigns' engines carry fixed probes, so they are split by
//!   timing their public phases: warm, fork, `fork_run`, classify.
//! - The datapath figures are microbenches on `netfi_bench::harness`,
//!   each compared with the data rate of the links the model runs.

use crate::probe::{kind_table, Kind, WallProbe};
use crate::report::{median, Checks, Metrics, Tally};
use crate::sys::Stopwatch;
use crate::timed::{shard_fabric, time_setups};
use crate::workloads::*;
use netfi_bench::harness::Bench;
use netfi_core::config::InjectorConfig;
use netfi_core::fifo::FifoInjector;
use netfi_core::trigger::MatchMode;
use netfi_core::{CommandDecoder, DirSelect};
use netfi_detect::{analyze, SuspicionMonitor};
use netfi_myrinet::packet::{route_to_host, Packet, PacketType};
use netfi_nftape::detection::{
    detect_specs, fabric_graph, run_detection, warm_detect, DetectResult,
};
use netfi_nftape::grid::warm_campaign;
use netfi_nftape::runner::{commands_for_config, script_bytes};
use netfi_nftape::{build_fabric, build_fabric_probed};
use netfi_phy::Link;
use netfi_sample::{classify, sample_warmed, SampleOptions};
use netfi_sim::{NullProbe, SimTime, Simulation, TimingWheel};
use std::hint::black_box;
use std::time::Instant;

/// Shares of the run's seconds given to the sections that repeat until
/// their budget is spent. The detection campaign and the datapath
/// microbenches do a fixed amount of work.
const TESTBED_SHARE: f64 = 0.2;
const FABRIC_SHARE: f64 = 0.3;
const SAMPLE_SHARE: f64 = 0.2;

/// Fewest rounds a repeating section reports from.
const MIN_ROUNDS: usize = 3;

/// Runs `round` once untimed, then until `budget` seconds have passed
/// and at least [`MIN_ROUNDS`] rounds were made.
fn rounds(budget: f64, mut round: impl FnMut(bool)) {
    round(false);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget {
        round(true);
        n += 1;
    }
}

/// Median seconds of `n` back-to-back set-ups, timed the way the
/// untraced runs time them, and the last one's result.
fn setups<T>(n: usize, setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let last = time_setups(n, &mut times, setup);
    (median(&times), last)
}

/// Prints the whole per-layer ledger.
pub fn ledger(seed: u64, seconds: f64, m: &mut Metrics, tally: &mut Tally, checks: &mut Checks) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    m.put("host", "host.cores", "count", cores as f64);
    testbed_layers(seed, seconds * TESTBED_SHARE, m, tally, checks);
    fabric_layers(seed, seconds * FABRIC_SHARE, m, tally, checks);
    sample_layers(seed, seconds * SAMPLE_SHARE, m, tally, checks);
    detect_layers(seed, m, tally, checks);
    datapath(m, checks);
}

// ---------------------------------------------------------------- testbed

fn testbed_layers(seed: u64, budget: f64, m: &mut Metrics, tally: &mut Tally, checks: &mut Checks) {
    const ON: &str = "testbed-saturated";
    let deadline = SimTime::from_ms(TESTBED_SIM_MS);
    let (build_s, _) = setups(256, || build_testbed(seed, NullProbe));
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut kind_ns: [Vec<f64>; 4] = Default::default();
    let mut events = 0;
    rounds(budget, |keep| {
        let mut tb = build_testbed(seed, NullProbe);
        let t = Instant::now();
        tb.engine.run_until(deadline);
        let plain = t.elapsed().as_secs_f64();
        events = tb.engine.events_processed();
        let fate = check_testbed(&tb, checks);
        tally.add(fate.delivered + fate.corrupted, fate.corrupted);

        let injector: Vec<_> = tb.injector.into_iter().collect();
        let kinds = kind_table(
            tb.engine.component_count(),
            &[
                (Kind::Host, &tb.hosts),
                (Kind::Switch, &[tb.switch]),
                (Kind::Injector, &injector),
            ],
        );
        let mut traced = build_testbed(seed, WallProbe::new(kinds));
        let t = Instant::now();
        traced.engine.run_until(deadline);
        let wall = t.elapsed().as_secs_f64();
        let fate = check_testbed(&traced, checks);
        tally.add(fate.delivered + fate.corrupted, fate.corrupted);
        checks.expect(traced.engine.events_processed() == events, || {
            "the probe changed the testbed's trajectory".into()
        });
        if keep {
            let probe = traced.engine.probe();
            let per_event = |ns: u64| ns as f64 / events as f64;
            plain_ns.push(plain * 1e9 / events as f64);
            traced_ns.push(wall * 1e9 / events as f64);
            kind_ns[0].push(per_event(probe.self_ns[Kind::Host as usize]));
            kind_ns[1].push(per_event(probe.self_ns[Kind::Switch as usize]));
            kind_ns[2].push(per_event(probe.self_ns[Kind::Injector as usize]));
            kind_ns[3].push(wall * 1e9 / events as f64 - per_event(probe.handler_ns()));
        }
    });
    m.put_scoped(ON, "sim.engine.ns_per_event", "ns", median(&plain_ns));
    m.put_scoped(ON, "sim.engine.events", "count", events as f64);
    m.put_scoped(ON, "myrinet.switch.ns_per_event", "ns", median(&kind_ns[1]));
    m.put_scoped(ON, "netstack.host.ns_per_event", "ns", median(&kind_ns[0]));
    m.put_scoped(ON, "core.injector.ns_per_event", "ns", median(&kind_ns[2]));
    m.put_scoped(ON, "sim.kernel.ns_per_event", "ns", median(&kind_ns[3]));
    m.put_scoped(
        ON,
        "trace.overhead",
        "x",
        median(&traced_ns) / median(&plain_ns),
    );
    m.put(ON, "netstack.build_testbed_us", "us", build_s * 1e6);
}

// ----------------------------------------------------------------- fabric

fn fabric_layers(seed: u64, budget: f64, m: &mut Metrics, tally: &mut Tally, checks: &mut Checks) {
    const ON: &str = "fabric-1000";
    let options = fabric_options(seed);
    let deadline = SimTime::from_ms(FABRIC_SIM_MS);

    // The serial reference run, paused half-way to read the wheel's
    // occupancy for the queue microbench.
    let mut serial = build_fabric(&options, |_, _| {}).expect("the fabric wires");
    serial.engine.run_until(SimTime::from_ms(FABRIC_SIM_MS / 2));
    let occupancy = serial.engine.pending_events();
    serial.engine.run_until(deadline);
    let switches = fabric_switches(&serial);
    let reference = netfi_nftape::fabric_digest(&serial.engine, &serial.hosts, &switches);
    let events = serial.engine.events_processed();
    let kinds = kind_table(
        serial.engine.component_count(),
        &[(Kind::Host, &serial.hosts), (Kind::Switch, &switches)],
    );
    drop(serial);

    let (build_s, _) = setups(16, || {
        let fab = build_fabric(&options, |_, _| {}).expect("the fabric wires");
        shard_fabric(fab, NARROW, null_probe)
    });
    let (mut plain, mut traced, mut wide, mut wide_cpu) = (vec![], vec![], vec![], vec![]);
    let (mut host_ns, mut switch_ns, mut kernel_ns) = (vec![], vec![], vec![]);
    let (mut busy_max, mut busy_mean) = (vec![], vec![]);
    let (mut rounds_n, mut cross) = (0, 0);
    let mut account = |fate: Fate| tally.add(fate.delivered + fate.corrupted, fate.corrupted);
    rounds(budget, |keep| {
        // Untraced, at the timed run's worker count.
        let fab = build_fabric(&options, |_, _| {}).expect("the fabric wires");
        let mut f = shard_fabric(fab, NARROW, null_probe);
        let t = Instant::now();
        f.sim.run_until(deadline);
        let plain_s = t.elapsed().as_secs_f64();
        account(check_fabric(
            &f.sim,
            &f.hosts,
            &f.switches,
            reference,
            checks,
        ));
        rounds_n = f.sim.rounds();
        cross = f.sim.cross_events();
        drop(f);

        // Traced, same worker count: per-kind and per-shard self time.
        let fab = build_fabric_probed(&options, WallProbe::new(kinds.clone()), |_, _| {})
            .expect("the fabric wires");
        let mut f = shard_fabric(fab, NARROW, |_| WallProbe::new(kinds.clone()));
        let t = Instant::now();
        f.sim.run_until(deadline);
        let traced_s = t.elapsed().as_secs_f64();
        account(check_fabric(
            &f.sim,
            &f.hosts,
            &f.switches,
            reference,
            checks,
        ));
        let mut total = WallProbe::new(kinds.clone());
        let mut busy = Vec::new();
        for p in f.sim.probes() {
            total.absorb(p);
            busy.push(p.handler_ns() as f64 * 1e-9);
        }
        drop(f);

        // Untraced at WIDE workers: what the second thread buys.
        let fab = build_fabric(&options, |_, _| {}).expect("the fabric wires");
        let mut f = shard_fabric(fab, WIDE, null_probe);
        let sw = Stopwatch::start();
        f.sim.run_until(deadline);
        let lap = sw.lap();
        account(check_fabric(
            &f.sim,
            &f.hosts,
            &f.switches,
            reference,
            checks,
        ));
        drop(f);

        if keep {
            let per_event = |ns: u64| ns as f64 / events as f64;
            plain.push(plain_s);
            traced.push(traced_s);
            wide.push(lap.wall);
            wide_cpu.push(lap.cpu);
            host_ns.push(per_event(total.self_ns[Kind::Host as usize]));
            switch_ns.push(per_event(total.self_ns[Kind::Switch as usize]));
            kernel_ns.push(traced_s * 1e9 / events as f64 - per_event(total.handler_ns()));
            let max = busy.iter().copied().fold(0.0, f64::max);
            busy_max.push(max);
            busy_mean.push(busy.iter().sum::<f64>() / busy.len().max(1) as f64);
        }
    });
    let plain_s = median(&plain);
    let wide_s = median(&wide);
    m.put_scoped(
        ON,
        "sim.engine.ns_per_event",
        "ns",
        plain_s * 1e9 / events as f64,
    );
    m.put_scoped(ON, "sim.engine.events", "count", events as f64);
    m.put_scoped(ON, "myrinet.switch.ns_per_event", "ns", median(&switch_ns));
    m.put_scoped(ON, "netstack.host.ns_per_event", "ns", median(&host_ns));
    m.put_scoped(ON, "sim.kernel.ns_per_event", "ns", median(&kernel_ns));
    m.put_scoped(ON, "trace.overhead", "x", median(&traced) / plain_s);
    m.put_scoped(ON, "sim.shard.rounds", "count", rounds_n as f64);
    m.put_scoped(ON, "sim.shard.cross_events", "count", cross as f64);
    m.put_scoped(
        ON,
        "sim.shard.ns_per_round",
        "ns",
        plain_s * 1e9 / rounds_n as f64,
    );
    let (bmax, bmean) = (median(&busy_max), median(&busy_mean));
    m.put_scoped(ON, "sim.shard.busy_max_s", "s", bmax);
    m.put_scoped(ON, "sim.shard.busy_mean_s", "s", bmean);
    m.put_scoped(ON, "sim.shard.imbalance", "x", bmax / bmean);
    m.put_scoped(
        ON,
        "w2.sim.shard.ns_per_round",
        "ns",
        wide_s * 1e9 / rounds_n as f64,
    );
    let cpu = median(&wide_cpu);
    m.put_scoped(ON, "w2.process.cpu_s", "s", cpu);
    m.put_scoped(ON, "w2.process.cores_busy", "x", cpu / wide_s);
    m.put_scoped(ON, "w2.speedup", "x", plain_s / wide_s);
    let span_ps = deadline.as_ps() as f64;
    m.put(
        ON,
        "sim.queue.push_pop_ns",
        "ns",
        wheel_ns(occupancy, span_ps / events as f64),
    );
    m.put(ON, "sim.queue.occupancy", "count", occupancy as f64);
    m.put(ON, "nftape.build_fabric_ms", "ms", build_s * 1e3);
}

/// splitmix64 stream for the queue microbench's delays.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }
}

/// `TimingWheel` push+pop under the hold model: `occupancy` events
/// queued, each pop followed by a push at a uniform delay whose mean keeps
/// the occupancy at the fabric's event rate (`gap_ps` between events).
fn wheel_ns(occupancy: usize, gap_ps: f64) -> f64 {
    let mean_delay = (occupancy as f64 * gap_ps).max(1.0) as u64;
    let mut rng = Mix(1);
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for _ in 0..occupancy.max(1) {
        wheel.push(SimTime::from_ps(rng.next() % (2 * mean_delay)), seq, seq);
        seq += 1;
    }
    Bench::new("sim.queue.push_pop")
        .iters(1 << 16)
        .warmup(1 << 16)
        .run(|| {
            if let Some((t, _, item)) = wheel.pop() {
                let at = SimTime::from_ps(t.as_ps() + rng.next() % (2 * mean_delay));
                wheel.push(at, seq, item);
                seq += 1;
            }
        })
        .median_ns_per_iter()
}

// ----------------------------------------------------------------- sample

fn sample_layers(seed: u64, budget: f64, m: &mut Metrics, tally: &mut Tally, checks: &mut Checks) {
    const ON: &str = "inject-sample";
    let (warm_s, warm) = setups(41, || {
        warm_campaign(seed).expect("the campaign donor warms")
    });
    let fork = Bench::new("sim.snapshot.fork")
        .samples(41)
        .run(|| warm.snapshot().fork());

    let narrow_opts = SampleOptions {
        seed,
        points: SAMPLE_POINTS,
        workers: NARROW,
    };
    let wide_opts = SampleOptions {
        workers: WIDE,
        ..narrow_opts
    };
    let (mut narrow, mut wide, mut wide_cpu) = (vec![], vec![], vec![]);
    let mut last = None;
    rounds(budget, |keep| {
        let sw = Stopwatch::start();
        let a = sample_warmed(&warm, &narrow_opts).expect("the sampled campaign runs");
        let lap_a = sw.lap();
        let sw = Stopwatch::start();
        let b = sample_warmed(&warm, &wide_opts).expect("the sampled campaign runs");
        let lap_b = sw.lap();
        for c in [&a, &b] {
            let classified = check_sample(c, Some(a.fingerprint()), checks);
            tally.add(SAMPLE_POINTS, SAMPLE_POINTS - classified);
        }
        if keep {
            narrow.push(lap_a.wall);
            wide.push(lap_b.wall);
            wide_cpu.push(lap_b.cpu);
        }
        last = Some(a);
    });
    let campaign = last.expect("at least one round");
    let records = &campaign.records;
    let mut i = 0;
    let classify_ns = Bench::new("sample.classify")
        .iters(1 << 14)
        .run(|| {
            i = (i + 1) % records.len();
            classify(&records[i].evidence, &campaign.baseline)
        })
        .median_ns_per_iter();
    checks.expect(
        records
            .iter()
            .all(|r| classify(&r.evidence, &campaign.baseline) == r.class),
        || "classify disagrees with the campaign's records".into(),
    );

    let narrow_s = median(&narrow);
    let wide_s = median(&wide);
    let cpu = median(&wide_cpu);
    m.put(ON, "nftape.warm_campaign_ms", "ms", warm_s * 1e3);
    m.put_scoped(
        ON,
        "sim.snapshot.fork_us",
        "us",
        fork.median_ns_per_iter() / 1e3,
    );
    m.put(
        ON,
        "sample.point_us",
        "us",
        narrow_s * 1e6 / SAMPLE_POINTS as f64,
    );
    m.put(ON, "sample.classify_ns", "ns", classify_ns);
    m.put_scoped(ON, "w2.process.cpu_s", "s", cpu);
    m.put_scoped(ON, "w2.process.cores_busy", "x", cpu / wide_s);
    m.put_scoped(ON, "w2.speedup", "x", narrow_s / wide_s);
}

// ----------------------------------------------------------------- detect

fn detect_layers(seed: u64, m: &mut Metrics, tally: &mut Tally, checks: &mut Checks) {
    const ON: &str = "detect-100";
    let options = detect_options(seed);
    let specs = detect_specs(&options);
    let (warm_s, warm) = setups(5, || {
        warm_detect(&options).expect("the detection donor warms")
    });
    let graph = fabric_graph(&options.topo);
    let analyze_ms = Bench::new("detect.analyze")
        .samples(21)
        .run(|| analyze(&graph));

    // Each scenario on its own fork, three times; the median is reported.
    let mut runs = Vec::new();
    m.put(ON, "nftape.warm_detect_ms", "ms", warm_s * 1e3);
    m.put(
        ON,
        "detect.analyze_ms",
        "ms",
        analyze_ms.median_ns_per_iter() / 1e6,
    );
    for spec in &specs {
        let mut times = Vec::new();
        let mut run = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = warm.fork_run(spec).expect("the scenario runs");
            times.push(t.elapsed().as_secs_f64());
            run = Some(r);
        }
        runs.push(run.expect("at least one run"));
        let name = format!("nftape.detect.fork_run_ms.{}", spec.name);
        m.put(ON, name, "ms", median(&times) * 1e3);
    }
    let result = DetectResult {
        runs,
        thresholds: options.thresholds.clone(),
        reference: options.reference,
        topo_report: String::new(),
    };
    let scored = check_detect(&result, &options, &specs, checks);
    let n = specs.len() as u64;
    tally.add(n, n - scored);

    // The whole campaign at 1 and at WIDE workers.
    let lap = |workers: usize, tally: &mut Tally, checks: &mut Checks| {
        let sw = Stopwatch::start();
        let result = run_detection(&options, &specs, workers).expect("the campaign runs");
        let lap = sw.lap();
        let scored = check_detect(&result, &options, &specs, checks);
        tally.add(n, n - scored);
        lap
    };
    let narrow = lap(1, tally, checks);
    let wide = lap(WIDE, tally, checks);
    m.put_scoped(ON, "w2.process.cpu_s", "s", wide.cpu);
    m.put_scoped(ON, "w2.process.cores_busy", "x", wide.cpu / wide.wall);
    m.put_scoped(ON, "w2.speedup", "x", narrow.wall / wide.wall);

    // φ-accrual: one arrival per pair, then one poll of every pair.
    let pairs = DETECT_HOSTS;
    let mut monitor = SuspicionMonitor::new(pairs, options.window, &options.thresholds);
    let period_ps = options.heartbeat.as_ps();
    let mut seq = 0u64;
    let accrual = Bench::new("detect.accrual").iters(64).run(|| {
        seq += 1;
        let at = SimTime::from_ps(seq * period_ps);
        for pair in 0..pairs {
            monitor.arrival(pair, seq, at);
        }
        monitor.poll(at);
    });
    checks.expect(monitor.suspected_pairs(0).is_empty(), || {
        "regular heartbeats raised suspicion".into()
    });
    m.put(
        ON,
        "detect.accrual.update_ns",
        "ns",
        accrual.median_ns_per_iter() / pairs as f64,
    );

    // The donor's snapshot is private to `WarmedDetect`; fork the same
    // fabric, run for the same warm-up span, instead.
    let mut fab = build_fabric(&options.topo, |_, _| {}).expect("the fabric wires");
    fab.engine.run_until(SimTime::ZERO + options.warm);
    let snapshot = fab.engine.snapshot();
    let fork = Bench::new("sim.snapshot.fork")
        .samples(21)
        .run(|| snapshot.fork());
    m.put_scoped(
        ON,
        "sim.snapshot.fork_us",
        "us",
        fork.median_ns_per_iter() / 1e3,
    );
}

// --------------------------------------------------------------- datapath

/// Reference CRC-8 (x⁸ + x² + x + 1), one bit at a time.
fn crc8_reference(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in data {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Reference Internet checksum: one's-complement sum of big-endian
/// 16-bit words, the odd byte padded with zero, complemented.
fn inet_reference(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    for pair in data.chunks(2) {
        let hi = u64::from(pair[0]) << 8;
        sum += hi | pair.get(1).map_or(0, |&lo| u64::from(lo));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn datapath(m: &mut Metrics, checks: &mut Checks) {
    const ON: &str = "datapath";
    let link = Link::myrinet_640(1.0).data_rate_bps() as f64 / 8.0 / (1 << 20) as f64;
    // A DATA packet carrying the testbed sender's 256-byte payload.
    let payload: Vec<u8> = (0..256).map(|i| (i * 37 % 251) as u8).collect();
    let frame = Packet::new(vec![route_to_host(1)], PacketType::DATA, payload).encode();
    let iters = 4096;
    let mib_per_s = |ns_per_frame: f64| frame.len() as f64 / ns_per_frame * 1e9 / (1 << 20) as f64;
    let put_rate = |m: &mut Metrics, name: &str, ns: f64| {
        let rate = mib_per_s(ns);
        m.put(ON, format!("{name}mib_per_s"), "MiB/s", rate);
        m.put(ON, format!("{name}x_link"), "x", rate / link);
    };

    let body = &frame[..frame.len() - 1];
    checks.expect(
        netfi_myrinet::crc8::checksum(body) == crc8_reference(body),
        || "CRC-8 disagrees with the bitwise reference".into(),
    );
    let crc = Bench::new("myrinet.crc8")
        .iters(iters)
        .run(|| netfi_myrinet::crc8::checksum(black_box(&frame)));
    put_rate(m, "myrinet.crc8.", crc.median_ns_per_iter());

    checks.expect(
        netfi_netstack::checksum::checksum(&frame) == inet_reference(&frame),
        || "UDP checksum disagrees with the reference sum".into(),
    );
    let sum = Bench::new("netstack.checksum")
        .iters(iters)
        .run(|| netfi_netstack::checksum::checksum(black_box(&frame)));
    put_rate(m, "netstack.checksum.", sum.median_ns_per_iter());

    let mut injector = FifoInjector::new(InjectorConfig::passthrough());
    let mut buf = frame.clone();
    let report = injector.process_packet(&mut buf);
    checks.expect(!report.injected() && buf == frame, || {
        "pass-through changed the packet".into()
    });
    let pass = Bench::new("core.fifo.passthrough").iters(iters).run(|| {
        buf.copy_from_slice(&frame);
        injector.process_packet(black_box(&mut buf))
    });
    put_rate(m, "core.fifo.passthrough_", pass.median_ns_per_iter());

    // Armed: a 16-bit pattern planted mid-payload is replaced and the
    // trailing CRC-8 recomputed.
    let armed_config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .compare(0x1818_0000, 0xFFFF_0000)
        .corrupt_replace(0x1918_0000, 0xFFFF_0000)
        .recompute_crc(true)
        .build();
    let mut template = frame.clone();
    let mid = template.len() / 2;
    template[mid] = 0x18;
    template[mid + 1] = 0x18;
    let fixed_crc = crc8_reference(&template[..template.len() - 1]);
    let last = template.len() - 1;
    template[last] = fixed_crc;
    let mut injector = FifoInjector::new(armed_config);
    let mut buf = template.clone();
    let report = injector.process_packet(&mut buf);
    checks.expect(
        report.injected() && buf != template && crc8_reference(&buf[..last]) == buf[last],
        || "armed injector did not corrupt and repair the CRC".into(),
    );
    let armed = Bench::new("core.fifo.armed").iters(iters).run(|| {
        buf.copy_from_slice(&template);
        injector.process_packet(black_box(&mut buf))
    });
    put_rate(m, "core.fifo.armed_", armed.median_ns_per_iter());

    // Render one injector program to serial bytes and decode it back.
    let commands = commands_for_config(DirSelect::Both, &armed_config);
    let mut decoded = Vec::new();
    let program = Bench::new("core.command.program").iters(256).run(|| {
        let bytes = script_bytes(black_box(&commands));
        let mut decoder = CommandDecoder::new();
        decoded.clear();
        decoded.extend(bytes.iter().filter_map(|&b| decoder.feed(b)));
    });
    checks.expect(
        decoded.len() == commands.len()
            && decoded
                .iter()
                .zip(&commands)
                .all(|(d, c)| d.as_ref() == Ok(c)),
        || "the decoded program differs from the rendered one".into(),
    );
    m.put(
        ON,
        "core.command.program_us",
        "us",
        program.median_ns_per_iter() / 1e3,
    );
}
