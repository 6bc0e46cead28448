//! The three simulator workloads — `paper`, `dutycycle` and `fabric` —
//! and the measurements they share.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use kautz::RouteTable;
use refer::{ReferConfig, ReferProtocol};
use refer_baselines::{
    fabric_config, DaTreeProtocol, DdearProtocol, KautzFabricProtocol, KautzOverlayProtocol,
};
use refer_bench::{base_config, run_system, Sweep, System, SYSTEMS};
use refer_obs::CountingSink;
use wsan_sim::{
    runner, Area, Ctx, DataId, EnergyAccount, Engine, Message, NodeId, Protocol, RoutingStrategy,
    RunSummary, SensorPlacement, ShardableProtocol, ShardedConfig, SimConfig, SimDuration,
    TraceSink,
};

use crate::probe::{one_kind, refer_kind, HookStats, Probe, HOOKS, REFER_KINDS};
use crate::report::{check_repeat, median, Report};
use crate::{repeat, sys, Args};

/// Fewest set-up samples an end-to-end run reports the median of.
const SETUP_SAMPLES: usize = 9;
/// Share of each pass's time spent on set-up-only samples taken right
/// after it, so that short set-ups are sampled many times, across the
/// whole run rather than in one burst.
const SETUP_SHARE: f64 = 0.02;

type Sinks = Vec<Box<dyn TraceSink>>;

/// One measured simulation run.
pub struct Pass {
    pub summary: RunSummary,
    /// Protocol construction until `on_init` returns.
    pub setup_s: f64,
    /// Protocol construction until `on_init` is entered.
    pub world_build_s: f64,
    pub on_init_s: f64,
    /// Host seconds after set-up.
    pub run_s: f64,
    pub total_s: f64,
    pub cpu_s: f64,
    /// Application packets handed to the protocol.
    pub packets: u64,
}

/// Builds the probed protocol with `make` and runs it through `engine`,
/// timing set-up — protocol construction, world build and `on_init` —
/// and the run from outside. Before the clock starts, the process moves to
/// the CPU the rest of the host has left idlest, so that a tenant busy on
/// one CPU slows as few passes as it can.
fn measure<P: Protocol>(
    make: impl FnOnce() -> Probe<P>,
    sinks: Sinks,
    engine: impl FnOnce(&mut Probe<P>, Sinks) -> (RunSummary, Sinks),
) -> (Pass, Probe<P>, Sinks) {
    let on = sys::pin_to_idlest_cpu().map_or("unpinned".to_string(), |c| format!("cpu {c}"));
    let cpu0 = sys::own().cpu_s;
    let start = Instant::now();
    let mut probe = make();
    let (summary, sinks) = engine(&mut probe, sinks);
    let end = Instant::now();
    let cpu_s = sys::own().cpu_s - cpu0;
    let (entered, returned) = probe.init.expect("the engine calls on_init");
    eprintln!(
        "{} on {on}: set-up {:.6} s, run {:.3} s, cpu {:.3} s",
        probe.name(),
        (returned - start).as_secs_f64(),
        (end - returned).as_secs_f64(),
        cpu_s
    );
    let pass = Pass {
        summary,
        setup_s: (returned - start).as_secs_f64(),
        world_build_s: (entered - start).as_secs_f64(),
        on_init_s: (returned - entered).as_secs_f64(),
        run_s: (end - returned).as_secs_f64(),
        total_s: (end - start).as_secs_f64(),
        cpu_s,
        packets: probe.app_packets(),
    };
    (pass, probe, sinks)
}

fn serial<P: Protocol>(
    cfg: &SimConfig,
    make: impl FnOnce() -> Probe<P>,
    sinks: Sinks,
) -> (Pass, Probe<P>, Sinks) {
    measure(make, sinks, |p, s| {
        runner::run_with_sinks(cfg.clone(), p, s)
    })
}

fn engine<P>(
    cfg: &SimConfig,
    make: impl FnOnce() -> Probe<P>,
    sinks: Sinks,
) -> (Pass, Probe<P>, Sinks)
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    measure(make, sinks, |p, s| {
        wsan_sim::run_engine_with_sinks(cfg.clone(), p, s)
    })
}

/// Set-up seconds without running the simulation: the protocol is
/// built, the world built and initialised, then dropped.
fn setup_only<P: Protocol>(cfg: &SimConfig, make: impl FnOnce() -> P) -> f64 {
    let start = Instant::now();
    let mut probe = Probe::new(make(), one_kind, None);
    drop(runner::construct(
        cfg.clone(),
        &mut probe,
        SimDuration::ZERO,
    ));
    let (_, returned) = probe.init.expect("construct calls on_init");
    (returned - start).as_secs_f64()
}

fn sim_seconds(cfg: &SimConfig) -> f64 {
    (cfg.warmup + cfg.duration).as_secs_f64()
}

/// Packets delivered in the measured window, from the summary's QoS
/// counts and deadline-miss share.
fn delivered_packets(s: &RunSummary, cfg: &SimConfig) -> f64 {
    let qos_packets =
        s.throughput_bps * cfg.duration.as_secs_f64() / (f64::from(cfg.traffic.packet_bits) / 8.0);
    qos_packets / (1.0 - s.deadline_miss_ratio)
}

/// Per-pass samples of the end-to-end timings.
#[derive(Default)]
struct Samples {
    setups: Vec<f64>,
    rates: Vec<f64>,
    cpu_per_packet: Vec<f64>,
}

impl Samples {
    fn push(&mut self, setup_s: f64, sim_s: f64, run_s: f64, cpu_s: f64, packets: u64) {
        self.setups.push(setup_s);
        self.rates.push(sim_s / run_s);
        self.cpu_per_packet.push(cpu_s * 1e6 / packets as f64);
    }

    /// Takes set-up-only samples after a pass of `pass_s` host seconds for
    /// as long as the next one, judged by the last, keeps their cost within
    /// [`SETUP_SHARE`] of the pass.
    fn sample_setups(&mut self, pass_s: f64, mut sample: impl FnMut() -> f64) {
        let budget = SETUP_SHARE * pass_s;
        let mut spent = 0.0;
        let mut last = *self.setups.last().expect("the pass pushed its set-up");
        while spent + last <= budget {
            let start = Instant::now();
            last = sample();
            self.setups.push(last);
            spent += start.elapsed().as_secs_f64();
        }
    }

    /// Tops the set-up samples up with set-up-only runs until there are at
    /// least [`SETUP_SAMPLES`].
    fn top_up_setups(&mut self, mut sample: impl FnMut() -> f64) {
        while self.setups.len() < SETUP_SAMPLES {
            self.setups.push(sample());
        }
    }

    /// The end-to-end metrics common to the simulator workloads.
    fn report(&self, rep: &mut Report, delivery: f64) {
        rep.set("setup_s", median(&self.setups));
        rep.set("sim_s_per_host_s", median(&self.rates));
        rep.set("peak_rss_mb", sys::own().peak_rss_mb);
        rep.set("cpu_us_per_packet", median(&self.cpu_per_packet));
        rep.set("delivery", delivery);
    }
}

/// Per-layer metrics read from a run's summary and trace counts.
fn report_radio(
    rep: &mut Report,
    s: &RunSummary,
    cfg: &SimConfig,
    counts: &refer_obs::EventCounts,
) {
    let count = |kind: &str| counts.by_kind.get(kind).copied().unwrap_or(0) as f64;
    rep.set("sim.radio.sends", s.frames_sent as f64);
    rep.set("sim.radio.broadcasts", s.broadcasts_sent as f64);
    rep.set("sim.radio.send_failed", count("SendFailed"));
    rep.set("sim.radio.queue_drops", count("QueueDrop"));
    rep.set("sim.radio.retransmissions", s.retransmissions as f64);
    rep.set("sim.radio.queue_delay_p99_ms", s.queue_delay_p99_s * 1e3);
    rep.set("sim.radio.hot_link_utilization", s.hot_link_utilization);
    rep.set("sim.delay_p99_ms", s.delay_p99_s * 1e3);
    rep.set(
        "sim.energy_mj_per_packet",
        s.energy_communication_j * 1e3 / delivered_packets(s, cfg),
    );
    rep.set("obs.trace_events", counts.total as f64);
}

/// Per-layer metrics of the engine around a hook-timed run.
fn report_engine(rep: &mut Report, pass: &Pass, hooks: &HookStats) {
    let (calls, ns) = hooks.total();
    rep.set("sim.engine_self_s", pass.run_s - ns as f64 * 1e-9);
    rep.set("sim.events", calls as f64);
    rep.set("sim.events_per_s", calls as f64 / pass.run_s);
    rep.set("sim.off_cpu_s", pass.total_s - pass.cpu_s);
    rep.set("sim.world_build_s", pass.world_build_s);
    rep.set("core.on_init_s", pass.on_init_s);
}

/// Tracing cost: the counting-sink run against the untraced one.
fn report_trace_cost(rep: &mut Report, untraced_s: f64, traced_s: f64, events: u64) {
    rep.set(
        "obs.ns_per_event",
        (traced_s - untraced_s) * 1e9 / events.max(1) as f64,
    );
    rep.set("obs.trace_overhead", (traced_s - untraced_s) / untraced_s);
}

// ---------------------------------------------------------------------
// paper
// ---------------------------------------------------------------------

/// Faulty nodes at the figure 6/7 midpoint (the faults sweep runs 2–10).
const PAPER_FAULTS: f64 = 6.0;

/// The figure 6/7 midpoint: `base_config(1.0)` with six rotating faults
/// and the run's seed.
fn paper_config(seed: u64) -> SimConfig {
    let mut cfg = base_config(1.0);
    Sweep::Faults.configure(&mut cfg, PAPER_FAULTS);
    cfg.seed = seed;
    cfg
}

/// One run of `system`, wrapped in a probe.
fn paper_run(
    cfg: &SimConfig,
    system: System,
    hooks: Option<Arc<HookStats>>,
    sinks: Sinks,
) -> (Pass, Sinks) {
    fn go<P: Protocol>(
        cfg: &SimConfig,
        make: impl FnOnce() -> Probe<P>,
        sinks: Sinks,
    ) -> (Pass, Sinks) {
        let (pass, _, sinks) = serial(cfg, make, sinks);
        (pass, sinks)
    }
    let refer = || ReferProtocol::new(ReferConfig::default());
    match system {
        System::Refer => go(cfg, || Probe::new(refer(), refer_kind, hooks), sinks),
        System::DaTree => go(
            cfg,
            || Probe::new(DaTreeProtocol::default(), one_kind, hooks),
            sinks,
        ),
        System::Ddear => go(
            cfg,
            || Probe::new(DdearProtocol::default(), one_kind, hooks),
            sinks,
        ),
        System::KautzOverlay => go(
            cfg,
            || Probe::new(KautzOverlayProtocol::default(), one_kind, hooks),
            sinks,
        ),
    }
}

fn paper_setup_only(cfg: &SimConfig) -> f64 {
    setup_only(cfg, || ReferProtocol::new(ReferConfig::default()))
        + setup_only(cfg, DaTreeProtocol::default)
        + setup_only(cfg, DdearProtocol::default)
        + setup_only(cfg, KautzOverlayProtocol::default)
}

pub fn paper(args: &Args, rep: &mut Report) {
    let cfg = paper_config(args.seed);
    if args.trace {
        return paper_traced(&cfg, rep);
    }
    let mut first: [Option<RunSummary>; 4] = Default::default();
    let mut samples = Samples::default();
    repeat(args.deadline(), 2, 0, || {
        let (mut setup, mut run_s, mut cpu_s, mut packets) = (0.0, 0.0, 0.0, 0);
        for (system, first) in SYSTEMS.into_iter().zip(&mut first) {
            let (pass, _) = paper_run(&cfg, system, None, Vec::new());
            setup += pass.setup_s;
            run_s += pass.run_s;
            cpu_s += pass.cpu_s;
            packets += pass.packets;
            check_repeat(rep, first, pass.summary, system.name());
        }
        let sim_s = SYSTEMS.len() as f64 * sim_seconds(&cfg);
        samples.push(setup, sim_s, run_s, cpu_s, packets);
        samples.sample_setups(setup + run_s, || paper_setup_only(&cfg));
        true
    });
    samples.top_up_setups(|| paper_setup_only(&cfg));
    let refer = first[0].as_ref().expect("REFER ran");
    samples.report(rep, refer.qos_delivery_ratio);
}

fn paper_traced(cfg: &SimConfig, rep: &mut Report) {
    let start = Instant::now();
    let plain = run_system(cfg, System::Refer);
    let untraced_s = start.elapsed().as_secs_f64();

    let (sink, counts) = CountingSink::new();
    let (traced, _) = paper_run(cfg, System::Refer, None, vec![Box::new(sink)]);
    let counts = counts.get();
    let hooks = HookStats::new(REFER_KINDS.len());
    let (timed, _) = paper_run(cfg, System::Refer, Some(Arc::clone(&hooks)), Vec::new());
    rep.op(
        traced.summary == plain,
        "a counting sink leaves REFER's RunSummary unchanged",
    );
    rep.op(
        timed.summary == plain,
        "hook timing leaves REFER's RunSummary unchanged",
    );

    report_engine(rep, &timed, &hooks);
    report_radio(rep, &plain, cfg, &counts);
    report_trace_cost(rep, untraced_s, traced.total_s, counts.total);
    for (i, kind) in REFER_KINDS.iter().enumerate() {
        let (calls, ns) = hooks.message(i);
        rep.set(&format!("core.on_message.{kind}.calls"), calls as f64);
        rep.set(&format!("core.on_message.{kind}.ns"), ns as f64);
    }
    for hook in HOOKS {
        let (calls, ns) = hooks.hook(hook);
        rep.set(&format!("core.{hook}.calls"), calls as f64);
        rep.set(&format!("core.{hook}.ns"), ns as f64);
    }
    for (system, name) in [
        (System::DaTree, "datree"),
        (System::Ddear, "ddear"),
        (System::KautzOverlay, "kautz_overlay"),
    ] {
        let (pass, _) = paper_run(cfg, system, None, Vec::new());
        rep.op(true, "paper baseline run");
        rep.set(&format!("baselines.{name}.host_s"), pass.total_s);
    }
    report_cell_routing(rep);
}

/// Set-up samples of the cell's route table.
const TABLE_BUILDS: usize = 201;
/// Least lookups each route-lookup timing makes.
const LOOKUPS: usize = 2_000_000;
/// Least plan computations the disjoint-plan timing makes.
const PLANS: usize = 200_000;

/// The cell's Kautz routing, timed from outside: REFER and the Kautz
/// overlay each build a dense `RouteTable` for the cell graph
/// `K(degree, 3)` and route every in-cell hop through it. The lookups walk
/// every ordered pair of distinct cell vertices, so every pair the
/// protocols can ask for, in rounds.
fn report_cell_routing(rep: &mut Report) {
    let degree = ReferConfig::default().degree;
    let build = || RouteTable::new(degree, 3).expect("the cell graph is a valid Kautz graph");
    let builds: Vec<f64> = (0..TABLE_BUILDS)
        .map(|_| {
            let start = Instant::now();
            black_box(build());
            start.elapsed().as_secs_f64()
        })
        .collect();
    rep.set("kautz.route_table_build_s", median(&builds));

    let table = build();
    let n = table.node_count();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
        .collect();
    let per_call = |calls: usize, f: &dyn Fn(usize, usize)| {
        let rounds = calls.div_ceil(pairs.len());
        let start = Instant::now();
        for _ in 0..rounds {
            for &(u, v) in &pairs {
                f(u, v);
            }
        }
        start.elapsed().as_nanos() as f64 / (rounds * pairs.len()) as f64
    };
    rep.set(
        "kautz.next_hop_ns",
        per_call(LOOKUPS, &|u, v| {
            black_box(table.next_hop(black_box(u), black_box(v)));
        }),
    );
    rep.set(
        "kautz.regular_next_ns",
        per_call(LOOKUPS, &|u, v| {
            black_box(table.regular_next(black_box(u), black_box(v), 0));
        }),
    );
    rep.set(
        "kautz.disjoint_plans_ns",
        per_call(PLANS, &|u, v| {
            black_box(table.disjoint_plans(black_box(u), black_box(v)));
        }),
    );
}

// ---------------------------------------------------------------------
// dutycycle
// ---------------------------------------------------------------------

/// Sensors in the duty-cycle workload.
const DUTY_NODES: usize = 1_000_000;
/// Duty-cycle period.
const DUTY_PERIOD_US: u64 = 250_000;

/// Every node keeps one duty-cycle timer armed; sources broadcast their
/// packets one hop. A packet counts as delivered when a neighbour hears it.
#[derive(Debug, Default)]
struct DutyCycle {
    fires: u64,
    offered: u64,
    heard: std::collections::HashSet<DataId>,
}

impl Protocol for DutyCycle {
    type Payload = DataId;

    fn name(&self) -> &'static str {
        "DutyCycle"
    }

    fn on_init(&mut self, ctx: &mut Ctx<DataId>) {
        let ids: Vec<NodeId> = ctx.node_ids().collect();
        for id in ids {
            let phase = (u64::from(id.0) * 7919) % DUTY_PERIOD_US;
            ctx.set_timer(id, SimDuration::from_micros(phase), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DataId>, node: NodeId, _tag: u64) {
        self.fires += 1;
        let jitter = (u64::from(node.0) * 104_729) % 1_024;
        ctx.set_timer(node, SimDuration::from_micros(DUTY_PERIOD_US + jitter), 0);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, src: NodeId, data: DataId) {
        self.offered += 1;
        let size = ctx.config().traffic.packet_bits;
        ctx.broadcast(src, size, EnergyAccount::Communication, data);
        ctx.drop_data(data);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, msg: Message<DataId>) {
        self.heard.insert(msg.payload);
    }
}

/// One million static sensors at the paper's density, 2.5 simulated
/// seconds, one light broadcast source per thousand sensors each second
/// (three rounds, each heard before the run ends).
fn duty_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.sensors = DUTY_NODES;
    let side = 500.0 * (DUTY_NODES as f64 / 200.0).sqrt();
    cfg.area = Area::new(side, side);
    cfg.sensor_placement = SensorPlacement::UniformArea;
    cfg.mobility.max_speed = 0.0;
    cfg.mobility.tick = SimDuration::from_secs(2);
    cfg.faults.count = 0;
    cfg.warmup = SimDuration::ZERO;
    cfg.duration = SimDuration::from_millis(2_500);
    cfg.traffic.sources_per_round = DUTY_NODES / 1_000;
    cfg.traffic.round_interval = SimDuration::from_secs(1);
    cfg.traffic.rate_bps = 8_000.0;
    cfg.seed = seed;
    cfg
}

fn duty_run(
    cfg: &SimConfig,
    hooks: Option<Arc<HookStats>>,
    sinks: Sinks,
) -> (Pass, DutyCycle, Sinks) {
    let (pass, probe, sinks) = serial(
        cfg,
        || Probe::new(DutyCycle::default(), one_kind, hooks),
        sinks,
    );
    (pass, probe.into_inner(), sinks)
}

pub fn dutycycle(args: &Args, rep: &mut Report) {
    let cfg = duty_config(args.seed);
    if args.trace {
        return duty_traced(&cfg, rep);
    }
    let mut first = None;
    let mut samples = Samples::default();
    let mut delivery = 0.0;
    repeat(args.deadline(), 2, 0, || {
        let (pass, duty, _) = duty_run(&cfg, None, Vec::new());
        rep.op(
            duty.fires > 0 && duty.offered > 0,
            "dutycycle fires timers and offers packets",
        );
        delivery = duty.heard.len() as f64 / duty.offered as f64;
        let sim_s = sim_seconds(&cfg);
        samples.push(pass.setup_s, sim_s, pass.run_s, pass.cpu_s, pass.packets);
        samples.sample_setups(pass.total_s, || setup_only(&cfg, DutyCycle::default));
        let outcome = (pass.summary, duty.fires, duty.heard.len());
        check_repeat(rep, &mut first, outcome, "dutycycle");
        true
    });
    samples.top_up_setups(|| setup_only(&cfg, DutyCycle::default));
    samples.report(rep, delivery);
}

fn duty_traced(cfg: &SimConfig, rep: &mut Report) {
    let (plain, _, _) = duty_run(cfg, None, Vec::new());
    let (sink, counts) = CountingSink::new();
    let (traced, _, _) = duty_run(cfg, None, vec![Box::new(sink)]);
    let counts = counts.get();
    let hooks = HookStats::new(1);
    let (timed, _, _) = duty_run(cfg, Some(Arc::clone(&hooks)), Vec::new());
    rep.op(
        traced.summary == plain.summary,
        "a counting sink leaves the dutycycle RunSummary unchanged",
    );
    rep.op(
        timed.summary == plain.summary,
        "hook timing leaves the dutycycle RunSummary unchanged",
    );
    report_engine(rep, &timed, &hooks);
    report_radio(rep, &plain.summary, cfg, &counts);
    report_trace_cost(rep, plain.total_s, traced.total_s, counts.total);
}

// ---------------------------------------------------------------------
// fabric
// ---------------------------------------------------------------------

const FABRIC_D: u8 = 2;
const FABRIC_K: usize = 11;
const FABRIC_PPS: f64 = 32_000.0;

/// K(2,11) all-to-all under regular routing on the sharded engine.
fn fabric_cfg(seed: u64, threads: usize) -> SimConfig {
    let mut cfg = fabric_config(FABRIC_D, FABRIC_K, FABRIC_PPS);
    cfg.routing = RoutingStrategy::Regular;
    cfg.warmup = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(5);
    cfg.engine = Engine::Sharded(ShardedConfig {
        shards: 0,
        threads,
        window_micros: 0,
    });
    cfg.seed = seed;
    cfg
}

fn fabric_run(cfg: &SimConfig, hooks: Option<Arc<HookStats>>, sinks: Sinks) -> (Pass, Sinks) {
    let make = || {
        Probe::new(
            KautzFabricProtocol::new(FABRIC_D, FABRIC_K),
            one_kind,
            hooks,
        )
    };
    let (pass, _, sinks) = engine(cfg, make, sinks);
    (pass, sinks)
}

pub fn fabric(args: &Args, rep: &mut Report) {
    // The fabric is a single shard, so it is measured on one worker thread.
    let cfg = fabric_cfg(args.seed, 1);
    if args.trace {
        return fabric_traced(&cfg, rep);
    }
    let fabric_setup_only = || setup_only(&cfg, || KautzFabricProtocol::new(FABRIC_D, FABRIC_K));
    let mut first = None;
    let mut samples = Samples::default();
    // Each pass leaves room for one more: the two-thread check.
    repeat(args.deadline(), 2, 1, || {
        let (pass, _) = fabric_run(&cfg, None, Vec::new());
        let sim_s = sim_seconds(&cfg);
        samples.push(pass.setup_s, sim_s, pass.run_s, pass.cpu_s, pass.packets);
        samples.sample_setups(pass.total_s, fabric_setup_only);
        check_repeat(rep, &mut first, pass.summary, "fabric");
        true
    });
    let first = first.expect("at least one pass");
    // Thread count is an execution detail: two threads must agree.
    let (check, _) = fabric_run(&fabric_cfg(args.seed, 2), None, Vec::new());
    rep.op(
        check.summary == first,
        "fabric at 1 and 2 threads agrees bit for bit",
    );
    samples.top_up_setups(fabric_setup_only);
    samples.report(rep, first.qos_delivery_ratio);
}

fn fabric_traced(cfg: &SimConfig, rep: &mut Report) {
    let (plain, _) = fabric_run(cfg, None, Vec::new());
    let (sink, counts) = CountingSink::new();
    let (traced, _) = fabric_run(cfg, None, vec![Box::new(sink)]);
    let counts = counts.get();
    let hooks = HookStats::new(1);
    let (timed, _) = fabric_run(cfg, Some(Arc::clone(&hooks)), Vec::new());
    rep.op(
        traced.summary == plain.summary,
        "a counting sink leaves the fabric RunSummary unchanged",
    );
    rep.op(
        timed.summary == plain.summary,
        "hook timing leaves the fabric RunSummary unchanged",
    );
    report_engine(rep, &timed, &hooks);
    report_radio(rep, &plain.summary, cfg, &counts);
    report_trace_cost(rep, plain.total_s, traced.total_s, counts.total);
    rep.set("baselines.fabric.on_message.ns", hooks.messages().1 as f64);
}
