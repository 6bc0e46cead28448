//! The `cluster` workload: the 19-process K(2,3) `refer-node` cell on
//! localhost, measured from the process that spawns the daemons, plus an
//! in-memory sans-io replay of the same scenario that isolates the
//! protocol core from the shell's sockets and codec.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use refer::{ReferConfig, ReferMsg, ReferProtocol};
use refer_obs::{from_jsonl_line, Outcome, PacketLedger, VecSink};
use refer_proto::{EngineCore, Input, Output, PacketMeta, WorldView};
use wsan_sim::{
    runner, Area, DataId, Message, NodeId, SimConfig, SimDuration, SimTime, TraceEvent,
};

use crate::report::{check_repeat, median, Report};
use crate::{repeat, sys, Args};

const SENSORS: usize = 16;
const ACTUATORS: usize = 3;
const NODES: usize = SENSORS + ACTUATORS;
/// Packets per second per sensor: a rate the simulated radio can carry,
/// so the prediction is a fair yardstick for the live run.
const RATE_PPS: u64 = 200;
/// Measured window, seconds.
const DURATION_S: u64 = 4;
/// The launcher's default scenario seed. The cell's topology is pinned to
/// it, whatever `--seed` says: on some other seeds the prediction departs
/// from live delivery by more than the tolerance, an open divergence that
/// the benchmark README records.
const SCENARIO_SEED: u64 = 1;
/// How long the daemons keep forwarding after the last emission.
const DRAIN_US: u64 = 1_500_000;
/// Lead time for every daemon to replay construction and bind its socket
/// before the shared epoch.
const EPOCH_LEAD_US: u64 = 1_500_000;
/// Largest allowed |measured − predicted| delivery, as in the launcher.
const TOLERANCE: f64 = 0.10;
/// Replay latency of one localhost datagram.
const HOP_US: u64 = 100;

/// The launcher's cluster scenario: one K(2,3) cell — three actuators
/// and sixteen static sensors in a 400 m square, every sensor sourcing
/// `RATE_PPS` packets per second after a 5 s warmup, no faults. Must match
/// what `refer-node run` derives from the same flags.
fn scenario() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.area = Area::new(400.0, 400.0);
    cfg.sensors = SENSORS;
    cfg.actuators = ACTUATORS;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(DURATION_S);
    cfg.traffic.round_interval = SimDuration::from_secs(1);
    cfg.traffic.sources_per_round = SENSORS;
    cfg.traffic.rate_bps = RATE_PPS as f64 * f64::from(cfg.traffic.packet_bits);
    cfg.mobility.min_speed = 0.0;
    cfg.mobility.max_speed = 0.0;
    cfg.faults.count = 0;
    cfg.seed = SCENARIO_SEED;
    cfg
}

/// Delivery over the measured packets of a ledger, and their delays.
struct LedgerStats {
    offered: usize,
    delays_s: Vec<f64>,
}

impl LedgerStats {
    fn of(ledger: &PacketLedger) -> Self {
        let mut offered = 0;
        let mut delays_s = Vec::new();
        for rec in ledger.packets().filter(|r| r.measured) {
            offered += 1;
            if let Outcome::Delivered { delay_s, .. } = rec.outcome {
                delays_s.push(delay_s);
            }
        }
        delays_s.sort_by(|a, b| a.total_cmp(b));
        LedgerStats { offered, delays_s }
    }

    fn delivery(&self) -> f64 {
        self.delays_s.len() as f64 / self.offered.max(1) as f64
    }

    /// Nearest-rank percentile of the delays, milliseconds.
    fn delay_ms(&self, q: f64) -> f64 {
        let n = self.delays_s.len();
        if n == 0 {
            return f64::NAN;
        }
        self.delays_s[(((n - 1) as f64) * q).round() as usize] * 1e3
    }
}

/// The serial simulator's prediction for the scenario.
fn predict(cfg: &SimConfig) -> LedgerStats {
    let (sink, events) = VecSink::new();
    let mut proto = ReferProtocol::new(ReferConfig::default());
    runner::run_with_sinks(cfg.clone(), &mut proto, vec![Box::new(sink)]);
    LedgerStats::of(&PacketLedger::from_events(events.take()))
}

// ---------------------------------------------------------------------
// The live cluster
// ---------------------------------------------------------------------

struct Live {
    /// Spawn until every daemon has bound its port; `None` if that was
    /// not seen before the epoch.
    up_s: Option<f64>,
    stats: LedgerStats,
    failed_daemons: usize,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    datagrams: u64,
    clamped: usize,
}

/// A block of `NODES` consecutive free localhost UDP ports.
fn free_port_block() -> Result<u16, String> {
    let offset = (std::process::id() % 300) as u16;
    for block in 0..300u16 {
        let base = 20_000 + ((offset + block) % 300) * 100;
        let all_free = (0..NODES as u16).all(|i| UdpSocket::bind(("127.0.0.1", base + i)).is_ok());
        if all_free {
            return Ok(base);
        }
    }
    Err("no block of free localhost UDP ports".to_string())
}

fn now_unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Kills and reaps every child still running.
fn reap(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Folds per-node trace files into one ledger; also counts the datagrams
/// sent (`Send` events) and the deliveries whose delay was clamped to 0.
fn merge_traces(
    paths: impl Iterator<Item = PathBuf>,
) -> Result<(PacketLedger, u64, usize), String> {
    let mut ledger = PacketLedger::default();
    let (mut datagrams, mut clamped) = (0, 0);
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let event = from_jsonl_line(line)
                .map_err(|e| format!("bad trace line in {}: {e:?}", path.display()))?;
            match &event {
                TraceEvent::Send { .. } => datagrams += 1,
                TraceEvent::Delivered { delay_s, .. } if *delay_s == 0.0 => clamped += 1,
                _ => {}
            }
            ledger.fold(event);
        }
    }
    Ok((ledger, datagrams, clamped))
}

/// Spawns one `refer-node run` per node, waits for all, and folds their
/// traces. CPU time is the waited-for children's, which in this process
/// are the daemons and nothing else.
fn live(node_bin: &Path, work: &Path) -> Result<Live, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let base_port = free_port_block()?;
    let before = sys::children();
    let epoch = now_unix_micros() + EPOCH_LEAD_US;
    let start = Instant::now();
    let trace_of = |id: usize| work.join(format!("node-{id}.jsonl"));
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(NODES);
    for id in 0..NODES {
        let spawned = Command::new(node_bin)
            .arg("run")
            .args([
                "--node",
                &id.to_string(),
                "--seed",
                &SCENARIO_SEED.to_string(),
            ])
            .args([
                "--sensors",
                &SENSORS.to_string(),
                "--rate",
                &RATE_PPS.to_string(),
            ])
            .args([
                "--duration",
                &DURATION_S.to_string(),
                "--base-port",
                &base_port.to_string(),
            ])
            .args(["--epoch-micros", &epoch.to_string(), "--trace"])
            .arg(trace_of(id))
            .stdout(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push((id, child)),
            Err(e) => {
                reap(&mut children);
                return Err(format!("cannot spawn {}: {e}", node_bin.display()));
            }
        }
    }
    // The cell is up once every daemon has replayed construction and bound
    // its port.
    let ports = base_port..base_port + NODES as u16;
    let up_s = loop {
        if sys::udp_ports_bound(&ports) == NODES {
            break Some(start.elapsed().as_secs_f64());
        }
        if start.elapsed() > Duration::from_micros(EPOCH_LEAD_US) {
            break None;
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    // The daemons stop on their own after the drain; a hung one is
    // killed. While they run, their peak RSS is read from /proc: the
    // kernel's figure for waited-for children also counts this process's
    // memory at spawn time.
    let deadline = start
        + Duration::from_micros(EPOCH_LEAD_US + DURATION_S * 1_000_000 + DRAIN_US)
        + Duration::from_secs(30);
    let mut failed_daemons = 0;
    let mut peak_rss_mb = 0.0f64;
    let mut running: Vec<usize> = (0..children.len()).collect();
    while !running.is_empty() {
        running.retain(|&i| {
            let (id, child) = &mut children[i];
            match child.try_wait() {
                Ok(None) if Instant::now() < deadline => {
                    peak_rss_mb = peak_rss_mb.max(sys::peak_rss_mb_of(child.id()).unwrap_or(0.0));
                    true
                }
                Ok(Some(status)) if status.success() => false,
                outcome => {
                    eprintln!("refer-node {id} failed: {outcome:?}");
                    failed_daemons += 1;
                    false
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
    }
    reap(&mut children);
    let wall_s = start.elapsed().as_secs_f64();
    let after = sys::children();

    let traces = merge_traces((0..NODES).map(trace_of));
    let _ = std::fs::remove_dir_all(work);
    let (ledger, datagrams, clamped) = traces?;
    Ok(Live {
        up_s,
        stats: LedgerStats::of(&ledger),
        failed_daemons,
        wall_s,
        cpu_s: after.cpu_s - before.cpu_s,
        peak_rss_mb,
        datagrams,
        clamped,
    })
}

// ---------------------------------------------------------------------
// The in-memory sans-io replay
// ---------------------------------------------------------------------

enum Event {
    Emit(NodeId),
    Frame {
        to: NodeId,
        created_us: u64,
        msg: Message<ReferMsg>,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
}

/// A scheduled event, ordered earliest first, ties by scheduling order.
struct Pending {
    at: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// `EngineCore::handle` input kinds, in `proto.handle_ns.*` order.
pub const INPUT_KINDS: [&str; 3] = ["frame", "timer", "app_data"];

#[derive(Debug, PartialEq)]
struct ReplayOutcome {
    offered: u64,
    delivered: usize,
    datagrams: u64,
}

struct Replay {
    outcome: ReplayOutcome,
    /// Calls and nanoseconds per input kind.
    handle: [(u64, u64); 3],
}

/// One core per node, each built the way a daemon builds its own; then
/// the live phase replayed on a simulated clock, every `Output::Send`
/// delivered to its destination core `HOP_US` later.
fn replay(cfg: &SimConfig) -> Replay {
    let mut cores: Vec<EngineCore<ReferProtocol>> = Vec::with_capacity(NODES);
    for _ in 0..NODES {
        let mut proto = ReferProtocol::new(ReferConfig::default());
        let ctx = runner::construct(cfg.clone(), &mut proto, cfg.warmup);
        let world = WorldView::from_sim(&ctx);
        drop(ctx);
        cores.push(EngineCore::new(proto, world));
    }
    let packet_bits = cfg.traffic.packet_bits;
    let warmup_us = cfg.warmup.as_micros();
    let stop_emit_us = warmup_us + DURATION_S * 1_000_000;
    let end_us = stop_emit_us + DRAIN_US;
    let gap_us = 1_000_000 / RATE_PPS;

    let mut queue = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BinaryHeap<Pending>, at: u64, event: Event| {
        seq += 1;
        queue.push(Pending { at, seq, event });
    };
    let sensors: Vec<NodeId> = cores[0].ctx().world().sensor_ids().to_vec();
    for &s in &sensors {
        push(&mut queue, warmup_us, Event::Emit(s));
    }
    let mut emitted = [0u64; NODES];
    let mut created: HashMap<DataId, u64> = HashMap::new();
    let mut delivered: HashSet<DataId> = HashSet::new();
    let (mut offered, mut datagrams) = (0u64, 0u64);
    let mut handle = [(0u64, 0u64); 3];

    while let Some(Pending { at: now, event, .. }) = queue.pop() {
        if now >= end_us {
            break;
        }
        let at = SimTime::from_micros(now);
        let (node, kind, input) = match event {
            Event::Emit(node) => {
                if now >= stop_emit_us {
                    continue;
                }
                let packet = DataId((u64::from(node.0) << 32) | emitted[node.index()]);
                emitted[node.index()] += 1;
                offered += 1;
                created.insert(packet, now);
                push(&mut queue, now + gap_us, Event::Emit(node));
                (
                    node,
                    2,
                    Input::AppData {
                        at,
                        node,
                        packet,
                        size_bits: packet_bits,
                        dest: None,
                    },
                )
            }
            Event::Frame {
                to,
                created_us,
                msg,
            } => {
                if let ReferMsg::Data(frame) = &msg.payload {
                    let meta = PacketMeta {
                        origin: NodeId((frame.data.0 >> 32) as u32),
                        size_bits: packet_bits,
                        dest: None,
                        created: SimTime::from_micros(created_us),
                    };
                    cores[to.index()].register_packet(frame.data, meta);
                }
                (to, 0, Input::Frame { at, to, msg })
            }
            Event::Timer { node, tag } => (node, 1, Input::TimerFired { at, node, tag }),
        };
        let t = Instant::now();
        let outputs: Vec<Output<ReferMsg>> = cores[node.index()].handle(input).collect();
        handle[kind].0 += 1;
        handle[kind].1 += t.elapsed().as_nanos() as u64;
        for out in outputs {
            match out {
                Output::Send {
                    from,
                    to,
                    size_bits,
                    account,
                    broadcast,
                    payload,
                } => {
                    datagrams += 1;
                    let created_us = match &payload {
                        ReferMsg::Data(f) => created.get(&f.data).copied().unwrap_or(0),
                        _ => 0,
                    };
                    let msg = Message {
                        from,
                        size_bits,
                        account,
                        broadcast,
                        payload,
                    };
                    push(
                        &mut queue,
                        now + HOP_US,
                        Event::Frame {
                            to,
                            created_us,
                            msg,
                        },
                    );
                }
                // Each daemon arms only its own node's timers.
                Output::ArmTimer {
                    node: owner,
                    delay,
                    tag,
                } if owner == node => {
                    push(
                        &mut queue,
                        now + delay.as_micros(),
                        Event::Timer { node, tag },
                    );
                }
                Output::Deliver { packet, .. } => {
                    delivered.insert(packet);
                }
                Output::ArmTimer { .. } | Output::Trace(_) => {}
            }
        }
    }
    Replay {
        outcome: ReplayOutcome {
            offered,
            delivered: delivered.len(),
            datagrams,
        },
        handle,
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// Checks one live run against the prediction: every daemon exits
/// cleanly, packets are offered, and delivery is within the launcher's
/// tolerance of the simulator's.
fn check_live(rep: &mut Report, live: &Live, sim: &LedgerStats) {
    eprintln!(
        "cluster: {} packets offered, {} delivered, {} datagrams in {:.1} s, daemons {:.3} CPU s",
        live.stats.offered,
        live.stats.delays_s.len(),
        live.datagrams,
        live.wall_s,
        live.cpu_s
    );
    rep.op(
        live.failed_daemons == 0,
        &format!("{} of {NODES} daemons failed", live.failed_daemons),
    );
    rep.op(
        live.up_s.is_some(),
        "every daemon binds its port before the epoch",
    );
    rep.op(
        live.stats.offered > 0,
        "the live cluster offers measured packets",
    );
    let gap = (live.stats.delivery() - sim.delivery()).abs();
    rep.op(
        gap <= TOLERANCE,
        &format!(
            "live delivery {:.4} within {TOLERANCE} of the predicted {:.4} (gap {gap:.4})",
            live.stats.delivery(),
            sim.delivery()
        ),
    );
}

pub fn cluster(args: &Args, rep: &mut Report) {
    let Some(node_bin) = &args.node_bin else {
        rep.op(false, "cluster needs --node-bin, the refer-node binary");
        return;
    };
    if args.seed != SCENARIO_SEED {
        eprintln!(
            "cluster: --seed {} is ignored; the cell's topology is pinned to the \
             launcher's default scenario seed {SCENARIO_SEED} (see \"Known divergence\" \
             in benchmark/README.md)",
            args.seed
        );
    }
    let cfg = scenario();
    let sim = predict(&cfg);
    // A traced run needs one live run.
    let (min_live, live_deadline) = if args.trace {
        (1, Instant::now())
    } else {
        (2, args.deadline())
    };
    let mut lives: Vec<Live> = Vec::new();
    repeat(live_deadline, min_live, 0, || {
        let work = args
            .work_dir
            .join(format!("cluster-{}-{}", std::process::id(), lives.len()));
        match live(node_bin, &work) {
            Ok(live) => {
                check_live(rep, &live, &sim);
                lives.push(live);
                true
            }
            Err(e) => {
                rep.op(false, &format!("live cluster: {e}"));
                false
            }
        }
    });
    if lives.len() < min_live {
        return;
    }
    if args.trace {
        let live = &lives[0];
        let r = replay(&cfg);
        eprintln!("cluster: sans-io replay {:?}", r.outcome);
        rep.op(
            r.outcome.delivered > 0,
            "the sans-io replay delivers packets",
        );
        let mut first = Some(r.outcome);
        check_repeat(rep, &mut first, replay(&cfg).outcome, "sans-io replay");
        for (kind, (calls, ns)) in INPUT_KINDS.iter().zip(r.handle) {
            rep.set(
                &format!("proto.handle_ns.{kind}"),
                ns as f64 / calls.max(1) as f64,
            );
        }
        let delivered = live.stats.delays_s.len().max(1) as f64;
        rep.set("node.datagrams", live.datagrams as f64);
        rep.set("node.datagrams_per_s", live.datagrams as f64 / live.wall_s);
        rep.set("node.cpu_s", live.cpu_s);
        rep.set("node.clamped_delay_share", live.clamped as f64 / delivered);
        rep.set("node.delay_p50_ms", live.stats.delay_ms(0.50));
        rep.set("node.delay_p99_ms", live.stats.delay_ms(0.99));
        let gap = (live.stats.delivery() - sim.delivery()).abs();
        rep.set("node.live_sim_delivery_gap", gap);
        return;
    }
    let per_live = |f: &dyn Fn(&Live) -> f64| median(&lives.iter().map(f).collect::<Vec<_>>());
    let cell_s = (DURATION_S * 1_000_000 + DRAIN_US) as f64 * 1e-6;
    rep.set("setup_s", per_live(&|l| l.up_s.unwrap_or(f64::NAN)));
    rep.set("sim_s_per_host_s", per_live(&|l| cell_s / l.cpu_s));
    rep.set(
        "peak_rss_mb",
        lives.iter().map(|l| l.peak_rss_mb).fold(0.0, f64::max),
    );
    rep.set(
        "cpu_us_per_packet",
        per_live(&|l| l.cpu_s * 1e6 / l.stats.offered.max(1) as f64),
    );
    rep.set("delivery", per_live(&|l| l.stats.delivery()));
}
