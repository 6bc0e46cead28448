//! The benchmark's metric names and its one-line JSON result.

use std::collections::BTreeMap;

use crate::cluster::INPUT_KINDS;
use crate::probe::{HOOKS, REFER_KINDS};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_packet", "us"),
    ("delivery", "ratio"),
];

/// Per-layer metrics, reported by every workload in the traced run; a
/// layer a workload does not load reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("host.cpus", "count");
    add("sim.engine_self_s", "s");
    add("sim.events", "count");
    add("sim.events_per_s", "1/s");
    add("sim.off_cpu_s", "s");
    add("sim.world_build_s", "s");
    add("core.on_init_s", "s");
    for kind in REFER_KINDS {
        add(&format!("core.on_message.{kind}.calls"), "count");
        add(&format!("core.on_message.{kind}.ns"), "ns");
    }
    for hook in HOOKS {
        add(&format!("core.{hook}.calls"), "count");
        add(&format!("core.{hook}.ns"), "ns");
    }
    for system in ["datree", "ddear", "kautz_overlay"] {
        add(&format!("baselines.{system}.host_s"), "s");
    }
    add("baselines.fabric.on_message.ns", "ns");
    for count in [
        "sends",
        "broadcasts",
        "send_failed",
        "queue_drops",
        "retransmissions",
    ] {
        add(&format!("sim.radio.{count}"), "count");
    }
    add("sim.radio.queue_delay_p99_ms", "ms");
    add("sim.radio.hot_link_utilization", "ratio");
    add("sim.delay_p99_ms", "ms");
    add("sim.energy_mj_per_packet", "mJ");
    add("kautz.route_table_build_s", "s");
    add("kautz.next_hop_ns", "ns");
    add("kautz.regular_next_ns", "ns");
    add("kautz.disjoint_plans_ns", "ns");
    add("obs.trace_events", "count");
    add("obs.ns_per_event", "ns");
    add("obs.trace_overhead", "ratio");
    for kind in INPUT_KINDS {
        add(&format!("proto.handle_ns.{kind}"), "ns");
    }
    add("node.datagrams", "count");
    add("node.datagrams_per_s", "1/s");
    add("node.cpu_s", "s");
    add("node.clamped_delay_share", "ratio");
    add("node.delay_p50_ms", "ms");
    add("node.delay_p99_ms", "ms");
    add("node.live_sim_delivery_gap", "ratio");
    m
}

/// Operations attempted and failed, plus the metric values of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation (a run, a replay, a correctness check); a
    /// failed one is reported on stderr and counted, never dropped.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Prints every metric of the mode by name with its unit, then the
    /// result line. An end-to-end metric that is missing or not a positive
    /// finite number fails the run; a per-layer metric a workload does not
    /// load reads 0.
    pub fn finish(mut self, trace: bool) {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for name in self.values.keys() {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "metric {name} is not in this mode's list"
            );
        }
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in &names {
            let raw = self.values.get(name).copied();
            let value = match raw {
                Some(v) if v.is_finite() && (trace || v > 0.0) => v,
                _ if trace => 0.0,
                _ => {
                    self.attempted += 1;
                    self.failed += 1;
                    eprintln!("FAILED: end-to-end metric {name} is {raw:?}");
                    0.0
                }
            };
            println!("{name:<36} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Counts one pass; every pass after the first must reproduce the first
/// pass's outcome bit for bit.
pub fn check_repeat<T: PartialEq>(rep: &mut Report, first: &mut Option<T>, outcome: T, what: &str) {
    match first {
        Some(f) => rep.op(*f == outcome, &format!("{what} repeat is bit-identical")),
        None => {
            rep.op(true, what);
            *first = Some(outcome);
        }
    }
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
