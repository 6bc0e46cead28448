//! Measuring a protocol from outside: a forwarding [`Protocol`] wrapper
//! that records when set-up ends, counts application packets, and — in
//! traced runs only — times every hook call, with `on_message` broken down
//! by message kind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use refer::ReferMsg;
use wsan_sim::{Ctx, DataId, Message, NodeId, Protocol, ShardableProtocol};

/// Hook slots other than `on_message`, in slot order.
pub const HOOKS: [&str; 5] = [
    "on_timer",
    "on_app_data",
    "on_ack",
    "on_send_expired",
    "on_fault_rotation",
];

/// REFER's twelve [`ReferMsg`] variants, in [`refer_kind`] order.
pub const REFER_KINDS: [&str; 12] = [
    "ctrl",
    "assignment",
    "path_query",
    "path_assign",
    "start_stage2",
    "cell_ready",
    "beacon",
    "gossip",
    "probe",
    "replace",
    "replace_notice",
    "data",
];

/// The [`REFER_KINDS`] index of a REFER message.
pub fn refer_kind(msg: &ReferMsg) -> usize {
    match msg {
        ReferMsg::Ctrl => 0,
        ReferMsg::Assignment => 1,
        ReferMsg::PathQuery { .. } => 2,
        ReferMsg::PathAssign { .. } => 3,
        ReferMsg::StartStage2 { .. } => 4,
        ReferMsg::CellReady => 5,
        ReferMsg::Beacon => 6,
        ReferMsg::Gossip { .. } => 7,
        ReferMsg::Probe => 8,
        ReferMsg::Replace => 9,
        ReferMsg::ReplaceNotice => 10,
        ReferMsg::Data(_) => 11,
    }
}

/// Classifier for protocols whose messages are not broken down.
pub fn one_kind<T>(_: &T) -> usize {
    0
}

/// Call counts and summed wall nanoseconds per hook slot: the
/// [`HOOKS`] first, then one slot per message kind. Shared by the clones
/// the sharded engine makes, so the counters are atomics; they publish no
/// other data, hence `Relaxed`.
#[derive(Debug)]
pub struct HookStats {
    calls: Vec<AtomicU64>,
    ns: Vec<AtomicU64>,
}

impl HookStats {
    /// Counters for the fixed hooks plus `kinds` message kinds.
    pub fn new(kinds: usize) -> Arc<Self> {
        let slots = HOOKS.len() + kinds;
        Arc::new(HookStats {
            calls: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            ns: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn add(&self, slot: usize, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.calls[slot].fetch_add(1, Ordering::Relaxed);
        self.ns[slot].fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls and nanoseconds of fixed hook `name` (one of [`HOOKS`]).
    pub fn hook(&self, name: &str) -> (u64, u64) {
        let slot = HOOKS
            .iter()
            .position(|h| *h == name)
            .expect("known hook name");
        self.slot(slot)
    }

    /// Calls and nanoseconds of `on_message` for message kind `kind`.
    pub fn message(&self, kind: usize) -> (u64, u64) {
        self.slot(HOOKS.len() + kind)
    }

    /// Calls and nanoseconds summed over every `on_message` kind.
    pub fn messages(&self) -> (u64, u64) {
        (HOOKS.len()..self.calls.len())
            .map(|s| self.slot(s))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Calls and nanoseconds summed over every slot.
    pub fn total(&self) -> (u64, u64) {
        (0..self.calls.len())
            .map(|s| self.slot(s))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    fn slot(&self, slot: usize) -> (u64, u64) {
        (
            self.calls[slot].load(Ordering::Relaxed),
            self.ns[slot].load(Ordering::Relaxed),
        )
    }
}

/// A protocol wrapped for measurement. Every hook forwards to `inner`;
/// with `hooks` set, each call is timed into its slot.
pub struct Probe<P: Protocol> {
    inner: P,
    kind_of: fn(&P::Payload) -> usize,
    hooks: Option<Arc<HookStats>>,
    app_data: Arc<AtomicU64>,
    /// When `on_init` was entered and when it returned (master copy only).
    pub init: Option<(Instant, Instant)>,
}

impl<P: Protocol> Probe<P> {
    /// Wraps `inner`; `hooks` turns hook timing on.
    pub fn new(inner: P, kind_of: fn(&P::Payload) -> usize, hooks: Option<Arc<HookStats>>) -> Self {
        Probe {
            inner,
            kind_of,
            hooks,
            app_data: Arc::new(AtomicU64::new(0)),
            init: None,
        }
    }

    /// Application packets handed to the protocol so far, over every clone.
    pub fn app_packets(&self) -> u64 {
        self.app_data.load(Ordering::Relaxed)
    }

    /// Unwraps the protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Protocol + Clone> Clone for Probe<P> {
    fn clone(&self) -> Self {
        Probe {
            inner: self.inner.clone(),
            kind_of: self.kind_of,
            hooks: self.hooks.clone(),
            app_data: Arc::clone(&self.app_data),
            init: self.init,
        }
    }
}

/// Runs `$call`, timing it into hook slot `$slot` when hooks are on.
macro_rules! timed {
    ($self:ident, $slot:expr, $call:expr) => {
        match &$self.hooks {
            None => $call,
            Some(stats) => {
                let start = Instant::now();
                $call;
                stats.add($slot, start);
            }
        }
    };
}

impl<P: Protocol> Protocol for Probe<P> {
    type Payload = P::Payload;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init(&mut self, ctx: &mut Ctx<P::Payload>) {
        let entered = Instant::now();
        self.inner.on_init(ctx);
        self.init = Some((entered, Instant::now()));
    }

    fn on_message(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, msg: Message<P::Payload>) {
        match &self.hooks {
            None => self.inner.on_message(ctx, at, msg),
            Some(stats) => {
                let slot = HOOKS.len() + (self.kind_of)(&msg.payload);
                let start = Instant::now();
                self.inner.on_message(ctx, at, msg);
                stats.add(slot, start);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, tag: u64) {
        timed!(self, 0, self.inner.on_timer(ctx, at, tag))
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<P::Payload>, src: NodeId, data: DataId) {
        self.app_data.fetch_add(1, Ordering::Relaxed);
        timed!(self, 1, self.inner.on_app_data(ctx, src, data))
    }

    fn on_ack(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, peer: NodeId) {
        timed!(self, 2, self.inner.on_ack(ctx, at, peer))
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<P::Payload>,
        at: NodeId,
        peer: NodeId,
        payload: P::Payload,
        attempts: u32,
    ) {
        timed!(
            self,
            3,
            self.inner.on_send_expired(ctx, at, peer, payload, attempts)
        )
    }

    fn on_fault_rotation(
        &mut self,
        ctx: &mut Ctx<P::Payload>,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        timed!(
            self,
            4,
            self.inner.on_fault_rotation(ctx, failed, recovered)
        )
    }
}

impl<P: ShardableProtocol> ShardableProtocol for Probe<P> where P::Payload: Clone + Send {}
