//! Timing decorators around the public plug-in traits.
//!
//! The benchmark measures layers from outside only. Each decorator wraps
//! one plug-in (`Source`, `Characterizer`, `AdmissionController`,
//! `Scheduler`, `ExecutionController`, `EventSubscriber`), forwards every
//! call unchanged, and — only when its [`Probes`] are switched to timed —
//! adds the call's wall time to a shared [`LayerClock`]. Decisions never
//! depend on a clock, so a decorated run simulates exactly what an
//! undecorated one does (`tests/determinism.rs` checks the digests).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use wlm_core::api::{
    AdmissionController, AdmissionDecision, ControlAction, ExecutionController, ManagedRequest,
    RunningQuery, Scheduler, SystemSnapshot,
};
use wlm_core::characterize::{Characterizer, Classification};
use wlm_core::events::{EventSubscriber, WlmEvent};
use wlm_core::taxonomy::{Classified, TaxonomyPath};
use wlm_dbsim::engine::EngineEvent;
use wlm_dbsim::optimizer::CostEstimate;
use wlm_dbsim::time::SimTime;
use wlm_workload::generators::Source;
use wlm_workload::request::{Request, RequestId};

/// Calls, busy time and work items of one layer boundary.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
    items: Cell<u64>,
}

impl LayerClock {
    /// Run `f`, counting the call and `items(result)` work items, and —
    /// when `timed` — its wall time.
    #[inline]
    fn record<T>(&self, timed: bool, f: impl FnOnce() -> T, items: impl FnOnce(&T) -> u64) -> T {
        let started = timed.then(Instant::now);
        let out = f();
        if let Some(t) = started {
            self.nanos
                .set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        }
        self.calls.set(self.calls.get() + 1);
        self.items.set(self.items.get() + items(&out));
        out
    }

    /// Count one call that started at `started` and handled `items`.
    pub fn add_span(&self, started: Instant, items: u64) {
        self.nanos
            .set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        self.items.set(self.items.get() + items);
    }

    /// Add `n` work items without a call (gauges sampled at a boundary).
    fn add_items(&self, n: u64) {
        self.items.set(self.items.get() + n);
    }

    /// `(calls, busy nanoseconds, work items)` so far.
    pub fn read(&self) -> (u64, u64, u64) {
        (self.calls.get(), self.nanos.get(), self.items.get())
    }

    /// Work items so far.
    pub fn items(&self) -> u64 {
        self.items.get()
    }
}

/// The layer boundaries the decorators observe. Clones share the clocks,
/// so the eight shards of a cluster add into one set.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Whether decorators read the clock (traced runs) or only count.
    pub timed: bool,
    /// `Source::poll`; items = requests returned.
    pub poll: Rc<LayerClock>,
    /// `Source::on_completion` / `on_request_completion`; items = calls.
    pub feedback: Rc<LayerClock>,
    /// `Characterizer::classify`.
    pub classify: Rc<LayerClock>,
    /// `AdmissionController::decide`; `observe` and `learn` add time only.
    pub decide: Rc<LayerClock>,
    /// `Scheduler::select`; items = requests released.
    pub select: Rc<LayerClock>,
    /// Σ wait-queue length seen at `select` entry.
    pub queue_len: Rc<LayerClock>,
    /// `ExecutionController::control`; items = actions returned.
    pub control: Rc<LayerClock>,
    /// Σ running-set size seen at `control` entry.
    pub running: Rc<LayerClock>,
    /// `EventSubscriber::on_event` / `on_engine_event`; items = events.
    pub subscriber: Rc<LayerClock>,
}

impl Probes {
    /// Counting-only probes (untraced runs).
    pub fn counting() -> Self {
        Self::default()
    }

    /// Probes whose decorators also time every call (traced runs).
    pub fn timed() -> Self {
        Probes {
            timed: true,
            ..Self::default()
        }
    }

    /// The clocks with their layer names, for span export.
    pub fn named(&self) -> [(&'static str, &LayerClock); 7] {
        [
            ("workload.poll", &self.poll),
            ("workload.feedback", &self.feedback),
            ("core.identify.classify", &self.classify),
            ("core.admit.decide", &self.decide),
            ("core.schedule.select", &self.select),
            ("core.exec_control.control", &self.control),
            ("core.events.subscriber", &self.subscriber),
        ]
    }
}

/// A [`Source`] that counts what it hands out and hears back.
pub struct SourceProbe {
    inner: Box<dyn Source>,
    probes: Probes,
}

impl SourceProbe {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Source>, probes: Probes) -> Self {
        SourceProbe { inner, probes }
    }

    /// Requests handed out so far.
    pub fn issued(&self) -> u64 {
        self.probes.poll.items()
    }
}

impl Source for SourceProbe {
    fn poll(&mut self, from: SimTime, to: SimTime) -> Vec<Request> {
        let inner = &mut self.inner;
        self.probes.poll.record(
            self.probes.timed,
            || inner.poll(from, to),
            |v| v.len() as u64,
        )
    }

    fn on_completion(&mut self, label: &str, at: SimTime) {
        let inner = &mut self.inner;
        self.probes
            .feedback
            .record(self.probes.timed, || inner.on_completion(label, at), |_| 1);
    }

    fn on_request_completion(&mut self, request: RequestId, label: &str, at: SimTime) {
        let inner = &mut self.inner;
        self.probes.feedback.record(
            self.probes.timed,
            || inner.on_request_completion(request, label, at),
            |_| 1,
        );
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// A source that never produces anything: the arrival cut of the drain.
pub struct NoArrivals;

impl Source for NoArrivals {
    fn poll(&mut self, _from: SimTime, _to: SimTime) -> Vec<Request> {
        Vec::new()
    }

    fn label(&self) -> &str {
        "none"
    }
}

macro_rules! forward_classified {
    ($t:ty) => {
        impl Classified for $t {
            fn taxonomy(&self) -> TaxonomyPath {
                self.inner.taxonomy()
            }

            fn technique_name(&self) -> &'static str {
                self.inner.technique_name()
            }
        }
    };
}

/// Timing decorator for a [`Characterizer`].
pub struct TimedCharacterizer {
    inner: Box<dyn Characterizer>,
    probes: Probes,
}

impl TimedCharacterizer {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Characterizer>, probes: Probes) -> Self {
        TimedCharacterizer { inner, probes }
    }
}

forward_classified!(TimedCharacterizer);

impl Characterizer for TimedCharacterizer {
    fn classify(&mut self, request: &Request, estimate: &CostEstimate) -> Classification {
        let inner = &mut self.inner;
        self.probes.classify.record(
            self.probes.timed,
            || inner.classify(request, estimate),
            |_| 1,
        )
    }
}

/// Timing decorator for an [`AdmissionController`].
pub struct TimedAdmission {
    inner: Box<dyn AdmissionController>,
    probes: Probes,
}

impl TimedAdmission {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn AdmissionController>, probes: Probes) -> Self {
        TimedAdmission { inner, probes }
    }
}

forward_classified!(TimedAdmission);

impl AdmissionController for TimedAdmission {
    fn decide(&mut self, req: &ManagedRequest, snap: &SystemSnapshot) -> AdmissionDecision {
        let inner = &mut self.inner;
        self.probes
            .decide
            .record(self.probes.timed, || inner.decide(req, snap), |_| 1)
    }

    fn observe(&mut self, snap: &SystemSnapshot) {
        self.inner.observe(snap);
    }

    fn learn(&mut self, req: &ManagedRequest, actual_secs: f64, true_work_us: u64) {
        self.inner.learn(req, actual_secs, true_work_us);
    }
}

/// Timing decorator for a [`Scheduler`].
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    probes: Probes,
}

impl TimedScheduler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Scheduler>, probes: Probes) -> Self {
        TimedScheduler { inner, probes }
    }
}

forward_classified!(TimedScheduler);

impl Scheduler for TimedScheduler {
    fn select(
        &mut self,
        queue: &mut Vec<ManagedRequest>,
        snap: &SystemSnapshot,
    ) -> Vec<ManagedRequest> {
        self.probes.queue_len.add_items(queue.len() as u64);
        let inner = &mut self.inner;
        self.probes.select.record(
            self.probes.timed,
            || inner.select(queue, snap),
            |v| v.len() as u64,
        )
    }
}

/// Timing decorator for an [`ExecutionController`].
pub struct TimedExecController {
    inner: Box<dyn ExecutionController>,
    probes: Probes,
}

impl TimedExecController {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ExecutionController>, probes: Probes) -> Self {
        TimedExecController { inner, probes }
    }
}

forward_classified!(TimedExecController);

impl ExecutionController for TimedExecController {
    fn control(&mut self, running: &[RunningQuery], snap: &SystemSnapshot) -> Vec<ControlAction> {
        self.probes.running.add_items(running.len() as u64);
        let inner = &mut self.inner;
        self.probes.control.record(
            self.probes.timed,
            || inner.control(running, snap),
            |v| v.len() as u64,
        )
    }
}

/// Timing decorator for an [`EventSubscriber`].
pub struct TimedSubscriber {
    inner: Box<dyn EventSubscriber>,
    probes: Probes,
}

impl TimedSubscriber {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn EventSubscriber>, probes: Probes) -> Self {
        TimedSubscriber { inner, probes }
    }
}

impl EventSubscriber for TimedSubscriber {
    fn on_event(&mut self, event: &WlmEvent) {
        let inner = &mut self.inner;
        self.probes
            .subscriber
            .record(self.probes.timed, || inner.on_event(event), |_| 1);
    }

    fn on_engine_event(&mut self, event: &EngineEvent) {
        let inner = &mut self.inner;
        self.probes
            .subscriber
            .record(self.probes.timed, || inner.on_engine_event(event), |_| 0);
    }
}
