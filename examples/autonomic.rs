//! The autonomic MAPE loop adapting to a workload shift (§5.3 vision).
//!
//! The server starts quiet; at t=60s an ad-hoc scan herd arrives and the
//! OLTP goal starts slipping. The MAPE loop escalates through the
//! execution-control ladder (reprioritize → throttle → suspend →
//! kill-and-resubmit) until the goal recovers, then relaxes. The decision
//! timeline is printed so you can watch the planner choose techniques.
//!
//! Run with: `cargo run --release --example autonomic`

use wlm::core::api::WlmBuilder;
use wlm::core::autonomic::{AutonomicController, GoalSpec};
use wlm::core::policy::WorkloadPolicy;
use wlm::dbsim::engine::EngineConfig;
use wlm::dbsim::time::SimDuration;
use wlm::workload::generators::{BiSource, OltpSource, Source};
use wlm::workload::mix::MixedSource;
use wlm::workload::request::Importance;
use wlm::workload::sla::ServiceLevelAgreement;

/// A source that turns on at a given time.
struct DelayedSource {
    inner: Box<dyn Source>,
    start: SimDuration,
}

impl Source for DelayedSource {
    fn poll(
        &mut self,
        from: wlm::dbsim::time::SimTime,
        to: wlm::dbsim::time::SimTime,
    ) -> Vec<wlm::workload::request::Request> {
        if to.as_micros() < self.start.as_micros() {
            // Consume the inner stream so requests "before the shift" are
            // discarded rather than queued up.
            self.inner.poll(from, to);
            return Vec::new();
        }
        self.inner.poll(from, to)
    }

    fn on_completion(&mut self, label: &str, at: wlm::dbsim::time::SimTime) {
        self.inner.on_completion(label, at);
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

fn main() {
    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 8,
            memory_mb: 1_024,
            ..Default::default()
        })
        .policy(
            WorkloadPolicy::new("oltp", Importance::Critical)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 0.3)),
        )
        .uniform_weights(true) // nothing pre-tuned: the loop does the work
        .build()
        .expect("valid configuration");

    let mut controller = AutonomicController::new(vec![GoalSpec {
        workload: "oltp".into(),
        goal_secs: 0.3,
        importance_weight: 10.0,
    }]);
    // MONITOR through the event bus: completions feed the loop's response
    // window directly, and every planning decision is published back as a
    // `MapePlan` event.
    controller.connect_bus(&mut mgr);
    let plans = wlm::core::events::RingRecorder::new(4_096);
    mgr.subscribe(Box::new(plans.clone()));
    // The manager's books keep histograms, not samples; the steady-state
    // window below reads individual completions off the bus instead.
    let completions = wlm::core::events::RingRecorder::of_kind("completed", 1 << 14);
    mgr.subscribe(Box::new(completions.clone()));
    let decisions = controller.decisions();
    mgr.add_exec_controller(Box::new(controller));

    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(40.0, 21)))
        .with(Box::new(DelayedSource {
            inner: Box::new(BiSource::new(2.0, 22).with_size(30_000_000.0, 0.7)),
            start: SimDuration::from_secs(60),
        }));

    println!("t(s)   oltp recent resp(s)   running  queued  suspended");
    let horizon = SimDuration::from_secs(240);
    let t0 = mgr.now();
    let mut next_print = 0u64;
    while mgr.now().since(t0) < horizon {
        mgr.tick(&mut mix);
        let now_s = mgr.now().as_secs_f64() as u64;
        if now_s >= next_print {
            next_print = now_s + 15;
            let snap = mgr.snapshot();
            println!(
                "{:>4}   {:>18.3}   {:>7}  {:>6}  {:>9}",
                now_s,
                snap.recent_response_of("oltp").unwrap_or(0.0),
                snap.running,
                snap.queued,
                mgr.suspended_count(),
            );
        }
    }

    let report = mgr.report();
    let oltp = report.workload("oltp").expect("oltp ran");
    println!(
        "\nOLTP overall: n={} p95={:.3}s sla {} (includes the detection transient)",
        oltp.summary.count,
        oltp.summary.p95,
        if oltp.sla.met() { "MET" } else { "MISSED" }
    );
    // Steady state after the loop has dealt with the shift: the last 60s.
    let mut tail: Vec<f64> = completions
        .events()
        .iter()
        .filter_map(|e| match e {
            wlm::core::events::WlmEvent::Completed {
                at,
                workload,
                response_secs,
                ..
            } if workload == "oltp" && at.as_secs_f64() - response_secs > 180.0 => {
                Some(*response_secs)
            }
            _ => None,
        })
        .collect();
    tail.sort_by(|a, b| a.total_cmp(b));
    let p95 = wlm::dbsim::metrics::percentile(&tail, 95.0);
    println!(
        "OLTP after stabilisation (t>180s): n={} p95={:.3}s -> goal 0.3s {}",
        tail.len(),
        p95,
        if p95 <= 0.3 { "MET" } else { "MISSED" }
    );
    println!(
        "(the shift landed at t=60s; the loop detects the violation through its\n\
         in-flight analyzer, escalates through the execution-control ladder and\n\
         holds the goal — an unmanaged server ends the run buried under the herd)"
    );

    println!("\nplanner decision timeline (non-steady decisions):");
    for (at, decision) in decisions.borrow().iter() {
        if !matches!(decision, wlm::core::autonomic::LoopDecision::Steady) {
            println!("  t={:>7}  {decision:?}", at.to_string());
        }
    }

    let plan_events = plans
        .events()
        .iter()
        .filter(|e| e.kind() == "mape_plan")
        .count();
    println!(
        "({plan_events} MapePlan events published on the bus; the same timeline,\n\
         available to any subscriber without polling the controller)"
    );
}
