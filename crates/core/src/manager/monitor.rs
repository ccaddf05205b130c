//! Stage 5 — monitoring: step the engine one quantum, account completions
//! per workload, maintain the DBQL-style query log, feed closed-loop
//! sources and admission learners, resume suspended queries when the
//! system quiets down, and bring every maintained snapshot view up to
//! date for the next cycle.
//!
//! Emits [`WlmEvent::Completed`] and [`WlmEvent::Resumed`], and forwards
//! the engine's buffered low-level events to subscribers via
//! [`EventSubscriber::on_engine_event`](crate::events::EventSubscriber::on_engine_event).

use super::context::CycleContext;
use super::{RunningMeta, WorkloadManager};
use crate::events::WlmEvent;
use crate::stats::slot;
use std::collections::VecDeque;
use wlm_dbsim::engine::CompletionKind;
use wlm_workload::generators::Source;
use wlm_workload::sla::{velocity, PerformanceObjective};
use wlm_workload::trace::CompletedQuery;

impl WorkloadManager {
    /// Step the engine and account the quantum's outcomes.
    pub(super) fn stage_monitor(&mut self, cx: &mut CycleContext, source: &mut dyn Source) {
        let completions = self.engine.step();
        if self.engine.events_enabled() {
            let engine_events = self.engine.drain_events();
            if cx.trace {
                let mut bus = self.events.borrow_mut();
                for event in &engine_events {
                    bus.emit_engine(event);
                }
            }
        }
        let now = self.engine.now();
        for c in completions {
            if c.kind != CompletionKind::Completed {
                continue; // kills were accounted at the action site
            }
            let Some(mut meta) = self.running.remove(&c.id) else {
                continue;
            };
            if let Some(next_piece) = meta.chain.pop_front() {
                // Chained restructured query: queue the next piece with the
                // original arrival time; only the last piece records stats.
                // The piece that just ran still banks any suspend/resume
                // overhead it accumulated.
                self.stats.entry(&meta.req.workload).suspend_overhead_us +=
                    meta.suspend_overhead_us;
                let mut req = meta.req.clone();
                req.request.spec = next_piece;
                req.estimate = self.cost_model.estimate_spec(&req.request.spec);
                if !meta.chain.is_empty() {
                    self.pending_chains
                        .insert(req.request.id, meta.chain.into_iter().collect());
                }
                // The next piece goes to the *back* of the queue: letting
                // short queries overtake between pieces is the whole point
                // of restructuring.
                self.wait_queue.push(req);
                continue;
            }
            self.completed += 1;
            let response_secs = c.response.as_secs_f64();
            let vel = velocity(meta.req.estimate.exec_secs, response_secs);
            {
                let ws = self.stats.entry(&meta.req.workload);
                ws.responses.record(c.response);
                ws.velocity_sum += vel;
                ws.velocity_count += 1;
                ws.completed += 1;
                // Bank the request's accumulated suspend/resume overhead
                // into the per-workload book before the meta is dropped.
                ws.suspend_overhead_us += meta.suspend_overhead_us;
            }
            // Dashboard accounting: does this completion violate the
            // workload's tightest response-time goal?
            if let Some(policy) = self.policies.get(&meta.req.workload) {
                let tightest = policy
                    .sla
                    .objectives
                    .iter()
                    .filter_map(|o| match o {
                        PerformanceObjective::AvgResponseTime { target_secs }
                        | PerformanceObjective::Percentile { target_secs, .. } => {
                            Some(*target_secs)
                        }
                        _ => None,
                    })
                    .fold(f64::INFINITY, f64::min);
                if response_secs > tightest {
                    *slot(&mut self.goal_violations, &meta.req.workload) += 1;
                }
            }
            let window = slot(&mut self.recent, &meta.req.workload);
            window.push_back(response_secs);
            while window.len() > self.response_window {
                window.pop_front();
            }
            self.query_log.record(CompletedQuery {
                arrival: meta.req.request.arrival,
                label: &meta.req.workload,
                origin: &meta.req.request.origin,
                statement: meta.req.request.spec.statement,
                estimated_cost: meta.req.estimate.timerons,
                true_work_us: c.work_total_us,
                response: c.response,
                importance: meta.req.importance,
            });
            self.admission
                .learn(&meta.req, response_secs, c.work_total_us);
            source.on_request_completion(
                meta.req.request.id,
                &meta.req.request.spec.label,
                c.finished,
            );
            if cx.trace {
                self.emit(WlmEvent::Completed {
                    at: now,
                    query: c.id,
                    request: meta.req.request.id,
                    workload: meta.req.workload.clone(),
                    response_secs,
                });
            }
        }

        self.maybe_resume_suspended(cx.trace);

        // Bring every maintained view up to date: this is the snapshot the
        // next cycle starts from and what live_snapshot() reports.
        self.refresh_engine_view(&mut cx.snap);
        self.refresh_running_view(&mut cx.snap);
        self.refresh_queue_view(&mut cx.snap);
        self.refresh_recent_view(&mut cx.snap);
    }

    /// Resume the oldest suspended query once the system is quiet enough.
    pub(super) fn maybe_resume_suspended(&mut self, trace: bool) {
        if self.suspended.is_empty() || self.engine.mpl() >= self.resume_when_running_below {
            return;
        }
        // While the degradation ladder is at its top rung the system is
        // actively suspending work; resuming would fight it.
        if self
            .resilience
            .as_ref()
            .is_some_and(|layer| layer.ladder_level() >= 3)
        {
            return;
        }
        let (sq, req, restarts, carried_overhead_us) = self.suspended.remove(0);
        let id = self.engine.resume_suspended(sq);
        if trace {
            self.emit(WlmEvent::Resumed {
                at: self.engine.now(),
                query: id,
                workload: req.workload.clone(),
            });
        }
        let chain = self
            .pending_chains
            .remove(&req.request.id)
            .map(VecDeque::from)
            .unwrap_or_default();
        self.running.insert(
            id,
            RunningMeta {
                req,
                throttle: 0.0,
                restarts,
                chain,
                // The overhead paid so far rides along so it reaches the
                // per-workload books when the request leaves the system.
                suspend_overhead_us: carried_overhead_us,
            },
        );
    }
}
