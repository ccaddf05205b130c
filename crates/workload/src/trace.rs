//! A DBQL-style query log, compressed to weighted templates.
//!
//! Teradata's workload analyzer recommends workload definitions "by
//! analyzing the data of the database query log (DBQL)". What such an
//! analyzer consumes is not every row but how much work of which kind came
//! from whom — so, in the manner of workload compression, the log keeps one
//! *weighted representative* per template instead of one entry per request:
//! requests that agree on workload label, application, user, statement
//! class, importance and quarter-octave band of true work fold into one
//! [`QueryTemplate`] holding the first of them, their number and the sums
//! an analyzer averages. Session id and client address are unbounded and
//! are not part of the key. The log's size follows the variety of the
//! workload, never its length, and is capped outright.

use crate::request::{Importance, Origin};
use serde::{Deserialize, Serialize};
use wlm_dbsim::metrics::log_bucket;
use wlm_dbsim::plan::StatementType;
use wlm_dbsim::time::{SimDuration, SimTime};

/// One completed request, with the attributes a workload analyzer needs:
/// origin, statement type, estimated cost, measured response and resource
/// consumption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryLogEntry {
    /// When the request arrived.
    pub arrival: SimTime,
    /// Workload tag it ran under (if any was assigned).
    pub label: String,
    /// Who submitted it.
    pub origin: Origin,
    /// Statement class.
    pub statement: StatementType,
    /// Optimizer cost estimate at submission, timerons.
    pub estimated_cost: f64,
    /// True total work performed, µs-equivalent.
    pub true_work_us: u64,
    /// Measured response time.
    pub response: SimDuration,
    /// Business importance it carried.
    pub importance: Importance,
}

/// A [`QueryLogEntry`] with its strings borrowed: what the monitor stage
/// hands to [`QueryLog::record`] per completion, so that folding into an
/// existing template allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct CompletedQuery<'a> {
    /// When the request arrived.
    pub arrival: SimTime,
    /// Workload tag it ran under.
    pub label: &'a str,
    /// Who submitted it.
    pub origin: &'a Origin,
    /// Statement class.
    pub statement: StatementType,
    /// Optimizer cost estimate at submission, timerons.
    pub estimated_cost: f64,
    /// True total work performed, µs-equivalent.
    pub true_work_us: u64,
    /// Measured response time.
    pub response: SimDuration,
    /// Business importance it carried.
    pub importance: Importance,
}

/// What makes two requests the same template: who and what, never the
/// unbounded session id or client address. The last component is the
/// quarter-octave band of true work.
type TemplateKey<'a> = (&'a str, &'a str, &'a str, StatementType, Importance, u32);

fn template_key<'a>(
    label: &'a str,
    origin: &'a Origin,
    statement: StatementType,
    importance: Importance,
    true_work_us: u64,
) -> TemplateKey<'a> {
    (
        label,
        &origin.application,
        &origin.user,
        statement,
        importance,
        log_bucket(true_work_us, 2),
    )
}

impl CompletedQuery<'_> {
    fn key(&self) -> TemplateKey<'_> {
        template_key(
            self.label,
            self.origin,
            self.statement,
            self.importance,
            self.true_work_us,
        )
    }

    fn to_entry(self) -> QueryLogEntry {
        QueryLogEntry {
            arrival: self.arrival,
            label: self.label.to_string(),
            origin: self.origin.clone(),
            statement: self.statement,
            estimated_cost: self.estimated_cost,
            true_work_us: self.true_work_us,
            response: self.response,
            importance: self.importance,
        }
    }
}

/// A weighted representative: every logged request of one template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// The first request folded in.
    pub representative: QueryLogEntry,
    /// Requests folded in, the representative included.
    pub weight: u64,
    /// Sum of their response times, µs.
    pub response_sum_us: u64,
    /// Sum of their true work, µs-equivalent.
    pub work_sum_us: u64,
    /// Sum of their optimizer cost estimates, timerons.
    pub cost_sum: f64,
    /// Arrival of the latest one.
    pub last_arrival: SimTime,
}

impl QueryTemplate {
    fn new(first: CompletedQuery<'_>) -> Self {
        let mut template = QueryTemplate {
            representative: first.to_entry(),
            weight: 0,
            response_sum_us: 0,
            work_sum_us: 0,
            cost_sum: 0.0,
            last_arrival: first.arrival,
        };
        template.fold(first);
        template
    }

    fn fold(&mut self, q: CompletedQuery<'_>) {
        self.weight += 1;
        self.response_sum_us += q.response.as_micros();
        self.work_sum_us += q.true_work_us;
        self.cost_sum += q.estimated_cost;
        self.last_arrival = self.last_arrival.max(q.arrival);
    }

    fn key(&self) -> TemplateKey<'_> {
        let rep = &self.representative;
        template_key(
            &rep.label,
            &rep.origin,
            rep.statement,
            rep.importance,
            rep.true_work_us,
        )
    }

    /// Mean true work of the template's requests, seconds-equivalent.
    pub fn mean_work_secs(&self) -> f64 {
        self.work_sum_us as f64 / self.weight as f64 / 1e6
    }
}

/// The query log: a bounded set of weighted templates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryLog {
    /// Ascending by template key; grown on first sample.
    templates: Vec<QueryTemplate>,
    /// Every request whose template would have been one too many.
    overflow: Option<QueryTemplate>,
}

impl QueryLog {
    /// Most templates the log keeps apart. Requests of any further
    /// template share one overflow bucket, so neither a hostile mix nor a
    /// long run can grow the log past this.
    pub const MAX_TEMPLATES: usize = 512;

    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log one completed request.
    pub fn record(&mut self, q: CompletedQuery<'_>) {
        let key = q.key();
        match self.templates.binary_search_by(|t| t.key().cmp(&key)) {
            Ok(at) => self.templates[at].fold(q),
            Err(at) if self.templates.len() < Self::MAX_TEMPLATES => {
                self.templates.insert(at, QueryTemplate::new(q));
            }
            Err(_) => match &mut self.overflow {
                Some(bucket) => bucket.fold(q),
                None => self.overflow = Some(QueryTemplate::new(q)),
            },
        }
    }

    /// Every weighted template, the overflow bucket (if any) last. The
    /// bucket reads like a template, but its representative is merely the
    /// first request that did not fit and its sums describe a mixture.
    pub fn templates(&self) -> impl Iterator<Item = &QueryTemplate> {
        self.templates.iter().chain(&self.overflow)
    }

    /// Number of requests logged (the total weight).
    pub fn len(&self) -> usize {
        self.templates().map(|t| t.weight as usize).sum()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Mean response time in seconds over the requests of the templates
    /// matching a predicate.
    pub fn mean_response_secs<F: Fn(&QueryTemplate) -> bool>(&self, pred: F) -> f64 {
        let (weight, sum_us) = self
            .templates()
            .filter(|t| pred(t))
            .fold((0, 0), |(w, s), t| (w + t.weight, s + t.response_sum_us));
        if weight == 0 {
            0.0
        } else {
            sum_us as f64 / weight as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(origin: &Origin, work_us: u64, resp_ms: u64) -> CompletedQuery<'_> {
        CompletedQuery {
            arrival: SimTime(resp_ms),
            label: "w",
            origin,
            statement: StatementType::Read,
            estimated_cost: 100.0,
            true_work_us: work_us,
            response: SimDuration::from_millis(resp_ms),
            importance: Importance::Medium,
        }
    }

    #[test]
    fn requests_of_one_template_fold_into_its_first_member() {
        let (a, b) = (Origin::new("a", "u", 1), Origin::new("b", "u", 1));
        let mut log = QueryLog::new();
        assert!(log.is_empty());
        log.record(completed(&a, 1_100, 100));
        log.record(completed(&b, 1_100, 200));
        // 1024..1280 µs is one quarter octave.
        log.record(completed(&a, 1_200, 300));
        // Same origin, three octaves more work: a template of its own.
        log.record(completed(&a, 8_800, 500));
        assert_eq!(log.len(), 4);
        let templates: Vec<&QueryTemplate> = log.templates().collect();
        assert_eq!(templates.len(), 3);
        let first = templates[0];
        assert_eq!(first.representative.origin.application, "a");
        assert_eq!(first.representative.response, SimDuration::from_millis(100));
        assert_eq!(first.weight, 2);
        assert_eq!(first.response_sum_us, 400_000);
        assert_eq!(first.work_sum_us, 2_300);
        assert_eq!(first.cost_sum, 200.0);
        assert_eq!(first.last_arrival, SimTime(300));
    }

    #[test]
    fn mean_response_weighs_templates_by_their_requests() {
        let (a, b) = (Origin::new("a", "u", 1), Origin::new("b", "u", 1));
        let mut log = QueryLog::new();
        log.record(completed(&a, 1_000, 100));
        log.record(completed(&a, 1_000, 300));
        log.record(completed(&a, 64_000, 800));
        log.record(completed(&b, 1_000, 1_000));
        let mean_a = log.mean_response_secs(|t| t.representative.origin.application == "a");
        assert!((mean_a - 0.4).abs() < 1e-9);
        assert_eq!(
            log.mean_response_secs(|t| t.representative.origin.application == "zz"),
            0.0
        );
    }
}
