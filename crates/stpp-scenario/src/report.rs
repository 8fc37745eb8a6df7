//! Run reports: what a scenario run produced, which expectations it was
//! checked against, and a human-readable rendering of both.

use std::fmt;

/// Which executor ran the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Directly through [`BatchLocalizer`](stpp_core::BatchLocalizer),
    /// no service layer at all.
    Pipeline,
    /// Through an in-process
    /// [`LocalizationService`](stpp_serve::LocalizationService).
    Service,
    /// Over TCP against a spawned [`StppServer`](stpp_serve::StppServer)
    /// (with the chaos proxy in between when the scenario declares
    /// impairments).
    Wire,
}

impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RunMode::Pipeline => "pipeline",
            RunMode::Service => "service",
            RunMode::Wire => "wire",
        };
        f.write_str(name)
    }
}

/// The cross-mode facts of a run. Two runs of the same scenario — in any
/// mode, at any thread count — must produce *equal* outcomes when no
/// impairments are declared; the determinism property tests pin exactly
/// this equality. Timing and cache observations deliberately live
/// outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Number of successfully localized requests.
    pub requests: u64,
    /// Tag population size.
    pub tags: u64,
    /// Tags the pipeline localized.
    pub localized: u64,
    /// Recovered order along X.
    pub order_x: Vec<u64>,
    /// Recovered order along Y.
    pub order_y: Vec<u64>,
    /// Tags that stayed undetected.
    pub undetected: Vec<u64>,
    /// Ordering accuracy along X against ground truth.
    pub accuracy_x: f64,
    /// Ordering accuracy along Y against ground truth.
    pub accuracy_y: f64,
    /// `Busy` responses observed (main requests and drills).
    pub busy_responses: u64,
    /// Transport errors observed (torn or churned connections, failed
    /// reconnects).
    pub transport_errors: u64,
    /// Retried attempts the wire client performed (after `Busy`,
    /// timeouts, or transport failures).
    pub retries: u64,
    /// Deadline expiries the wire client observed.
    pub timeouts: u64,
    /// Times the wire client's circuit breaker opened.
    pub circuit_opens: u64,
    /// Reconnects the wire client performed after losing a connection.
    pub reconnects: u64,
    /// Server kill-and-restart cycles the run orchestrated.
    pub server_restarts: u64,
    /// Queue-overfill drills completed.
    pub drills_run: u64,
    /// Storm connections fully served (every trickled request answered
    /// with the deterministic result). Zero when the scenario declares
    /// no storm, so clean cross-mode outcome equality is unaffected.
    pub storm_connections: u64,
}

/// Wall-clock summary over the successful localize requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Slowest request, seconds (including its retries).
    pub max_seconds: f64,
    /// Mean request latency, seconds.
    pub mean_seconds: f64,
}

/// Cache behaviour observed through request metrics (service and wire
/// modes only — the bare pipeline has no service layer to observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceObservations {
    /// Requests that hit an already-registered geometry.
    pub geometry_hits: u64,
    /// Reference-bank builds performed by the first request.
    pub cold_builds: u64,
    /// Reference-bank builds performed by every later request (zero on
    /// a healthy warm path).
    pub warm_builds: u64,
}

/// What the streaming feed observed (service and wire runs of a
/// scenario with a `streaming` block; `None` everywhere else). Timing
/// is measured on the report stream's own clock — the timestamp of the
/// last report ingested before the poll — so every field is
/// deterministic across runs, modes, and machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingObservations {
    /// Reports replayed into the session.
    pub reports_ingested: u64,
    /// Provisional polls performed.
    pub polls: u64,
    /// Polls that returned at least one estimated tag.
    pub provisional_results: u64,
    /// Stream time between the first ingested report and the first poll
    /// that returned an estimate (`None` = no poll ever did).
    pub time_to_first_result_s: Option<f64>,
}

/// One evaluated expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Which expectation this is (the schema field name).
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable evidence (observed vs required).
    pub detail: String,
}

impl CheckResult {
    /// A passed check.
    pub fn pass(name: &str, detail: String) -> CheckResult {
        CheckResult { name: name.to_string(), passed: true, detail }
    }

    /// A failed check.
    pub fn fail(name: &str, detail: String) -> CheckResult {
        CheckResult { name: name.to_string(), passed: false, detail }
    }
}

/// Everything one scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The scenario's name.
    pub scenario: String,
    /// Which executor ran it.
    pub mode: RunMode,
    /// The cross-mode outcome.
    pub outcome: RunOutcome,
    /// Request-latency summary.
    pub latency: LatencySummary,
    /// Cache observations (`None` in pipeline mode).
    pub service: Option<ServiceObservations>,
    /// Streaming-feed observations (`None` without a `streaming` block,
    /// and in pipeline mode, which has no session layer).
    pub streaming: Option<StreamingObservations>,
    /// Every evaluated expectation.
    pub checks: Vec<CheckResult>,
}

impl RunReport {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders the report as readable multi-line text — this is what the
    /// runner binary prints, and what a violated expectation surfaces in
    /// CI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "scenario '{}' mode={} — {verdict}", self.scenario, self.mode);
        let o = &self.outcome;
        let _ = writeln!(
            out,
            "  requests={} tags={} localized={} undetected={:?}",
            o.requests, o.tags, o.localized, o.undetected
        );
        let _ = writeln!(
            out,
            "  accuracy_x={:.3} accuracy_y={:.3} order_x={:?} order_y={:?}",
            o.accuracy_x, o.accuracy_y, o.order_x, o.order_y
        );
        let _ = writeln!(
            out,
            "  busy={} transport_errors={} drills={} storm_connections={}",
            o.busy_responses, o.transport_errors, o.drills_run, o.storm_connections
        );
        let _ = writeln!(
            out,
            "  retries={} timeouts={} circuit_opens={} reconnects={} server_restarts={}",
            o.retries, o.timeouts, o.circuit_opens, o.reconnects, o.server_restarts
        );
        let _ = writeln!(
            out,
            "  latency max={:.1}ms mean={:.1}ms",
            self.latency.max_seconds * 1e3,
            self.latency.mean_seconds * 1e3
        );
        if let Some(s) = &self.service {
            let _ = writeln!(
                out,
                "  cache geometry_hits={} cold_builds={} warm_builds={}",
                s.geometry_hits, s.cold_builds, s.warm_builds
            );
        }
        if let Some(s) = &self.streaming {
            let ttfr = match s.time_to_first_result_s {
                Some(t) => format!("{t:.3}s"),
                None => "never".to_string(),
            };
            let _ = writeln!(
                out,
                "  streaming reports={} polls={} provisional_results={} first_result={ttfr}",
                s.reports_ingested, s.polls, s.provisional_results
            );
        }
        if self.checks.is_empty() {
            let _ = writeln!(out, "  (no expectations declared)");
        }
        for check in &self.checks {
            let mark = if check.passed { "[ok]  " } else { "[FAIL]" };
            let _ = writeln!(out, "  {mark} {}: {}", check.name, check.detail);
        }
        out
    }
}
