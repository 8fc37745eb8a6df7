//! Declarative scenario engine for the STPP reproduction.
//!
//! The paper's evaluation is a set of deployment case studies — a
//! portal gate, a library shelf, a sortation conveyor. This crate makes
//! that axis declarative: a scenario is a JSON file describing the tag
//! population, the deployment geometry and motion, the channel, a
//! request schedule and, crucially, the **expectations** the run must
//! satisfy (pinned orderings, accuracy floors, latency ceilings,
//! backpressure and cache assertions).
//!
//! One scenario runs three ways through [`run_scenario`]:
//!
//! * [`RunMode::Pipeline`] — straight through the in-process batch
//!   localizer;
//! * [`RunMode::Service`] — through a
//!   [`LocalizationService`](stpp_serve::LocalizationService);
//! * [`RunMode::Wire`] — over TCP against a spawned
//!   [`StppServer`](stpp_serve::StppServer), optionally behind the
//!   [`ChaosProxy`] when the scenario declares wire impairments
//!   (injected delay, cross-connection reorder holds, mid-frame
//!   truncation, connection churn, and queue-overfill drills via the
//!   server's own `Pause`/`Busy` machinery).
//!
//! All three produce the same [`RunOutcome`] for clean scenarios — the
//! pipeline's bit-identical determinism guarantee, which the runner
//! actively asserts on every repeated request.
//!
//! ```no_run
//! use stpp_scenario::{run_scenario, RunMode, RunOptions, ScenarioSpec};
//!
//! let spec = ScenarioSpec::load(std::path::Path::new("scenarios/portal.json"))?;
//! let report = run_scenario(&spec, &RunOptions::mode(RunMode::Wire))?;
//! print!("{}", report.render());
//! assert!(report.passed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod build;
pub mod chaos;
pub mod cli;
pub mod error;
pub mod report;
pub mod runner;
pub mod spec;

pub use build::{build_scenario, BuiltScenario};
pub use chaos::ChaosProxy;
pub use error::ScenarioError;
pub use report::{
    CheckResult, LatencySummary, RunMode, RunOutcome, RunReport, ServiceObservations,
    StreamingObservations,
};
pub use runner::{run_scenario, RunError, RunOptions};
pub use spec::{
    ChannelSpec, ClientSpec, DeploymentSpec, DurationSpec, Expectations, ImpairmentSpec,
    LayoutSpec, MultipathSpec, PopulationSpec, ScenarioSpec, ScheduleSpec, ServerSpec, StormSpec,
    StreamingSpec, TagPosition,
};
