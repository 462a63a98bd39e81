//! The three workloads. Each generates its inputs from the seed, sets up
//! (several times, for a steady `setup_s`), measures for the requested
//! time, and checks every output against a direct
//! `GraphHdModel::predict` made during set-up.
//!
//! Load is closed-loop: each of at most two client threads sends its
//! next call when the previous one has answered.

pub mod common;
pub mod serve_manyclass;
pub mod serve_socket;
pub mod train_dd;

use crate::cli::Args;
use crate::metrics::Report;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainDd,
    ServeSocket,
    ServeManyclass,
}

impl Workload {
    /// In `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::TrainDd, Self::ServeSocket, Self::ServeManyclass];

    pub fn name(self) -> &'static str {
        match self {
            Self::TrainDd => "train_dd",
            Self::ServeSocket => "serve_socket",
            Self::ServeManyclass => "serve_manyclass",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload. End-to-end metrics are always filled in (from
    /// the traced half of a traced run); per-layer metrics only when
    /// `tracer` is enabled.
    pub fn run(self, args: &Args, tracer: &Tracer) -> Outcome {
        let mut outcome = match self {
            Self::TrainDd => train_dd::run(args, tracer),
            Self::ServeSocket => serve_socket::run(args, tracer),
            Self::ServeManyclass => serve_manyclass::run(args, tracer),
        };
        let attempted = outcome.attempted.max(1);
        outcome.report.set(
            "success_rate",
            1.0 - outcome.failed as f64 / attempted as f64,
            attempted as usize,
        );
        if outcome.failed > 0 {
            outcome.problems.push(format!(
                "{} of {attempted} calls failed or answered wrong",
                outcome.failed
            ));
        }
        outcome
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    /// Calls whose answers were checked.
    pub attempted: u64,
    /// Calls that failed or answered differently from the oracle.
    pub failed: u64,
    /// Every failed check, in words; empty when the run is correct.
    pub problems: Vec<String>,
    /// Further report lines: what the metrics leave out.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a stretch of checked calls.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}
