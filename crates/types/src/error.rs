//! Typed simulation errors and wedge diagnoses.
//!
//! The model hot paths (queues, crossbar ports, MSHRs, DRAM) report
//! invariant violations as [`SimError`] values instead of panicking, so a
//! long sweep survives one bad run and a wedged machine produces a
//! structured [`WedgeDiagnosis`] instead of hanging. The model crates
//! deny `clippy::{unwrap_used, expect_used, panic}` at their roots to keep
//! them honest about this contract.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A failed simulation run.
///
/// Every variant names where in the machine the failure was observed and
/// at which cycle, so a failure inside a million-cycle sweep is diagnosable
/// from the error value alone.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cycle budget expired before the kernel finished — either the
    /// budget was too small or the configuration deadlocked.
    Watchdog {
        /// Cycle at which the run was aborted.
        cycle: u64,
        /// Instructions retired so far (progress indicator).
        instructions: u64,
        /// Human-readable liveness diagnosis.
        detail: String,
    },
    /// The progress watchdog saw no forward progress for a full
    /// no-progress horizon: the machine is wedged, not merely congested.
    Wedged {
        /// Structured diagnosis of the wedge (boxed: it carries the full
        /// per-component occupancy survey).
        diagnosis: Box<WedgeDiagnosis>,
    },
    /// A bounded queue accepted a push its capacity check had excluded.
    QueueOverflow {
        /// Component owning the queue (e.g. `l2_partition`).
        component: &'static str,
        /// The queue's name (e.g. `l2_access`).
        queue: &'static str,
        /// Cycle of the violation.
        cycle: u64,
    },
    /// A crossbar output claimed a packet without an ejection credit.
    CreditUnderflow {
        /// Crossbar the port belongs to.
        component: &'static str,
        /// Output-port index.
        port: usize,
        /// Cycle of the violation.
        cycle: u64,
    },
    /// MSHR bookkeeping lost or duplicated a waiter, or request
    /// conservation failed (a load retired without its response).
    MshrLeak {
        /// Component owning the MSHR table.
        component: &'static str,
        /// Cycle of the violation.
        cycle: u64,
        /// What exactly leaked.
        detail: String,
    },
    /// A port was driven against its protocol (e.g. a store entered a
    /// response-only path).
    PortProtocol {
        /// Component owning the port.
        component: &'static str,
        /// Cycle of the violation.
        cycle: u64,
        /// What the protocol expected vs what happened.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Watchdog {
                cycle,
                instructions,
                detail,
            } => write!(
                f,
                "watchdog expired at cycle {cycle} ({instructions} instructions retired): {detail}"
            ),
            SimError::Wedged { diagnosis } => write!(f, "{diagnosis}"),
            SimError::QueueOverflow {
                component,
                queue,
                cycle,
            } => write!(
                f,
                "queue overflow in {component}/{queue} at cycle {cycle}: a push its \
                 capacity check had excluded was attempted"
            ),
            SimError::CreditUnderflow {
                component,
                port,
                cycle,
            } => write!(
                f,
                "credit underflow on {component} output {port} at cycle {cycle}: a \
                 packet was claimed without an ejection credit"
            ),
            SimError::MshrLeak {
                component,
                cycle,
                detail,
            } => write!(f, "MSHR leak in {component} at cycle {cycle}: {detail}"),
            SimError::PortProtocol {
                component,
                cycle,
                detail,
            } => write!(
                f,
                "port protocol violation in {component} at cycle {cycle}: {detail}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Occupancy of one component at the moment a wedge was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentOccupancy {
    /// Component name (e.g. `l2_access`, `req_xbar`, `dram`).
    pub name: String,
    /// Requests/packets pending inside it.
    pub pending: u64,
}

/// The oldest in-flight fetch visible in the machine's queues when a wedge
/// was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OldestFetch {
    /// The fetch's id.
    pub id: u64,
    /// Core that issued it.
    pub core: u32,
    /// Cycle it was issued.
    pub issued_at: u64,
    /// Cycles it has been in flight.
    pub waiting: u64,
}

/// A structured wedge diagnosis: what the watchdog saw when it declared the
/// machine stuck.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WedgeDiagnosis {
    /// Cycle at which the wedge was declared.
    pub cycle: u64,
    /// Last cycle at which any progress counter moved.
    pub last_progress_cycle: u64,
    /// The configured no-progress horizon.
    pub horizon: u64,
    /// Instructions retired in total.
    pub instructions: u64,
    /// Responses delivered to cores in total.
    pub responses_delivered: u64,
    /// Requests injected into the memory system in total.
    pub requests_injected: u64,
    /// CTAs dispatched so far.
    pub ctas_dispatched: u32,
    /// CTAs in the grid.
    pub grid_ctas: u32,
    /// Non-empty components, in pipeline order.
    pub components: Vec<ComponentOccupancy>,
    /// The oldest fetch visible in any queue, if any.
    pub oldest_fetch: Option<OldestFetch>,
    /// Stages that are full, in pipeline order — the blocked
    /// component chain the wedge propagates through.
    pub blocked_chain: Vec<String>,
}

impl fmt::Display for WedgeDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wedged at cycle {}: no progress since cycle {} (horizon {})",
            self.cycle, self.last_progress_cycle, self.horizon
        )?;
        writeln!(
            f,
            "  progress: {} instructions, {} responses delivered, {} requests \
             injected, {}/{} CTAs dispatched",
            self.instructions,
            self.responses_delivered,
            self.requests_injected,
            self.ctas_dispatched,
            self.grid_ctas
        )?;
        if self.blocked_chain.is_empty() {
            writeln!(f, "  blocked chain: (no full stage found)")?;
        } else {
            writeln!(f, "  blocked chain: {}", self.blocked_chain.join(" -> "))?;
        }
        match &self.oldest_fetch {
            Some(o) => writeln!(
                f,
                "  oldest in-flight fetch: id {} from core {}, issued at cycle {}, \
                 waiting {} cycles",
                o.id, o.core, o.issued_at, o.waiting
            )?,
            None => writeln!(f, "  oldest in-flight fetch: none visible")?,
        }
        write!(f, "  occupancy:")?;
        for c in &self.components {
            write!(f, " {}={}", c.name, c.pending)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_site() {
        let e = SimError::QueueOverflow {
            component: "l2_partition",
            queue: "l2_access",
            cycle: 42,
        };
        let s = e.to_string();
        assert!(s.contains("l2_partition"));
        assert!(s.contains("l2_access"));
        assert!(s.contains("42"));
    }

    #[test]
    fn wedge_diagnosis_renders_chain_and_oldest() {
        let d = WedgeDiagnosis {
            cycle: 1000,
            last_progress_cycle: 500,
            horizon: 500,
            instructions: 10,
            responses_delivered: 3,
            requests_injected: 7,
            ctas_dispatched: 2,
            grid_ctas: 4,
            components: vec![ComponentOccupancy {
                name: "l2_to_icnt".into(),
                pending: 8,
            }],
            oldest_fetch: Some(OldestFetch {
                id: 9,
                core: 1,
                issued_at: 480,
                waiting: 520,
            }),
            blocked_chain: vec![
                "resp_xbar.ingress[0](full)".into(),
                "l2_to_icnt(full)".into(),
            ],
        };
        let s = SimError::Wedged {
            diagnosis: Box::new(d),
        }
        .to_string();
        assert!(s.contains("no progress since cycle 500"));
        assert!(s.contains("resp_xbar.ingress[0](full) -> l2_to_icnt(full)"));
        assert!(s.contains("waiting 520 cycles"));
        assert!(s.contains("l2_to_icnt=8"));
    }
}
