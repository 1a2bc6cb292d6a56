//! Watched runs: drive a [`Network`] simulation with a stall watchdog.
//!
//! `Simulation::run_until` alone cannot distinguish "all flows done",
//! "horizon hit with flows still moving", and "flows wedged while the
//! clock keeps ticking" (e.g. a permanently partitioned fabric where RTO
//! timers keep the event queue alive forever). [`run_watched`] chunks the
//! run into watchdog windows, snapshots a progress signature between
//! chunks, and reports a structured [`RunOutcome`] instead of silently
//! burning the whole time limit.
//!
//! The chunking is *event-order transparent*: `run_with_budget` resumes
//! exactly where it stopped, so a watched run dispatches the same events
//! in the same order as a plain `run_until(deadline)` — traces and
//! event counts are byte-identical (pinned by a unit test below).

use dcsim::{Nanos, RunOutcome as EngineOutcome, Scheduler, Simulation};

use crate::ids::FlowId;
use crate::network::{Event, Network};

/// Why a watched run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every registered flow completed (and the run played out to its
    /// natural end: drain or deadline).
    Completed,
    /// The time horizon was reached with unfinished — but progressing —
    /// flows.
    Horizon,
    /// No flow delivered a byte over a full watchdog window while started
    /// flows remained unfinished: the run is wedged. The offenders are
    /// listed.
    Stalled {
        /// Flows started but unfinished at detection time.
        flows: Vec<FlowId>,
    },
    /// The event budget ran out (runaway protection).
    Budget,
}

impl RunOutcome {
    /// Whether the run ended with every flow complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// Short stable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Horizon => "horizon",
            RunOutcome::Stalled { .. } => "stalled",
            RunOutcome::Budget => "budget",
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Stalled { flows } => write!(f, "stalled ({} flows)", flows.len()),
            RunOutcome::Completed | RunOutcome::Horizon | RunOutcome::Budget => {
                f.write_str(self.name())
            }
        }
    }
}

/// Run `sim` until `deadline` (with an event `budget` as runaway
/// protection), checking progress every `watchdog` of simulated time.
///
/// A run is declared [`Stalled`](RunOutcome::Stalled) when the network's
/// [progress signature](Network::progress_signature) does not change
/// across a full watchdog window while started flows remain unfinished.
/// Pick a `watchdog` comfortably above the network RTT *and* the largest
/// backed-off RTO, or slow-but-alive recovery reads as a stall.
/// The watchdog never ends a run early on *completion* — trailing timer
/// events still play out to the deadline exactly as they would under
/// `run_until`, keeping watched and unwatched runs event-identical.
pub fn run_watched<S: Scheduler<Event>>(
    sim: &mut Simulation<Network, S>,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
) -> RunOutcome {
    assert!(watchdog > Nanos::ZERO, "watchdog horizon must be positive");
    let mut remaining = budget;
    let mut last_sig = None;
    loop {
        let chunk_end = deadline.min(sim.now() + watchdog); // Add saturates
        let before = sim.events_handled();
        let out = sim.run_with_budget(chunk_end, remaining);
        remaining = remaining.saturating_sub(sim.events_handled() - before);
        match out {
            EngineOutcome::Drained => {
                return if sim.world().all_finished() {
                    RunOutcome::Completed
                } else {
                    // Queue empty with flows pending: no timer left that
                    // could ever save them.
                    RunOutcome::Stalled {
                        flows: sim.world().unfinished_started(sim.now()),
                    }
                };
            }
            EngineOutcome::BudgetExhausted => return RunOutcome::Budget,
            EngineOutcome::DeadlineReached => {
                let now = sim.now();
                if now >= deadline {
                    return if sim.world().all_finished() {
                        RunOutcome::Completed
                    } else {
                        RunOutcome::Horizon
                    };
                }
                let sig = sim.world().progress_signature(now);
                if last_sig == Some(sig) {
                    let flows = sim.world().unfinished_started(now);
                    if !flows.is_empty() {
                        return RunOutcome::Stalled { flows };
                    }
                }
                last_sig = Some(sig);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FlapSchedule, LinkFault};
    use crate::flow::FlowSpec;
    use crate::monitor::MonitorConfig;
    use crate::network::{NetBuilder, NetConfig};
    use dcsim::{BitRate, Bytes};
    use faircc::{AckFeedback, CcMode, CongestionControl, SenderLimits};

    struct FixedRate(BitRate);
    impl CongestionControl for FixedRate {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(self.0)
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    /// h0 - s0 - s1 - h1 dumbbell with an optional fault plan.
    fn dumbbell(faults: FaultPlan) -> Simulation<crate::network::Network> {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        b.link(h0, s0, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(s0, s1, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(s1, h1, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(
            NetConfig {
                rto: Nanos::from_micros(50),
                faults,
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes(500_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let mut sim = dcsim::Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim
    }

    #[test]
    fn healthy_run_completes() {
        let mut sim = dumbbell(FaultPlan::none());
        let out = run_watched(
            &mut sim,
            Nanos::from_millis(100),
            u64::MAX,
            Nanos::from_millis(1),
        );
        assert_eq!(out, RunOutcome::Completed);
        assert!(out.is_complete());
        assert!(sim.world().all_finished());
    }

    #[test]
    fn watched_run_is_event_identical_to_plain_run() {
        let deadline = Nanos::from_millis(100);
        let mut plain = dumbbell(FaultPlan::none());
        plain.run_until(deadline);
        let mut watched = dumbbell(FaultPlan::none());
        run_watched(&mut watched, deadline, u64::MAX, Nanos::from_micros(7));
        assert_eq!(plain.events_handled(), watched.events_handled());
        assert_eq!(
            plain.world().monitor.fcts()[0].fct(),
            watched.world().monitor.fcts()[0].fct()
        );
    }

    #[test]
    fn permanent_partition_reports_stall() {
        // Cut the only fabric link mid-flow: the sender's RTO keeps the
        // queue alive forever, but no byte can ever be delivered.
        let s0 = crate::ids::NodeId(2);
        let s1 = crate::ids::NodeId(3);
        let mut sim = dumbbell(FaultPlan::none().link(
            LinkFault::on(s0, s1).with_flap(FlapSchedule::permanent(Nanos::from_micros(10))),
        ));
        let out = run_watched(
            &mut sim,
            Nanos::from_millis(500),
            u64::MAX,
            Nanos::from_millis(1),
        );
        match out {
            RunOutcome::Stalled { flows } => assert_eq!(flows, vec![FlowId(0)]),
            other @ (RunOutcome::Completed | RunOutcome::Horizon | RunOutcome::Budget) => {
                panic!("expected a stall, got {other}")
            }
        }
        // Detection came well before the full horizon burned.
        assert!(sim.now() < Nanos::from_millis(500));
    }

    #[test]
    fn short_horizon_reports_horizon() {
        let mut sim = dumbbell(FaultPlan::none());
        // 500 KB at 100 Gbps needs ~40us; stop at 20us while progressing.
        // The watchdog must exceed the ~6us RTT or the pre-first-ACK
        // window would read as a (false) stall.
        let out = run_watched(
            &mut sim,
            Nanos::from_micros(20),
            u64::MAX,
            Nanos::from_micros(10),
        );
        assert_eq!(out, RunOutcome::Horizon);
    }

    #[test]
    fn tiny_budget_reports_budget() {
        let mut sim = dumbbell(FaultPlan::none());
        let out = run_watched(&mut sim, Nanos::from_millis(100), 50, Nanos::from_millis(1));
        assert_eq!(out, RunOutcome::Budget);
    }

    #[test]
    fn outcome_display_names() {
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        assert_eq!(RunOutcome::Horizon.to_string(), "horizon");
        assert_eq!(RunOutcome::Budget.to_string(), "budget");
        assert_eq!(
            RunOutcome::Stalled {
                flows: vec![FlowId(0), FlowId(2)]
            }
            .to_string(),
            "stalled (2 flows)"
        );
    }
}
