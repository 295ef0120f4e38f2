//! Host-side telemetry for the simulator engines.
//!
//! [`crate::Machine::enable_host_telemetry`] attaches a
//! `HostTelemetry` block of exact event counters: cycles stepped and
//! cycles skipped in bulk, plus the wake-repair machinery's events
//! (bitmask rebuilds, dirty-mark repairs, order-rule re-grades). None of
//! it touches simulated state, so a telemetry-on run is bit-identical to
//! a telemetry-off run — the same contract the `Obs` probe layer honors.
//! No host clock is read per cycle: the only host time reported is the
//! program's exact one-time decode cost.

use pc_metrics::{Sample, SampleValue};

/// Live host-telemetry state carried by a [`crate::Machine`]. One
/// predicted branch per counted event when absent; plain counter
/// increments when present.
#[derive(Debug, Default)]
pub(crate) struct HostTelemetry {
    /// `Machine::step` invocations observed.
    pub steps: u64,
    /// Full readiness-bitmask rebuilds (`refresh_ready`).
    pub bitmask_rebuilds: u64,
    /// Dirty-mark wake repairs (`update_ready_after_write`).
    pub wake_repairs: u64,
    /// Order-rule re-grades after memory drains
    /// (`update_ready_after_mem_drain`).
    pub mem_drain_regrades: u64,
    /// Bulk idle spans actually taken (clock jumped).
    pub idle_spans_skipped: u64,
    /// Cycles elided by those spans.
    pub idle_cycles_skipped: u64,
}

impl HostTelemetry {
    /// Freezes the current state into a [`HostProfile`] snapshot.
    /// `decode_ns` is the (exact) decode time of the program the
    /// machine runs, measured once by
    /// [`crate::DecodedProgram::decode`].
    pub fn profile(&self, decode_ns: u64) -> HostProfile {
        HostProfile {
            decode_ns,
            steps: self.steps,
            bitmask_rebuilds: self.bitmask_rebuilds,
            wake_repairs: self.wake_repairs,
            mem_drain_regrades: self.mem_drain_regrades,
            idle_spans_skipped: self.idle_spans_skipped,
            idle_cycles_skipped: self.idle_cycles_skipped,
        }
    }
}

/// Immutable snapshot of a machine's host-side telemetry: how much
/// work the *host* did to simulate, as opposed to [`crate::RunStats`],
/// which says where the *guest's* cycles went.
///
/// Every counter is exact. Every simulated cycle is either stepped or
/// skipped in bulk, so `steps + idle_cycles_skipped` equals the run's
/// [`crate::RunStats::cycles`]; the Scan engine never skips, so there
/// `idle_cycles_skipped` is 0 and `steps` is the cycle count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HostProfile {
    /// Exact nanoseconds spent decoding the program (once per
    /// [`crate::DecodedProgram`], however many machines share it).
    pub decode_ns: u64,
    /// `Machine::step` invocations (cycles actually stepped; bulk-skipped
    /// cycles are not stepped).
    pub steps: u64,
    /// Full readiness-bitmask rebuilds.
    pub bitmask_rebuilds: u64,
    /// Dirty-mark wake repairs after register writes.
    pub wake_repairs: u64,
    /// Order-rule re-grades after memory-system drains.
    pub mem_drain_regrades: u64,
    /// Bulk idle spans taken.
    pub idle_spans_skipped: u64,
    /// Cycles elided by bulk idle skips.
    pub idle_cycles_skipped: u64,
}

impl HostProfile {
    /// Converts the profile into [`pc_metrics::Sample`]s (names prefixed
    /// `host_`), ready for a [`pc_metrics::Snapshot`] and its JSONL /
    /// text / Prometheus renderers.
    pub fn to_samples(&self) -> Vec<Sample> {
        [
            (
                "host_decode_ns",
                "Exact host nanoseconds decoding the program.",
                self.decode_ns,
            ),
            ("host_steps_total", "Machine::step invocations.", self.steps),
            (
                "host_bitmask_rebuilds_total",
                "Full readiness-bitmask rebuilds.",
                self.bitmask_rebuilds,
            ),
            (
                "host_wake_repairs_total",
                "Dirty-mark wake repairs after register writes.",
                self.wake_repairs,
            ),
            (
                "host_mem_drain_regrades_total",
                "Order-rule re-grades after memory drains.",
                self.mem_drain_regrades,
            ),
            (
                "host_idle_spans_skipped_total",
                "Bulk idle spans taken.",
                self.idle_spans_skipped,
            ),
            (
                "host_idle_cycles_skipped_total",
                "Cycles elided by bulk idle skips.",
                self.idle_cycles_skipped,
            ),
        ]
        .into_iter()
        .map(|(name, help, v)| Sample {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            value: SampleValue::Counter(v),
        })
        .collect()
    }

    /// Renders the human-readable counter block (the body of
    /// `pcsim metrics <bench>`).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "host counters ({} steps)", self.steps);
        let _ = writeln!(out, "  decode (one-time): {} ns", self.decode_ns);
        let _ = writeln!(
            out,
            "  events: {} bitmask rebuilds, {} wake repairs, {} mem-drain regrades",
            self.bitmask_rebuilds, self.wake_repairs, self.mem_drain_regrades
        );
        let _ = writeln!(
            out,
            "  bulk skip: {} spans, {} cycles elided",
            self.idle_spans_skipped, self.idle_cycles_skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_snapshot_is_consistent() {
        let t = HostTelemetry {
            steps: 10,
            bitmask_rebuilds: 3,
            idle_spans_skipped: 1,
            idle_cycles_skipped: 4,
            ..HostTelemetry::default()
        };
        let p = t.profile(1234);
        assert_eq!(p.decode_ns, 1234);
        assert_eq!(p.steps, 10);
        assert_eq!(p.bitmask_rebuilds, 3);
        let text = p.render_text();
        assert!(text.starts_with("host counters (10 steps)"), "{text}");
        assert!(text.contains("3 bitmask rebuilds"), "{text}");
        assert!(text.contains("1 spans, 4 cycles elided"), "{text}");
    }

    #[test]
    fn samples_round_trip_through_snapshot() {
        let t = HostTelemetry {
            steps: 2,
            wake_repairs: 7,
            ..HostTelemetry::default()
        };
        let snap = pc_metrics::Snapshot::from_samples(t.profile(5).to_samples());
        assert_eq!(snap.value("host_steps_total"), Some(2));
        assert_eq!(snap.value("host_wake_repairs_total"), Some(7));
        assert_eq!(snap.value("host_decode_ns"), Some(5));
        let prom = snap.render_prometheus("pcsim_");
        assert!(prom.contains("pcsim_host_steps_total 2"), "{prom}");
    }
}
