//! Sweep-side host telemetry: what the batch engine, pool, and cache
//! are doing in host time.
//!
//! [`SweepTelemetry`] owns a [`pc_metrics::Registry`] and the live
//! handles the pool workers, cache call sites, and reorder buffer
//! update. Everything is lock-free after registration (per-worker lanes
//! are cache-line padded single-writer atomics), so a monitor thread —
//! the `--progress` line or the periodic JSONL emitter — snapshots
//! concurrently with the workers.
//!
//! Conservation invariants the snapshot satisfies (enforced by tests):
//!
//! * the `pool_claims` lanes sum to `cells_done_total` — every executed
//!   cell was claimed exactly once from the pool's cursor.
//! * per worker, `busy_ns <= wall_ns` and the summed idle time
//!   (`wall − busy`) plus busy time equals the summed wall time exactly
//!   (idle is *defined* as the complement, measured around the same
//!   clock reads).

use pc_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use std::sync::Arc;

use super::pool::PoolMetrics;

/// Live metrics registry for one sweep run.
#[derive(Debug)]
pub struct SweepTelemetry {
    registry: Registry,
    /// Pool handles, shared with `run_pool`.
    pub pool: PoolMetrics,
    /// Cells completed (fresh or cached).
    pub cells_done: Arc<Counter>,
    /// Cells this run set out to execute (pending after resume/shard).
    pub cells_total: Arc<Gauge>,
    /// Cache lookups that hit.
    pub cache_hits: Arc<Counter>,
    /// Cache lookups that missed (or ran with no cache configured).
    pub cache_misses: Arc<Counter>,
    /// Lookup latency of hits, nanoseconds.
    pub cache_hit_ns: Arc<Histogram>,
    /// Lookup latency of misses, nanoseconds.
    pub cache_miss_ns: Arc<Histogram>,
    /// Store latency, nanoseconds.
    pub cache_store_ns: Arc<Histogram>,
    /// Current JSONL reorder-buffer occupancy (rows completed but not
    /// yet flushed because an earlier cell is still in flight).
    pub reorder_depth: Arc<Gauge>,
    /// High-water mark of the reorder buffer.
    pub reorder_depth_peak: Arc<Gauge>,
}

impl SweepTelemetry {
    /// Creates the registry and all handles for a run of `total` cells
    /// on `jobs` workers.
    pub fn new(jobs: usize, total: usize) -> SweepTelemetry {
        let registry = Registry::new();
        let pool = PoolMetrics {
            claims: registry.lanes(
                "pool_claims",
                "Cells claimed from the shared cursor, per worker.",
                jobs,
            ),
            busy_ns: registry.lanes(
                "pool_busy_ns",
                "Host time inside cell pipelines, per worker.",
                jobs,
            ),
            wall_ns: registry.lanes("pool_wall_ns", "Host lifetime of each worker thread.", jobs),
        };
        let t = SweepTelemetry {
            pool,
            cells_done: registry.counter("cells_done_total", "Cells completed this run."),
            cells_total: registry.gauge("cells_total", "Cells this run set out to execute."),
            cache_hits: registry.counter("cache_hits_total", "Result-cache lookups that hit."),
            cache_misses: registry.counter(
                "cache_misses_total",
                "Result-cache lookups that missed (or no cache).",
            ),
            cache_hit_ns: registry.histogram("cache_hit_ns", "Lookup latency of cache hits."),
            cache_miss_ns: registry.histogram("cache_miss_ns", "Lookup latency of cache misses."),
            cache_store_ns: registry.histogram("cache_store_ns", "Cache store latency."),
            reorder_depth: registry.gauge(
                "reorder_buffer_depth",
                "Rows completed but awaiting in-order flush.",
            ),
            reorder_depth_peak: registry.gauge(
                "reorder_buffer_depth_peak",
                "High-water mark of the reorder buffer.",
            ),
            registry,
        };
        t.cells_total.set(total as u64);
        t
    }

    /// Point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Cache hit rate so far, in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.cache_hits.get();
        let m = self.cache_misses.get();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// One-line human progress report: completion, throughput, cache
    /// hit rate, ETA, and per-worker utilization. `elapsed_s` is the
    /// caller-measured wall time since the run started.
    pub fn progress_line(&self, elapsed_s: f64) -> String {
        let done = self.cells_done.get();
        let total = self.cells_total.get().max(1);
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta = if rate > 0.0 && done < total {
            format!("{:.0}s", (total - done) as f64 / rate)
        } else {
            "-".to_string()
        };
        let util: Vec<String> = self
            .pool
            .busy_ns
            .per_lane()
            .iter()
            .zip(self.pool.wall_ns.per_lane())
            .map(|(&b, w)| {
                if w == 0 {
                    // Worker still running: approximate against elapsed.
                    let wall = (elapsed_s * 1e9).max(1.0);
                    format!("{:.0}", (b as f64 * 100.0 / wall).min(100.0))
                } else {
                    format!("{:.0}", b as f64 * 100.0 / w as f64)
                }
            })
            .collect();
        format!(
            "cells {done}/{total} ({:.0}%) | {rate:.1} cells/s | hit {:.0}% | eta {eta} | util% [{}]",
            done as f64 * 100.0 / total as f64,
            self.hit_rate() * 100.0,
            util.join(" "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_every_registered_name() {
        let t = SweepTelemetry::new(2, 10);
        t.cells_done.add(3);
        t.cache_hits.inc();
        t.cache_misses.add(2);
        t.pool.claims.add(0, 2);
        t.pool.claims.add(1, 1);
        let snap = t.snapshot();
        assert_eq!(snap.value("cells_done_total"), Some(3));
        assert_eq!(snap.value("cells_total"), Some(10));
        assert_eq!(snap.labeled_total("pool_claims"), 3);
        assert!(snap.get("cache_hit_ns").is_some());
        // JSONL and Prometheus renders never panic and carry the names.
        assert!(snap.to_jsonl().contains("cells_done_total"));
        assert!(snap
            .render_prometheus("pcsim_")
            .contains("pcsim_cells_done_total 3"));
    }

    #[test]
    fn hit_rate_and_progress_line_are_sane() {
        let t = SweepTelemetry::new(2, 4);
        assert_eq!(t.hit_rate(), 0.0);
        t.cache_hits.add(3);
        t.cache_misses.add(1);
        assert!((t.hit_rate() - 0.75).abs() < 1e-12);
        t.cells_done.add(2);
        let line = t.progress_line(2.0);
        assert!(line.contains("cells 2/4 (50%)"), "{line}");
        assert!(line.contains("1.0 cells/s"), "{line}");
        assert!(line.contains("hit 75%"), "{line}");
    }
}
