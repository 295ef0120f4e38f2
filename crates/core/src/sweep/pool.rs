//! In-order dispatch pool.
//!
//! Every experiment in [`crate::experiments`] is an embarrassingly
//! parallel grid — benchmark × mode × interconnect × memory model ×
//! unit mix — of independent compile/simulate/validate pipelines, each
//! a coarse 0.3–100 ms cell. Workers claim cells one at a time from a
//! single shared cursor, in a dispatch order the caller chooses: a
//! worker that drew a long cell simply claims fewer. Because cells
//! start in dispatch order, a caller that flushes results in item
//! order holds only the rows that finished while its oldest unfinished
//! cell ran — a few on the sweep grids, where a block-seeded pool held
//! up to half the grid.
//!
//! Results are delivered with **deterministic ordering**: [`par_map`]
//! returns results in item order no matter how the OS schedules
//! workers, so a parallel sweep is bit-identical to the serial one.

use pc_metrics::Lanes;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Live pool metrics, shared with a [`crate::sweep::SweepTelemetry`]
/// registry. All handles are lock-free; workers write their own lanes
/// only, so a monitor thread can read concurrently.
///
/// Conservation contract: every executed item is claimed exactly once,
/// so `claims.total()` equals the number of items executed.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Items claimed from the shared cursor, per worker.
    pub claims: Arc<Lanes>,
    /// Host nanoseconds inside the work closure, per worker.
    pub busy_ns: Arc<Lanes>,
    /// Host lifetime of each worker thread, recorded once at exit.
    pub wall_ns: Arc<Lanes>,
}

/// Number of worker threads to use by default: the host's available
/// parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every item on up to `jobs` workers, which claim the
/// items in `order` (a permutation of the item indices), delivering
/// `(item index, result)` pairs to `sink` **on the caller's thread in
/// completion order**. Worker panics are caught and delivered as `Err`
/// payloads; the caller decides how to re-raise. `jobs <= 1` runs
/// inline in `order` with no spawning (and no panic catching — a
/// serial panic propagates exactly as the plain loop would).
///
/// This is the streaming primitive under [`par_map`] and the sweep
/// engine's JSONL writer: the sink sees results the moment they finish,
/// not when the whole grid is done.
pub(crate) fn run_pool<I, O, F>(
    items: &[I],
    order: &[usize],
    jobs: usize,
    f: F,
    mut sink: impl FnMut(usize, std::thread::Result<O>),
    metrics: Option<&PoolMetrics>,
) where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    debug_assert_eq!(order.len(), items.len());
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        let t_start = metrics.map(|_| Instant::now());
        for &i in order {
            if let Some(m) = metrics {
                m.claims.add(0, 1);
                let t0 = Instant::now();
                let out = f(&items[i]);
                m.busy_ns.add(0, t0.elapsed().as_nanos() as u64);
                sink(i, Ok(out));
            } else {
                sink(i, Ok(f(&items[i])));
            }
        }
        if let (Some(m), Some(t)) = (metrics, t_start) {
            m.wall_ns.add(0, t.elapsed().as_nanos() as u64);
        }
        return;
    }
    // The cursor only hands out positions in `order`; the items and
    // `order` are shared before the workers spawn, so it publishes no
    // data and `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<O>)>();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let (cursor, f) = (&cursor, &f);
            s.spawn(move || {
                let t_spawn = metrics.map(|_| Instant::now());
                while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    if let Some(m) = metrics {
                        m.claims.add(w, 1);
                    }
                    // A panicking item must not tear down the scope with a
                    // payload-less "scoped thread panicked": the payload is
                    // caught, shipped to the caller's thread, and re-raised
                    // there once every worker has drained the cursor.
                    let t0 = metrics.map(|_| Instant::now());
                    let out = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                    if let (Some(m), Some(t)) = (metrics, t0) {
                        m.busy_ns.add(w, t.elapsed().as_nanos() as u64);
                    }
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                }
                if let (Some(m), Some(t)) = (metrics, t_spawn) {
                    m.wall_ns.add(w, t.elapsed().as_nanos() as u64);
                }
            });
        }
        drop(tx);
        for (i, out) in rx {
            sink(i, out);
        }
    });
}

/// Applies `f` to every item on up to `jobs` worker threads, returning
/// the results **in item order** (the scheduling of workers never leaks
/// into the output). `jobs <= 1` runs inline on the caller's thread with
/// no spawning at all.
///
/// # Panics
/// Re-raises the panic of the **lowest-indexed** panicking item — with
/// its original payload — after all workers finish, mirroring
/// [`try_par_map`]'s deterministic error choice. Other items still run
/// to completion (no cancellation).
pub fn par_map<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let order: Vec<usize> = (0..items.len()).collect();
    par_map_in(items, &order, jobs, f)
}

/// [`par_map`] with the workers claiming items in `order`, a
/// permutation of the item indices. Results still come back in item
/// order, and the lowest *item index* still wins for a panic payload.
pub(crate) fn par_map_in<I, O, F>(items: &[I], order: &[usize], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    run_pool(
        items,
        order,
        jobs,
        f,
        |i, out| match out {
            Ok(v) => slots[i] = Some(v),
            Err(payload) => {
                let lowest = match &first_panic {
                    None => true,
                    Some((j, _)) => i < *j,
                };
                if lowest {
                    first_panic = Some((i, payload));
                }
            }
        },
        None,
    );
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every work item produces one result"))
        .collect()
}

/// [`par_map`] for fallible work: collects `Ok` results in item order,
/// or returns the error of the **lowest-indexed** failing item — not the
/// first to fail on the wall clock — so error reporting is deterministic
/// too. Later items still run to completion (no cancellation), keeping
/// behaviour identical to the serial `?`-free sweep of the same grid.
///
/// # Errors
/// The error of the lowest-indexed item whose `f` returned `Err`.
pub fn try_par_map<I, O, E, F>(items: &[I], jobs: usize, f: F) -> Result<Vec<O>, E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(&I) -> Result<O, E> + Sync,
{
    par_map(items, jobs, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        // Make late items finish first to stress the reordering.
        let out = par_map(&items, 8, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(64 - x));
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..100).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(2654435761));
        let parallel = par_map(&items, 7, |&x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u8> = vec![];
        assert_eq!(par_map(&none, 4, |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_behaves_like_one() {
        assert_eq!(par_map(&[1, 2, 3], 0, |&x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, 64, |&x| x + 1), vec![1, 2, 3]);
    }

    #[test]
    fn a_long_first_item_keeps_the_output_in_item_order() {
        // One long item at the front: the other workers claim the rest
        // while it runs, and ordering must hold regardless.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, 4, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 100
        });
        assert_eq!(out, (100..132).collect::<Vec<_>>());
    }

    #[test]
    fn a_dispatch_order_changes_no_result() {
        let items: Vec<u32> = (0..40).collect();
        let reversed: Vec<usize> = (0..items.len()).rev().collect();
        for jobs in [1, 3] {
            let out = par_map_in(&items, &reversed, jobs, |&x| x * 7);
            assert_eq!(out, par_map(&items, 1, |&x| x * 7), "jobs={jobs}");
        }
        // One worker runs the items in `order` too.
        let mut ran = Vec::new();
        run_pool(&items, &reversed, 1, |&x| x, |i, _| ran.push(i), None);
        assert_eq!(ran, reversed);
    }

    #[test]
    fn try_par_map_reports_lowest_indexed_error() {
        let items: Vec<u32> = (0..32).collect();
        // Items 5 and 20 both fail; 5 must win regardless of timing.
        let err = try_par_map(&items, 8, |&x| {
            if x == 5 || x == 20 {
                // Let the higher-indexed failure race ahead.
                if x == 5 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(x)
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, 5);
    }

    #[test]
    fn try_par_map_ok_keeps_order() {
        let items: Vec<u32> = (0..16).collect();
        let out: Vec<u32> = try_par_map(&items, 4, |&x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn run_pool_streams_every_result_exactly_once() {
        let items: Vec<u32> = (0..50).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let mut seen = vec![0u32; items.len()];
        run_pool(
            &items,
            &order,
            6,
            |&x| x * 3,
            |i, out| {
                seen[i] += 1;
                assert_eq!(out.unwrap(), items[i] * 3);
            },
            None,
        );
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    fn test_metrics(jobs: usize) -> PoolMetrics {
        let r = pc_metrics::Registry::new();
        PoolMetrics {
            claims: r.lanes("claims", "", jobs),
            busy_ns: r.lanes("busy", "", jobs),
            wall_ns: r.lanes("wall", "", jobs),
        }
    }

    #[test]
    fn metrics_count_one_claim_per_item_and_busy_within_wall() {
        // An unbalanced grid: however the OS schedules the workers,
        // every item is claimed exactly once, and busy time never
        // exceeds the worker's wall time.
        let items: Vec<u64> = (0..48).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let jobs = 4;
        let m = test_metrics(jobs);
        let mut delivered = 0usize;
        run_pool(
            &items,
            &order,
            jobs,
            |&x| {
                if x % 12 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                x
            },
            |_, out| {
                out.unwrap();
                delivered += 1;
            },
            Some(&m),
        );
        assert_eq!(delivered, items.len());
        assert_eq!(
            m.claims.total(),
            items.len() as u64,
            "claims {:?}",
            m.claims.per_lane(),
        );
        for (b, w) in m.busy_ns.per_lane().iter().zip(m.wall_ns.per_lane()) {
            assert!(*b <= w, "busy {b} > wall {w}");
        }
    }

    #[test]
    fn metrics_serial_path_claims_every_item() {
        let items: Vec<u32> = (0..9).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let m = test_metrics(1);
        run_pool(&items, &order, 1, |&x| x, |_, _| {}, Some(&m));
        assert_eq!(m.claims.total(), 9);
        assert!(m.busy_ns.get(0) <= m.wall_ns.get(0));
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..32).collect();
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted payload");
        assert_eq!(msg, "boom at 13");
        // No cancellation: every other item still ran.
        assert_eq!(survivors.load(Ordering::Relaxed), items.len() - 1);
    }

    #[test]
    fn panic_choice_is_the_lowest_indexed_item() {
        let items: Vec<u32> = (0..32).collect();
        let forward: Vec<usize> = (0..items.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        // Items 5 and 20 both panic; 5 must win even when 20 finishes
        // first on the wall clock, or is dispatched first.
        for order in [forward, reversed] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_in(&items, &order, 8, |&x| {
                    if x == 5 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        panic!("low");
                    }
                    if x == 20 {
                        panic!("high");
                    }
                    x
                })
            }));
            let payload = result.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"low"));
        }
    }

    #[test]
    fn try_par_map_survivors_keep_input_order_alongside_a_panic() {
        // A panic in one item and errors in others must not disturb the
        // deterministic Ok ordering of an unaffected run of the same
        // shape (the grid sweeps rely on this for bit-identical output).
        let items: Vec<u32> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            try_par_map(&items, 4, |&x| {
                if x == 9 {
                    panic!("nine");
                }
                Ok::<_, ()>(x)
            })
        }));
        assert_eq!(result.unwrap_err().downcast_ref::<&str>(), Some(&"nine"));
        let clean: Vec<u32> = try_par_map(&items, 4, |&x| Ok::<_, ()>(x)).unwrap();
        assert_eq!(clean, items);
    }
}
