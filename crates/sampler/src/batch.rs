//! Parallel batched execution of samplers and volume estimators.
//!
//! The paper's generators are embarrassingly parallel — every sample is an
//! independent random-walk chain and every volume-estimate repeat is an
//! independent telescoping product — but the sequential API (`&mut self` plus
//! one shared [`rand::Rng`]) serializes them. This module supplies the
//! missing piece: a [`SeedSequence`]-driven fan-out over `std::thread::scope`
//! workers in which work item `i` always consumes the child stream
//! [`SeedSequence::item_stream`]`(i)`, no matter which worker runs it. The
//! default [`RelationGenerator::sample_batch`] and
//! [`RelationVolumeEstimator::estimate_volume_batch`] implementations are
//! built on it.
//!
//! **Determinism contract.** For a fixed seed the output of every function in
//! this module is bitwise identical for any thread count (1, 2, 8, or
//! [`auto_threads`]), because the randomness of an item is a pure function of
//! the seed tree and the item index, and because results are written into
//! per-index slots rather than collected in completion order. The
//! `tests/determinism.rs` suite pins this contract.
//!
//! No new dependencies are involved: workers are plain scoped threads, and
//! worker-local generator state is obtained by cloning the prepared generator
//! inside each worker.
//!
//! [`SeedSequence`]: crate::SeedSequence
//! [`SeedSequence::item_stream`]: crate::SeedSequence::item_stream
//! [`RelationGenerator::sample_batch`]: crate::RelationGenerator::sample_batch
//! [`RelationVolumeEstimator::estimate_volume_batch`]: crate::RelationVolumeEstimator::estimate_volume_batch

/// Number of worker threads to use when the caller passes `threads == 0`:
/// one per available core (and `1` when parallelism cannot be queried).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a caller-supplied thread count: `0` means [`auto_threads`], and
/// the count is capped by the number of work items.
fn resolve_threads(threads: usize, items: usize) -> usize {
    let t = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    t.clamp(1, items.max(1))
}

/// A worker panic contained by [`fan_out_contained`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker thread that panicked.
    pub worker: usize,
    /// The panic payload, rendered as a string (`"non-string panic payload"`
    /// when the payload was neither `&str` nor `String`).
    pub payload: String,
}

/// The outcome of a contained fan-out: per-index result slots (a slot is
/// `None` when its worker panicked before reaching it) and the contained
/// panics in worker order.
#[derive(Debug)]
pub struct FanOutReport<T> {
    /// Result of item `i`, or `None` when worker panic aborted the item.
    pub slots: Vec<Option<T>>,
    /// The panics contained during the fan-out, ordered by worker index.
    pub panics: Vec<WorkerPanic>,
}

impl<T> FanOutReport<T> {
    /// Number of items that completed.
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `task(state, i)` for every `i in 0..n` across up to `threads` scoped
/// worker threads, containing per-worker panics.
///
/// Each worker builds its own state once via `init` (typically a clone of a
/// prepared generator) and processes a contiguous chunk of indices. A panic
/// inside `init` or `task` is caught at the worker boundary
/// (`catch_unwind` + `AssertUnwindSafe`): the panicking worker's remaining
/// items stay `None`, **every surviving worker runs to completion**, and the
/// panic surfaces as a structured [`WorkerPanic`] instead of unwinding the
/// scope. Provided `task`'s output depends only on the index (and immutable
/// parts of the state), the filled slots are independent of the thread count.
pub fn fan_out_contained<T, S, I, F>(n: usize, threads: usize, init: I, task: F) -> FanOutReport<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let threads = resolve_threads(threads, n);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panics: Vec<WorkerPanic> = Vec::new();
    if threads == 1 {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(task(&mut state, i));
            }
        }));
        if let Err(payload) = outcome {
            panics.push(WorkerPanic {
                worker: 0,
                payload: payload_string(payload),
            });
        }
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, piece) in slots.chunks_mut(chunk).enumerate() {
                let init = &init;
                let task = &task;
                handles.push((
                    w,
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut state = init();
                            for (k, slot) in piece.iter_mut().enumerate() {
                                let i = w * chunk + k;
                                *slot = Some(task(&mut state, i));
                            }
                        }))
                        .err()
                        .map(payload_string)
                    }),
                ));
            }
            for (w, handle) in handles {
                match handle.join() {
                    Ok(Some(payload)) => panics.push(WorkerPanic { worker: w, payload }),
                    Ok(None) => {}
                    // The worker itself cannot unwind past catch_unwind, so
                    // a join error only happens on a non-unwinding abort path;
                    // record it defensively.
                    Err(payload) => panics.push(WorkerPanic {
                        worker: w,
                        payload: payload_string(payload),
                    }),
                }
            }
        });
    }
    FanOutReport { slots, panics }
}

/// One completed item of a [`fan_out_contained_timed`] run: the task's value
/// plus monotonic start/finish offsets measured from the caller's epoch.
#[derive(Clone, Debug)]
pub struct TimedItem<T> {
    /// The task's return value.
    pub value: T,
    /// Offset from `epoch` at which the task closure began executing.
    pub started: std::time::Duration,
    /// Offset from `epoch` at which the task closure returned.
    pub finished: std::time::Duration,
}

/// [`fan_out_contained`] with per-item completion timestamps.
///
/// Every slot records when its task started and finished, as offsets from the
/// caller-supplied `epoch` — passing the epoch in (rather than capturing one
/// internally) lets callers align the offsets with an externally computed
/// schedule, which is how the load harness measures latency from the
/// *scheduled* arrival rather than from dispatch. Timestamps are measurement
/// metadata only: the task values keep the same determinism contract as
/// [`fan_out_contained`].
pub fn fan_out_contained_timed<T, S, I, F>(
    n: usize,
    threads: usize,
    epoch: std::time::Instant,
    init: I,
    task: F,
) -> FanOutReport<TimedItem<T>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    fan_out_contained(n, threads, init, move |state, i| {
        let started = epoch.elapsed();
        let value = task(state, i);
        TimedItem {
            value,
            started,
            finished: epoch.elapsed(),
        }
    })
}

/// Runs `task(state, i)` for every `i in 0..n` across up to `threads` scoped
/// worker threads and returns the results in index order.
///
/// Infallible convenience wrapper over [`fan_out_contained`]: a worker panic
/// is re-raised on the calling thread (with the worker index and payload in
/// the message) after the surviving workers have completed. Callers that
/// need partial results instead of a propagated panic use
/// [`fan_out_contained`].
pub fn fan_out<T, S, I, F>(n: usize, threads: usize, init: I, task: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let report = fan_out_contained(n, threads, init, task);
    if let Some(p) = report.panics.first() {
        panic!("batch worker {} panicked: {}", p.worker, p.payload);
    }
    report
        .slots
        .into_iter()
        .map(|s| s.expect("every slot is filled by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_index_order() {
        for threads in [1usize, 2, 3, 8, 0] {
            let out = fan_out(17, threads, || (), |_, i| 2 * i);
            assert_eq!(out, (0..17).map(|i| 2 * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_worker_state_is_initialized_per_worker() {
        // Each worker counts the items it processed; the total is n for any
        // thread count even though the per-worker split differs.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 5] {
            let total = AtomicUsize::new(0);
            let _ = fan_out(
                11,
                threads,
                || 0usize,
                |state, _| {
                    *state += 1;
                    total.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(total.into_inner(), 11);
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_item_batches() {
        assert!(fan_out(0, 4, || (), |_, i| i).is_empty());
        assert_eq!(fan_out(1, 8, || (), |_, i| i), vec![0]);
    }

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn contained_fan_out_completes_surviving_workers() {
        // Worker 0 (items 0..4) panics at item 1; the other workers must
        // still fill every one of their slots.
        let report = fan_out_contained(
            16,
            4,
            || (),
            |_, i| {
                if i == 1 {
                    panic!("injected: boom at {i}");
                }
                i * 3
            },
        );
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].worker, 0);
        assert!(report.panics[0].payload.contains("boom at 1"));
        assert_eq!(report.slots[0], Some(0));
        assert_eq!(report.slots[1], None);
        for i in 4..16 {
            assert_eq!(report.slots[i], Some(i * 3), "slot {i}");
        }
        assert_eq!(report.completed(), 13);
    }

    #[test]
    fn contained_fan_out_single_thread_contains_too() {
        let report = fan_out_contained(
            4,
            1,
            || (),
            |_, i| {
                assert!(i != 2, "injected: dead item");
                i
            },
        );
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.slots, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn timed_fan_out_records_monotonic_offsets_and_contains_panics() {
        let epoch = std::time::Instant::now();
        let report = fan_out_contained_timed(
            12,
            3,
            epoch,
            || (),
            |_, i| {
                assert!(i != 5, "injected: timed casualty");
                i + 100
            },
        );
        assert_eq!(report.panics.len(), 1);
        for (i, slot) in report.slots.iter().enumerate() {
            match slot {
                Some(item) => {
                    assert_eq!(item.value, i + 100);
                    assert!(item.finished >= item.started, "slot {i} went backwards");
                }
                // Worker 1 owns items 4..8 and dies at 5.
                None => assert!((5..8).contains(&i), "unexpected lost slot {i}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch worker 1 panicked: injected: item six")]
    fn fan_out_reraises_the_first_panic() {
        fan_out(
            8,
            2,
            || (),
            |_, i| {
                assert!(i != 6, "injected: item six");
                i
            },
        );
    }
}
