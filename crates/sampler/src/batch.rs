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
//! this module is bitwise identical for any thread count (1, 2, 8, or `0`,
//! inline or spread), because the randomness of an item is a pure function of
//! the seed tree and the item index, and because results are written into
//! per-index slots rather than collected in completion order. The
//! `tests/determinism.rs` suite pins this contract.
//!
//! **Threads.** `threads = 0` means "inline until the work pays for
//! threads" (see [`fan_out_contained`]), so a one-point sample or a short
//! warm batch starts no thread at all. There is no thread pool on purpose:
//! a shared pool needs `'static` tasks, while every task here borrows the
//! caller's prepared generator and seed tree, and a pool would be a second
//! executor beside the scoped one. Worker-local generator state is obtained
//! by cloning the prepared generator inside each worker (for the composed
//! generators that clone is a cheap attach to a shared body).
//!
//! [`SeedSequence`]: crate::SeedSequence
//! [`SeedSequence::item_stream`]: crate::SeedSequence::item_stream
//! [`RelationGenerator::sample_batch`]: crate::RelationGenerator::sample_batch
//! [`RelationVolumeEstimator::estimate_volume_batch`]: crate::RelationVolumeEstimator::estimate_volume_batch

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of cores the fan-out may use: one per available core (and `1`
/// when parallelism cannot be queried). Resolved once per process —
/// `available_parallelism` reads cgroup files on Linux, which costs more
/// than a short draw.
pub fn auto_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many times the cost of starting one worker thread the estimated work
/// of the items after item 0 must reach before a `threads = 0` fan-out
/// spreads them.
///
/// With `c` cores the spread saves about `(1 − 1/c)` of the work and pays
/// one start per extra worker, so on two cores it breaks even at twice the
/// start cost; the margin covers what an empty spawn does not show (waking
/// the worker, cache misses on its first items) and the error of pricing
/// every item at item 0's time. Measured on a 2-core x86-64 container:
/// starting and joining an empty scoped thread takes 10–17 µs, and a seeded
/// 16-point sample of the benchmark's warm bodies (items of ~3.5 µs, about
/// 6 thread starts of work) takes 47–57 µs inline against 72 µs on two
/// threads.
const SPREAD_MIN_GAIN: u32 = 8;

/// Wall-clock cost of starting and joining one scoped worker thread, the
/// unit of [`SPREAD_MIN_GAIN`]: the fastest of three timed empty spawns,
/// measured once per process on first use.
fn thread_start_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..3)
            .map(|_| {
                let started = Instant::now();
                std::thread::scope(|scope| {
                    scope.spawn(|| ());
                });
                started.elapsed()
            })
            .min()
            .expect("three probes")
    })
}

/// The number of workers (the caller included) that a `threads = 0`
/// fan-out gives the `rest` items after item 0, which took `first`: one —
/// inline on the caller — unless the estimated work `rest × first` is at
/// least [`SPREAD_MIN_GAIN`] thread starts, else one per core.
fn auto_spread(rest: usize, first: Duration) -> usize {
    let cores = auto_threads();
    if cores == 1 || rest < 2 {
        return 1;
    }
    let work = first.as_secs_f64() * rest as f64;
    if work < f64::from(SPREAD_MIN_GAIN) * thread_start_cost().as_secs_f64() {
        1
    } else {
        cores
    }
}

/// A worker panic contained by [`fan_out_contained`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker that panicked (`0` is the calling thread).
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

/// Runs items `first..first + piece.len()` in order on the current thread,
/// on `state` or on a fresh one from `init`, behind the panic boundary.
/// Returns the state for the caller to continue with, or the rendered panic
/// payload (the items from the panicking one on stay `None`).
fn run_chunk<T, S, I, F>(
    state: Option<S>,
    first: usize,
    piece: &mut [Option<T>],
    init: &I,
    task: &F,
) -> Result<S, String>
where
    I: Fn() -> S,
    F: Fn(&mut S, usize) -> T,
{
    catch_unwind(AssertUnwindSafe(|| {
        let mut state = state.unwrap_or_else(init);
        for (k, slot) in piece.iter_mut().enumerate() {
            *slot = Some(task(&mut state, first + k));
        }
        state
    }))
    .map_err(payload_string)
}

/// Splits `slots` (items `first..`) into at most `threads` contiguous
/// chunks. The calling thread runs chunk 0, continuing `state` when one is
/// passed in; each further chunk runs on a scoped worker with its own
/// `init()` state. Worker `w` runs chunk `w`, and its panic is recorded
/// under that index.
fn spread<T, S, I, F>(
    slots: &mut [Option<T>],
    first: usize,
    threads: usize,
    state: Option<S>,
    init: &I,
    task: &F,
    panics: &mut Vec<WorkerPanic>,
) where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let n = slots.len();
    if n == 0 {
        return;
    }
    let chunk = n.div_ceil(threads.clamp(1, n));
    let mut pieces = slots.chunks_mut(chunk);
    let own = pieces.next().expect("a non-empty batch has a first chunk");
    let run_own = |panics: &mut Vec<WorkerPanic>| {
        if let Err(payload) = run_chunk(state, first, own, init, task) {
            panics.push(WorkerPanic { worker: 0, payload });
        }
    };
    if chunk == n {
        run_own(panics);
        return;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .enumerate()
            .map(|(k, piece)| {
                let w = k + 1;
                let start = first + w * chunk;
                let handle = scope.spawn(move || run_chunk(None, start, piece, init, task).err());
                (w, handle)
            })
            .collect();
        run_own(panics);
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

/// Runs `task(state, i)` for every `i in 0..n`, containing panics.
///
/// **Threads.** An explicit `threads` splits the items into that many
/// contiguous chunks (capped by `n`); the calling thread runs chunk 0 and a
/// scoped worker runs each other chunk. `threads = 0` runs item 0 on the
/// calling thread and times it, then keeps going inline unless the
/// remaining items' estimated work reaches eight times the measured cost of
/// starting a thread, in which case it splits them over one worker per core
/// ([`auto_threads`]), the caller again taking the first chunk.
///
/// **State.** Each worker builds its own state once via `init` (typically a
/// clone of a prepared generator); the caller's state carries over from item
/// 0 to its chunk.
///
/// **Panics.** A panic inside `init` or `task` is caught at the worker
/// boundary (`catch_unwind` + `AssertUnwindSafe`), the caller's own chunk
/// included: the panicking worker's remaining items stay `None`, **every
/// other worker runs to completion**, and the panic surfaces as a
/// structured [`WorkerPanic`] instead of unwinding. Under `threads = 0` a
/// panic at item 0 ends the query's inline work, as on one thread.
///
/// Provided `task`'s output depends only on the index (and immutable parts
/// of the state), the filled slots are independent of the thread count.
pub fn fan_out_contained<T, S, I, F>(n: usize, threads: usize, init: I, task: F) -> FanOutReport<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut panics: Vec<WorkerPanic> = Vec::new();
    if threads == 0 && n > 0 {
        let (head, rest) = slots.split_at_mut(1);
        let started = Instant::now();
        match run_chunk(None, 0, head, &init, &task) {
            Ok(state) => {
                let threads = auto_spread(rest.len(), started.elapsed());
                spread(rest, 1, threads, Some(state), &init, &task, &mut panics);
            }
            Err(payload) => panics.push(WorkerPanic { worker: 0, payload }),
        }
    } else {
        spread(&mut slots, 0, threads, None, &init, &task, &mut panics);
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

/// Runs `task(state, i)` for every `i in 0..n` on up to `threads` threads
/// (`0` = inline until the work pays for threads, see
/// [`fan_out_contained`]) and returns the results in index order.
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
    fn auto_threads_spread_only_work_worth_a_thread_start() {
        assert_eq!(auto_spread(1_000, Duration::ZERO), 1);
        assert_eq!(auto_spread(1, Duration::from_secs(1)), 1);
        assert_eq!(auto_spread(8, Duration::from_millis(50)), auto_threads());
        // One or two items never leave the calling thread.
        let caller = std::thread::current().id();
        for n in [1, 2] {
            let ids = fan_out(n, 0, || (), |_, _| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller));
        }
        // Items of 10 ms are worth it: with more than one core the rest
        // spread, the caller taking the first chunk after item 0.
        let ids = fan_out(
            5,
            0,
            || (),
            |_, _| {
                std::thread::sleep(Duration::from_millis(10));
                std::thread::current().id()
            },
        );
        assert_eq!(ids[0], caller);
        assert_eq!(ids[1], caller);
        let spread = ids.iter().any(|&id| id != caller);
        assert_eq!(spread, auto_threads() > 1);
    }

    #[test]
    fn auto_threads_contain_a_panic_at_the_first_item() {
        let report = fan_out_contained(
            8,
            0,
            || (),
            |_, i| {
                assert!(i != 0, "injected: first item");
                i
            },
        );
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].worker, 0);
        assert_eq!(report.completed(), 0);
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
