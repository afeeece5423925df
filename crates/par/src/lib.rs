//! Deterministic parallel execution for the CED pipeline.
//!
//! Every stage of the flow that fans out over independent work items —
//! per-fault transition-table extraction, injection-campaign faults,
//! certification claims, suite machines — funnels through one
//! primitive: [`ParExec::map_reduce`] (and its streaming sibling
//! [`ParExec::for_each_ordered`]). The contract that makes parallelism
//! invisible to every report consumer:
//!
//! 1. **Pure maps, ordered merges.** The `map` closure runs on worker
//!    threads in whatever order the chunked work claiming produces;
//!    the `merge`/`consume` closure runs on the *caller's* thread in
//!    canonical item-index order, regardless of completion order. A
//!    fold over parallel results is therefore byte-identical to the
//!    serial fold — for any worker count, including one.
//! 2. **Deterministic failure selection.** When items fail, the error
//!    returned is the one carried by the *lowest-index* failing item —
//!    exactly the failure a serial left-to-right run would have hit
//!    first. Workers stop claiming items above the lowest failing
//!    index (the "failure floor"), but items below it always run, so
//!    the selection cannot race. Item panics are captured per item and
//!    re-raised on the caller thread under the same lowest-index rule.
//! 3. **Cooperative draining.** Budget/cancellation integration is by
//!    composition: map closures check their [`ced_runtime::Budget`]
//!    and return its [`ced_runtime::Interrupted`] as an ordinary item
//!    error. The failure floor then drains the pool — in-flight items
//!    finish (they observe the same cancelled/exhausted budget and
//!    fail fast), queued items above the floor are never started — and
//!    the caller receives the interrupt exactly as the serial path
//!    would have surfaced it.
//!
//! The pool is *scoped*: worker threads live only for the duration of
//! one call, borrow the items and closures directly (no `'static`
//! bounds, no channels leaking past the call), and are joined before
//! the call returns. `ParExec` itself is a tiny value type — a worker
//! count — so it can be cloned into options structs freely.
//!
//! [`isolate`] is the one panic-isolation path of the workspace: the
//! suite runs each machine attempt under it and the daemon each
//! request, so a panicking analysis becomes an error value for its own
//! caller and nothing on stderr. Pool workers inherit the spawning
//! thread's captured state, so a panic on a worker of an isolated call
//! stays quiet too, while an uncaptured panic (a plain CLI run) still
//! reaches the previous panic hook.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};

thread_local! {
    /// Whether this thread is inside [`isolate`] (or is a pool worker
    /// spawned from such a thread); the panic hook stays silent then.
    static CAPTURED: Cell<bool> = const { Cell::new(false) };
}

fn captured() -> bool {
    // `try_with`: a panic while the thread-local is being torn down
    // is not captured.
    CAPTURED.try_with(Cell::get).unwrap_or(false)
}

/// Installs (once, process-wide) a forwarding panic hook that keeps
/// panics on captured threads off stderr; every other panic still
/// reaches the previous hook.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !captured() {
                prev(info);
            }
        }));
    });
}

/// Runs `f` on the current thread, capturing a panic as its message:
/// the payload text for `&str` and `String` payloads, otherwise
/// `"non-string panic payload"`. While `f` runs the thread counts as
/// captured (see the crate docs), so the panic prints nothing; nested
/// calls restore the outer state on return.
///
/// `f` is treated as unwind-safe: a caller that gets `Err` must drop
/// whatever `f` was building rather than keep using it.
///
/// # Errors
///
/// The panic message when `f` panics.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_panic_hook();
    let outer = CAPTURED.replace(true);
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURED.set(outer);
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// A deterministic fork-join executor; see the crate docs for the
/// ordering contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParExec {
    jobs: usize,
}

/// Outcome of one item, tagged for transport to the merging thread.
enum ItemResult<U, E> {
    Ok(U),
    Err(E),
    Panic(Box<dyn std::any::Any + Send + 'static>),
}

impl ParExec {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> ParExec {
        ParExec { jobs: jobs.max(1) }
    }

    /// A single-worker executor: runs items in order on the caller's
    /// thread.
    pub fn serial() -> ParExec {
        ParExec::new(1)
    }

    /// An executor sized to the machine's available parallelism
    /// (falls back to 1 when the runtime cannot tell).
    pub fn available() -> ParExec {
        ParExec::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `map` over `items` on the worker pool and folds the
    /// results with `merge` in item-index order on the caller's
    /// thread. Returns the lowest-index item error, if any.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing item (see the crate docs
    /// for why this matches the serial run).
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index captured item panic.
    pub fn map_reduce<T, U, E, A>(
        &self,
        items: &[T],
        map: impl Fn(usize, &T) -> Result<U, E> + Sync,
        init: A,
        mut merge: impl FnMut(A, U) -> A,
    ) -> Result<A, E>
    where
        T: Sync,
        U: Send,
        E: Send,
    {
        let mut acc = Some(init);
        self.for_each_ordered(items, map, |_, u| {
            let folded = merge(acc.take().expect("accumulator present"), u);
            acc = Some(folded);
        })?;
        Ok(acc.expect("accumulator present"))
    }

    /// [`Self::map_reduce`] specialised to collecting the mapped
    /// values in item order.
    ///
    /// # Errors
    ///
    /// As [`Self::map_reduce`].
    pub fn try_map<T, U, E>(
        &self,
        items: &[T],
        map: impl Fn(usize, &T) -> Result<U, E> + Sync,
    ) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
    {
        self.map_reduce(items, map, Vec::with_capacity(items.len()), |mut v, u| {
            v.push(u);
            v
        })
    }

    /// The streaming engine: `map` runs on workers, `consume` runs on
    /// the caller's thread in item-index order *as results become
    /// ready* — item `i` is consumed as soon as items `0..=i` have all
    /// succeeded, while later items are still in flight. This is what
    /// lets the suite emit per-machine checkpoints mid-campaign
    /// without giving up the ordered-merge determinism.
    ///
    /// On failure, `consume` still sees every item below the
    /// lowest-index failure; items above it are discarded.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing item.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index captured item panic.
    pub fn for_each_ordered<T, U, E>(
        &self,
        items: &[T],
        map: impl Fn(usize, &T) -> Result<U, E> + Sync,
        mut consume: impl FnMut(usize, U),
    ) -> Result<(), E>
    where
        T: Sync,
        U: Send,
        E: Send,
    {
        if items.is_empty() {
            return Ok(());
        }
        if self.jobs == 1 {
            // Inline fast path: literally the serial loop, stopping at
            // the first failure like any left-to-right fold.
            for (i, item) in items.iter().enumerate() {
                consume(i, map(i, item)?);
            }
            return Ok(());
        }
        self.run_pooled(items, &map, &mut consume)
    }

    fn run_pooled<T, U, E>(
        &self,
        items: &[T],
        map: &(impl Fn(usize, &T) -> Result<U, E> + Sync),
        consume: &mut impl FnMut(usize, U),
    ) -> Result<(), E>
    where
        T: Sync,
        U: Send,
        E: Send,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        // Chunked work claiming: workers grab ascending index ranges
        // from a shared cursor. Chunks amortize the cursor contention
        // for large item counts while keeping the tail balanced; item
        // costs in this codebase are coarse (a whole fault simulation,
        // a whole machine), so small chunks win.
        let chunk = (n / (workers * 8)).clamp(1, 64);
        let cursor = AtomicUsize::new(0);
        // Lowest index known to have failed; workers never *start* an
        // item at or above the floor, and ascending claims guarantee
        // every item below the final floor was started, so the floor
        // converges to the serial run's first failure.
        let floor = AtomicUsize::new(usize::MAX);
        let (tx, rx) = mpsc::channel::<(usize, ItemResult<U, E>)>();
        let captured = captured();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let floor = &floor;
                // Workers inherit the caller's captured state, so a
                // panicking item under `isolate` stays off stderr.
                scope.spawn(move || {
                    CAPTURED.set(captured);
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n || start >= floor.load(Ordering::Relaxed) {
                            return;
                        }
                        let end = (start + chunk).min(n);
                        for (off, item) in items[start..end].iter().enumerate() {
                            let i = start + off;
                            if i >= floor.load(Ordering::Relaxed) {
                                return;
                            }
                            let result =
                                match std::panic::catch_unwind(AssertUnwindSafe(|| map(i, item))) {
                                    Ok(Ok(u)) => ItemResult::Ok(u),
                                    Ok(Err(e)) => {
                                        floor.fetch_min(i, Ordering::Relaxed);
                                        ItemResult::Err(e)
                                    }
                                    Err(payload) => {
                                        floor.fetch_min(i, Ordering::Relaxed);
                                        ItemResult::Panic(payload)
                                    }
                                };
                            if tx.send((i, result)).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
            drop(tx);

            // Ordered streaming merge on the caller's thread: buffer
            // out-of-order arrivals, consume the contiguous ready
            // prefix, and remember only the lowest-index failure.
            let mut pending: Vec<Option<U>> = Vec::new();
            let mut next = 0usize;
            let mut failure: Option<(usize, ItemResult<U, E>)> = None;
            for (i, result) in rx {
                match result {
                    ItemResult::Ok(u) => {
                        if failure.as_ref().is_some_and(|(fi, _)| i > *fi) {
                            continue;
                        }
                        if i >= pending.len() {
                            pending.resize_with(i + 1, || None);
                        }
                        pending[i] = Some(u);
                    }
                    other => {
                        if failure.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            failure = Some((i, other));
                        }
                    }
                }
                let limit = failure.as_ref().map_or(n, |(fi, _)| *fi);
                while next < limit && pending.get(next).is_some_and(Option::is_some) {
                    let u = pending[next].take().expect("checked above");
                    consume(next, u);
                    next += 1;
                }
            }
            match failure {
                None => Ok(()),
                Some((fi, ItemResult::Err(e))) => {
                    // Everything below the failure has been consumed:
                    // ascending claims ran all of `0..fi`, and the
                    // channel closed only after every worker finished.
                    debug_assert_eq!(next, fi);
                    Err(e)
                }
                Some((_, ItemResult::Panic(payload))) => std::panic::resume_unwind(payload),
                Some((_, ItemResult::Ok(_))) => unreachable!("failures never hold Ok"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn merge_order_is_item_order_at_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for jobs in [1usize, 2, 3, 8, 64] {
            let got: Vec<u64> = ParExec::new(jobs)
                .try_map(&items, |_, &x| Ok::<u64, ()>(x * 3))
                .unwrap();
            assert_eq!(got, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn fold_matches_serial_fold_bytewise() {
        let items: Vec<u64> = (0..100).collect();
        let serial = items
            .iter()
            .fold(String::new(), |acc, x| format!("{acc}|{x}"));
        let parallel = ParExec::new(7)
            .map_reduce(
                &items,
                |_, &x| Ok::<u64, ()>(x),
                String::new(),
                |acc, x| format!("{acc}|{x}"),
            )
            .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn lowest_index_error_wins_regardless_of_completion_order() {
        // Items 10, 40 and 70 fail; 10 must always be reported, even
        // though 40/70 often complete first on other workers.
        let items: Vec<usize> = (0..100).collect();
        for _ in 0..50 {
            let err = ParExec::new(8)
                .try_map(&items, |_, &x| {
                    if x == 40 || x == 70 {
                        return Err(x); // fails fast
                    }
                    if x == 10 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        return Err(x); // fails slow
                    }
                    Ok(x)
                })
                .unwrap_err();
            assert_eq!(err, 10);
        }
    }

    #[test]
    fn consume_sees_exactly_the_prefix_below_the_failure() {
        let items: Vec<usize> = (0..64).collect();
        let mut seen = Vec::new();
        let err = ParExec::new(4)
            .for_each_ordered(
                &items,
                |_, &x| if x == 17 { Err(x) } else { Ok(x) },
                |i, u| {
                    assert_eq!(i, u);
                    seen.push(u);
                },
            )
            .unwrap_err();
        assert_eq!(err, 17);
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn item_panic_is_reraised_on_the_caller_thread() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            ParExec::new(4)
                .try_map(&items, |_, &x| {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    Ok::<usize, ()>(x)
                })
                .unwrap();
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 5"), "{msg}");
    }

    #[test]
    fn error_drains_the_pool_without_running_the_tail() {
        // After the failure floor settles at item 0, workers must not
        // start items above it (modulo the chunk already claimed).
        let started = AtomicU64::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        ParExec::new(4)
            .try_map(&items, |_, &x| {
                started.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    Err(())
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(x)
                }
            })
            .unwrap_err();
        let ran = started.load(Ordering::Relaxed);
        assert!(ran < 2_000, "pool kept running after failure: {ran} items");
    }

    #[test]
    fn isolate_maps_payloads_to_their_messages() {
        assert_eq!(isolate(|| 7), Ok(7));
        assert_eq!(
            isolate(|| panic!("static text")),
            Err::<(), _>("static text".to_string())
        );
        let n = 3;
        assert_eq!(
            isolate(|| panic!("formatted {n}")),
            Err::<(), _>("formatted 3".to_string())
        );
        assert_eq!(
            isolate(|| std::panic::panic_any(42u32)),
            Err::<(), _>("non-string panic payload".to_string())
        );
    }

    #[test]
    fn pool_item_panic_under_isolate_is_an_error_on_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        let result = isolate(|| {
            ParExec::new(2).try_map(&items, |_, &x| {
                if x == 9 {
                    panic!("item {x} fails");
                }
                Ok::<usize, ()>(x)
            })
        });
        assert_eq!(result, Err("item 9 fails".to_string()));
        assert!(!captured(), "the caller leaves isolate uncaptured");
    }

    #[test]
    fn pool_workers_spawned_inside_isolate_are_captured() {
        let caller = std::thread::current().id();
        let items = [0u8; 8];
        let seen = isolate(|| {
            ParExec::new(2)
                .try_map(&items, |_, _| {
                    Ok::<_, ()>((std::thread::current().id(), captured()))
                })
                .unwrap()
        })
        .unwrap();
        assert!(seen.iter().all(|&(id, c)| id != caller && c), "{seen:?}");
        let outside = ParExec::new(2)
            .try_map(&items, |_, _| Ok::<_, ()>(captured()))
            .unwrap();
        assert!(outside.iter().all(|&c| !c), "{outside:?}");
    }

    #[test]
    fn nested_isolate_restores_the_outer_state() {
        assert!(!captured());
        let inner = isolate(|| {
            assert_eq!(isolate(|| panic!("inner")), Err::<(), _>("inner".into()));
            captured()
        });
        assert_eq!(inner, Ok(true), "the outer scope is still captured");
        assert!(!captured());
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let none: Vec<u8> = Vec::new();
        assert_eq!(
            ParExec::new(16).try_map(&none, |_, _| Ok::<u8, ()>(0)),
            Ok(Vec::new())
        );
        assert_eq!(
            ParExec::new(64).try_map(&[1u8, 2], |_, &x| Ok::<u8, ()>(x + 1)),
            Ok(vec![2, 3])
        );
        assert_eq!(ParExec::new(0).jobs(), 1);
    }

    #[test]
    fn budget_cancellation_drains_all_workers() {
        use ced_runtime::{Budget, Interrupted};
        let budget = Budget::new();
        let items: Vec<usize> = (0..64).collect();
        let token = budget.cancel_token();
        let err = ParExec::new(4)
            .try_map(&items, |i, _| {
                if i == 3 {
                    token.cancel();
                }
                budget.check("par:test")?;
                Ok::<usize, Interrupted>(i)
            })
            .unwrap_err();
        assert_eq!(err.kind, ced_runtime::InterruptKind::Cancelled);
    }
}
