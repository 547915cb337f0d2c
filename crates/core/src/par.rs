//! The workspace's one work-stealing fan-out primitive.
//!
//! Both [`crate::ProbeSim::par_batch`] (per-thread pooled sessions) and
//! `probesim_eval`'s experiment sweeps need the same shape: run `len`
//! independent jobs on `threads` scoped workers, give each worker a
//! private mutable state built once (a `QuerySession`, or nothing), and
//! return results **in input order**. Keeping the atomic-claim loop in
//! one place means panic handling and ordering fixes happen once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(&mut state, i)` for every `i in 0..len` across `threads`
/// scoped worker threads, returning the results in index order.
///
/// `init` builds one private `state` per worker (called once per thread,
/// and once total on the sequential path taken when `threads <= 1` or
/// `len <= 1`). Jobs are claimed dynamically from an atomic counter, so
/// uneven job costs balance automatically.
pub fn ordered_map_with<T, S, I, F>(len: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads == 1 || len <= 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let value = f(&mut state, i);
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("invariant: every slot filled by its worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = ordered_map_with(50, 4, || (), |_, i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let serial = ordered_map_with(20, 1, || (), |_, i| i + 1);
        let parallel = ordered_map_with(20, 4, || (), |_, i| i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn per_worker_state_is_private_and_reused() {
        // Each worker counts its own jobs; the totals must cover all jobs
        // exactly once.
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        let out = ordered_map_with(
            64,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = ordered_map_with(0, 4, || (), |_, i| i);
        assert!(empty.is_empty());
        let one = ordered_map_with(1, 4, || (), |_, i| i);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn thread_count_is_clamped_to_job_count() {
        // A 64-thread request over a 3-item batch must not spawn 64
        // workers: `init` runs once per worker, so counting `init`
        // calls bounds the number of workers actually started.
        let inits = AtomicUsize::new(0);
        let out = ordered_map_with(
            3,
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, i| i * 10,
        );
        assert_eq!(out, vec![0, 10, 20]);
        assert!(
            inits.load(Ordering::Relaxed) <= 3,
            "spawned {} workers for 3 jobs",
            inits.load(Ordering::Relaxed)
        );
    }
}
