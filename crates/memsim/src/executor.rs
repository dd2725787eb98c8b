//! The workspace's one job runner: whole simulations (fleet instances,
//! sweep cells) run as independent tasks over a fixed number of lanes.
//!
//! [`Executor::run_batch`] spawns `lanes - 1` scoped threads for the
//! batch and puts the calling thread to work beside them; every lane
//! pulls the next task index from one atomic cursor. Results come back
//! **in task order** whatever order lanes finished in, so lane count is
//! a host-speed knob only. Tasks may borrow from the caller's stack
//! (the scope joins every lane before `run_batch` returns). Every task
//! runs even if another panics; the panic of the lowest-index panicking
//! task is then re-raised on the caller.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tasks panic inside `catch_unwind`, never while holding a lock.
const UNPOISONED: &str = "no lock is held across a task panic";

/// A fixed-width batch runner (see the module docs).
#[derive(Debug)]
pub struct Executor {
    lanes: usize,
}

impl Executor {
    /// A runner with up to `lanes` tasks in flight (clamped to ≥ 1): the
    /// caller plus `lanes - 1` threads spawned per batch. A 1-lane
    /// executor runs every batch inline on the caller.
    pub fn new(lanes: usize) -> Self {
        Executor {
            lanes: lanes.max(1),
        }
    }

    /// Concurrent task lanes (spawned threads + the caller).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs every task and returns their results in task order. Blocks
    /// until the whole batch is done; if any task panicked, the
    /// lowest-index panic is re-raised here after the rest completed.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let tasks: Vec<_> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<_> = (0..n).map(|_| Mutex::new(None)).collect();
        // Relaxed: the cursor only hands out indices; tasks and results
        // travel through the mutexes and the scope's join.
        let cursor = AtomicUsize::new(0);
        let lane = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else { return };
            let task = task.lock().expect(UNPOISONED).take();
            let result = catch_unwind(AssertUnwindSafe(task.expect("each task runs once")));
            *slots[i].lock().expect(UNPOISONED) = Some(result);
        };
        std::thread::scope(|s| {
            for _ in 1..self.lanes.min(n) {
                s.spawn(lane);
            }
            lane();
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(UNPOISONED)
                    .expect("every task ran")
            })
            .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = Executor::new(4);
        for round in 0..3u64 {
            // Reverse workloads so late tasks finish first if execution
            // order leaked into result order.
            let tasks: Vec<_> = (0..16u64)
                .map(|i| {
                    move || {
                        let mut acc = round;
                        for k in 0..(16 - i) * 1000 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        (i, acc)
                    }
                })
                .collect();
            let out = pool.run_batch(tasks);
            assert_eq!(out.len(), 16);
            for (idx, (i, _)) in out.iter().enumerate() {
                assert_eq!(*i, idx as u64);
            }
        }
    }

    #[test]
    fn one_lane_runs_inline_and_matches_pool() {
        let serial = Executor::new(1);
        let pool = Executor::new(3);
        let mk = || (0..8u64).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(serial.run_batch(mk()), pool.run_batch(mk()));
        let caller = std::thread::current().id();
        let ids = serial.run_batch(vec![|| std::thread::current().id(); 3]);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn tasks_may_borrow_stack_data() {
        let data: Vec<u64> = (1..=64).collect();
        let chunks: Vec<&[u64]> = data.chunks(8).collect();
        let tasks: Vec<_> = chunks.iter().map(|c| || c.iter().sum::<u64>()).collect();
        let sums = Executor::new(3).run_batch(tasks);
        assert_eq!(sums.len(), 8);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(sums[0], (1..=8).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "job panicked on purpose")]
    fn job_panics_propagate_to_the_submitter() {
        let pool = Executor::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job panicked on purpose")),
            Box::new(|| 3),
        ];
        pool.run_batch(tasks);
    }

    #[test]
    fn every_task_runs_and_the_lowest_index_panic_wins() {
        for lanes in [1, 3] {
            let ran = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..8)
                .map(|i| {
                    let ran = &ran;
                    move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                        match i {
                            2 => panic!("task 2"),
                            5 => panic!("task 5"),
                            _ => {}
                        }
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| Executor::new(lanes).run_batch(tasks)))
                .expect_err("the batch must re-raise a task panic");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                8,
                "every task ran at {lanes} lanes"
            );
            assert_eq!(err.downcast_ref::<&str>(), Some(&"task 2"));
        }
    }

    #[test]
    fn lanes_clamp_to_one() {
        let pool = Executor::new(0);
        assert_eq!(pool.lanes(), 1);
        assert_eq!(pool.run_batch(vec![|| 7u32]), vec![7]);
    }
}
