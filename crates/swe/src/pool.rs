//! The persistent thread team the pool executor runs on: the OpenMP
//! fork-join model, one parallel region per loop of a sweep over a fixed
//! per-device team.
//!
//! A pool of `n` threads keeps `n - 1` parked workers; the thread that starts
//! a loop is the `n`-th member. Chunk indices are handed out through one
//! atomic counter, so each chunk runs exactly once, on whichever member takes
//! it first, and the loop returns only when every member has left it. A panic
//! in any chunk is re-raised on the calling thread after that.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The member body of the loop in flight, with its lifetime erased.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync`, so any thread may call it through a shared
// reference, and `Pool::broadcast` keeps it alive until every worker has
// returned from it.
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Bumped once per broadcast; a worker runs each generation once.
    generation: u64,
    /// Workers that have not yet left the current generation.
    active: usize,
    /// The first panic a worker caught in the current generation.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a generation starts or the pool shuts down.
    wake: Condvar,
    /// Signalled when the last worker leaves a generation.
    done: Condvar,
}

/// A fixed team of threads running chunked loops over output slices.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A team of `threads` members (at least one): the caller plus
    /// `threads - 1` workers.
    pub(crate) fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared::default());
        let workers = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpas-pool-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn a pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Team size: the workers plus the calling thread.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Call `f(range, windows)` once for every `chunk`-long window of the
    /// equal-length outputs `outs` (the last window may be shorter), where
    /// `windows` are the outputs' sub-slices over `range`.
    pub(crate) fn for_each<const K: usize, F>(&mut self, outs: [&mut [f64]; K], chunk: usize, f: F)
    where
        F: Fn(Range<usize>, [&mut [f64]; K]) + Sync,
    {
        assert!(chunk > 0, "chunk length must be positive");
        let len = outs.first().map_or(0, |o| o.len());
        assert!(
            outs.iter().all(|o| o.len() == len),
            "outputs differ in length"
        );
        let bases = outs.map(|o| Base(o.as_mut_ptr()));
        self.run(len.div_ceil(chunk), &|k| {
            let range = k * chunk..(k * chunk + chunk).min(len);
            // SAFETY: `run` passes each `k < len.div_ceil(chunk)` exactly
            // once, so `range` lies inside every output and no two calls
            // build windows over the same elements. `outs` stays mutably
            // borrowed until `run` returns, after every call has ended.
            let windows = bases.map(|b| unsafe {
                std::slice::from_raw_parts_mut(b.0.add(range.start), range.len())
            });
            f(range, windows);
        });
    }

    /// Call `body(k)` exactly once for every `k` in `0..n`, spread over the
    /// team.
    fn run(&mut self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let member = || loop {
            // Relaxed: the counter publishes no data. The loop's writes are
            // ordered before its return by the state mutex every worker
            // takes on leaving and `broadcast` takes before returning.
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            body(k);
        };
        if n <= 1 || self.workers.is_empty() {
            member();
        } else {
            self.broadcast(&member);
        }
    }

    /// Run `member` on every worker and on the caller; return once all have
    /// left it, re-raising the caller's panic first, else a worker's.
    fn broadcast(&mut self, member: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime is erased. The job is cleared, and every
        // worker has returned from it (`active == 0`), before this function
        // returns or unwinds, so the pointer never outlives `member`.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(member)
        });
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.job = Some(job);
            st.generation += 1;
            st.active = self.workers.len();
        }
        self.shared.wake.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(member));
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        while st.active > 0 {
            st = self.shared.done.wait(st).expect("pool state poisoned");
        }
        st.job = None;
        let theirs = st.panic.take();
        drop(st);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            // Workers catch every job panic, so a join error cannot occur.
            let _ = w.join();
        }
    }
}

/// The start of one output slice, shared with the team.
#[derive(Clone, Copy)]
struct Base(*mut f64);

// SAFETY: the pointer comes from a `&mut [f64]` that `Pool::for_each` holds
// for the whole loop, and members only build disjoint windows from it;
// `f64` is `Send`, so handing a window to another thread is sound.
unsafe impl Sync for Base {}

fn worker(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("a new generation carries a job");
                }
                st = shared.wake.wait(st).expect("pool state poisoned");
            }
        };
        // SAFETY: `broadcast` keeps the closure alive until `active` reaches
        // zero, and this worker decrements it only after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// Run `a` on the calling thread and `b` on a scoped thread beside it and
/// return both results: two pools' loops side by side, the shape of one
/// split pattern. A panic in either is re-raised here.
pub(crate) fn join<RA, RB: Send>(
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().unwrap_or_else(|p| resume_unwind(p)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn two_chunks_overlap_on_a_two_thread_pool() {
        let mut pool = Pool::new(2);
        let mut out = vec![0.0; 2];
        // A barrier with a deadline: each chunk waits for the other to
        // arrive, so a pool that ran them one after the other times out.
        let arrived = Mutex::new(0usize);
        let cv = Condvar::new();
        pool.for_each([&mut out], 1, |r, [o]| {
            let mut n = arrived.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let deadline = Instant::now() + Duration::from_secs(10);
            while *n < 2 {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "chunk {} ran alone", r.start);
                n = cv.wait_timeout(n, left).unwrap().0;
            }
            o[0] = 1.0;
        });
        assert_eq!(out, [1.0, 1.0]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        const CHUNK: usize = 7;
        // Each window adds index + 1: a skipped index reads 0, a repeated
        // one twice its due.
        let bump = |r: Range<usize>, w: &mut [f64]| {
            assert!(r.len() == w.len() && r.len() <= CHUNK && r.start.is_multiple_of(CHUNK));
            for (i, x) in r.zip(w) {
                *x += 1.0 + i as f64;
            }
        };
        for threads in 1..=3 {
            let mut pool = Pool::new(threads);
            for len in [0, CHUNK - 2, 4 * CHUNK + 3] {
                let [mut a, mut b, mut c, mut d, mut e, mut f]: [Vec<f64>; 6] =
                    std::array::from_fn(|_| vec![0.0; len]);
                pool.for_each([&mut a[..]], CHUNK, |r, [x]| bump(r, x));
                pool.for_each([&mut b[..], &mut c[..]], CHUNK, |r, [x, y]| {
                    bump(r.clone(), x);
                    bump(r, y);
                });
                let outs = [&mut d[..], &mut e[..], &mut f[..]];
                pool.for_each(outs, CHUNK, |r, [x, y, z]| {
                    bump(r.clone(), x);
                    bump(r.clone(), y);
                    bump(r, z);
                });
                let want: Vec<f64> = (0..len).map(|i| 1.0 + i as f64).collect();
                for out in [a, b, c, d, e, f] {
                    assert_eq!(out, want, "len {len}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_panicking_chunk_reraises_and_the_pool_still_runs() {
        let mut pool = Pool::new(2);
        let mut out = vec![0.0; 64];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each([&mut out], 4, |r, _| panic!("chunk at {}", r.start));
        }))
        .expect_err("the chunk panic must reach the caller");
        let msg = caught
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.starts_with("chunk at "), "{msg}");
        pool.for_each([&mut out], 4, |_, [o]| o.fill(1.0));
        assert!(out.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn a_one_thread_pool_spawns_no_worker() {
        let mut pool = Pool::new(1);
        assert!(pool.workers.is_empty());
        let me = std::thread::current().id();
        let mut out = vec![0.0; 100];
        pool.for_each([&mut out], 10, |_, [o]| {
            assert_eq!(std::thread::current().id(), me);
            o.fill(1.0);
        });
        assert!(out.iter().all(|&x| x == 1.0));
    }
}
