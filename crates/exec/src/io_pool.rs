//! A small pool of reusable I/O threads, shaped like [`std::thread::scope`].
//!
//! A cold scan keeps `min(depth, morsels)` fetch loops in flight
//! ([`crate::prefetch`]), each on a thread of its own. Starting and joining
//! that many OS threads per scan cost about a sixth of a remote scan's process
//! CPU: `pthread_create`, the signal stack the standard library maps and
//! unmaps for every thread, and the join. [`IoPool::scope`] runs each spawned
//! job on an idle pooled thread instead, or on a newly started one that joins
//! the pool when its job ends. Every job still gets a thread to itself, so a
//! scope runs exactly as many jobs at once as it spawned; only thread start
//! and exit go. Threads are never retired: a pool holds as many as the most
//! jobs it ever ran at once.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Stack size of a pooled thread. Its jobs only fetch, so a small stack is
/// plenty, and it bounds what each thread the pool keeps holds in address
/// space and in touched stack pages.
const IO_STACK_BYTES: usize = 256 << 10;

type Panic = Box<dyn Any + Send + 'static>;

/// A spawned closure with its lifetime erased (see [`Scope::spawn`]), and the
/// latch of the scope that waits for it.
struct Job {
    work: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

/// Reusable threads; see the module docs.
pub(crate) struct IoPool {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued for an idle thread, or on close.
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Jobs handed to idle threads and not yet taken by one. Each was
    /// promised a thread of its own: it was queued only by taking one from
    /// `idle`.
    jobs: Vec<Job>,
    /// Threads between jobs that no queued job has been promised.
    idle: usize,
    threads: Vec<JoinHandle<()>>,
    closed: bool,
}

impl IoPool {
    pub(crate) fn new() -> Self {
        IoPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState::default()),
                wake: Condvar::new(),
            }),
        }
    }

    /// The process-wide pool every scan's I/O loops run on.
    pub(crate) fn global() -> &'static IoPool {
        static POOL: OnceLock<IoPool> = OnceLock::new();
        POOL.get_or_init(IoPool::new)
    }

    /// Threads this pool has started.
    #[cfg(test)]
    pub(crate) fn started(&self) -> usize {
        self.shared.state.lock().threads.len()
    }

    /// Run `f` with a [`Scope`] whose jobs may borrow from the caller, like
    /// [`std::thread::scope`]: returns only after every job spawned in it has
    /// finished, both when `f` returns and when it unwinds. A panic of `f`,
    /// else the first panic of a job, resumes here once all jobs are done.
    pub(crate) fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let scope = Scope {
            pool: self,
            latch: Arc::new(Latch::default()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The wait `Scope::spawn`'s lifetime erasure relies on: it happens in
        // this frame on every path out of it.
        let job_panic = scope.latch.wait();
        match (result, job_panic) {
            (Err(panic), _) | (Ok(_), Some(panic)) => resume_unwind(panic),
            (Ok(value), None) => value,
        }
    }

    /// Hand `job` to an idle thread, or start a thread for it.
    fn run(&self, job: Job) -> std::io::Result<()> {
        let mut st = self.shared.state.lock();
        if st.idle > 0 {
            st.idle -= 1;
            st.jobs.push(job);
            drop(st);
            self.shared.wake.notify_one();
            return Ok(());
        }
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .stack_size(IO_STACK_BYTES)
            .spawn(move || serve(&shared, job))?;
        st.threads.push(thread);
        Ok(())
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // No scope can be running: each borrows the pool. So every thread is
        // idle or about to be, and exits once it sees `closed`.
        let threads = {
            let mut st = self.shared.state.lock();
            st.closed = true;
            std::mem::take(&mut st.threads)
        };
        self.shared.wake.notify_all();
        for thread in threads {
            // A pooled thread cannot panic: its jobs run under `catch_unwind`.
            let _ = thread.join();
        }
    }
}

/// A pooled thread's life: run a job, become idle, take the next one.
fn serve(shared: &Shared, mut job: Job) {
    loop {
        let panic = catch_unwind(AssertUnwindSafe(job.work)).err();
        let mut st = shared.state.lock();
        // Idle before the scope learns the job ended, so a scope that starts
        // after this one returned finds the thread ready.
        st.idle += 1;
        job.latch.finish(panic);
        job = loop {
            if let Some(next) = st.jobs.pop() {
                break next;
            }
            if st.closed {
                return;
            }
            shared.wake.wait(&mut st);
        };
    }
}

/// Counts a scope's unfinished jobs and keeps the first job panic.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    pending: usize,
    panic: Option<Panic>,
}

impl Latch {
    fn start(&self) {
        self.state.lock().pending += 1;
    }

    fn finish(&self, panic: Option<Panic>) {
        let mut st = self.state.lock();
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every started job finished; the first job panic, if any.
    fn wait(&self) -> Option<Panic> {
        let mut st = self.state.lock();
        while st.pending > 0 {
            self.done.wait(&mut st);
        }
        st.panic.take()
    }
}

/// Spawns jobs onto an [`IoPool`] from inside [`IoPool::scope`]. The lifetime
/// markers are those of [`std::thread::Scope`]: `'scope` is invariant and
/// outlived by `'env`, the data jobs may borrow.
pub(crate) struct Scope<'scope, 'env: 'scope> {
    pool: &'scope IoPool,
    latch: Arc<Latch>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Run `f` on a pooled thread of its own. It may borrow anything that
    /// outlives the scope.
    ///
    /// # Panics
    /// Panics if no thread is idle and a new one cannot be started.
    pub(crate) fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let work: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the pool needs a `'static` job, but `work` may borrow data
        // that lives only for `'scope`. The job never runs or is dropped after
        // that data is gone: `IoPool::scope` does not leave its frame, by
        // return or by unwinding, before this scope's latch counts every
        // started job finished; a pooled thread consumes `work` (running and
        // dropping it, panic or not) before it finishes the job on the latch,
        // and a job whose thread fails to start is dropped by
        // `Builder::spawn` before the latch is finished for it below.
        let work = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(work)
        };
        self.latch.start();
        let job = Job {
            work,
            latch: Arc::clone(&self.latch),
        };
        if let Err(e) = self.pool.run(job) {
            self.latch.finish(None);
            panic!("failed to start a pooled I/O thread: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Run `n` jobs at once on `pool` and return their threads. Each waits at
    /// a barrier until all have started, so a pool that queued a job behind
    /// another instead of giving it a thread of its own would never return.
    fn run_together(pool: &IoPool, n: usize) -> HashSet<ThreadId> {
        let barrier = Barrier::new(n);
        let ids = Mutex::new(HashSet::new());
        pool.scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    barrier.wait();
                    ids.lock().insert(std::thread::current().id());
                });
            }
        });
        ids.into_inner()
    }

    #[test]
    fn consecutive_scopes_reuse_threads() {
        let pool = IoPool::new();
        let first = run_together(&pool, 4);
        let second = run_together(&pool, 4);
        assert_eq!(first.len(), 4);
        assert_eq!(first, second);
        assert_eq!(pool.started(), 4);
        // A wider scope starts only the threads the pool lacks.
        assert_eq!(run_together(&pool, 6).len(), 6);
        assert_eq!(pool.started(), 6);
    }

    #[test]
    fn a_panicking_job_leaves_its_thread_in_the_pool() {
        let pool = IoPool::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("job boom")));
        }));
        let payload = caught.expect_err("the job's panic reaches the scope's caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job boom"));
        assert_eq!(pool.started(), 1);
        let ran = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(ran.into_inner(), 1);
        assert_eq!(pool.started(), 1, "the next scope reuses the thread");
    }

    /// Releases the jobs' barrier when the scope body ends, whether it
    /// returns or unwinds.
    struct ReleaseOnDrop<'a>(&'a Barrier);

    impl Drop for ReleaseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }

    #[test]
    fn scope_outlives_every_borrowing_job() {
        // Jobs hold off their increments until the body has ended (returned,
        // or begun to unwind): only the scope's wait can make the stack-local
        // counter whole by the time `scope` is left.
        let pool = IoPool::new();
        let jobs = 5;
        for body_panics in [false, true] {
            let count = AtomicUsize::new(0);
            let go = Barrier::new(jobs + 1);
            let left = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    let _release = ReleaseOnDrop(&go);
                    for _ in 0..jobs {
                        s.spawn(|| {
                            go.wait();
                            count.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    assert!(!body_panics, "body boom");
                })
            }));
            assert_eq!(left.is_err(), body_panics);
            assert_eq!(count.load(Ordering::SeqCst), jobs);
        }
        assert_eq!(pool.started(), jobs);
    }
}
